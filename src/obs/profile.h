// RAII scoped timers feeding a hierarchical wall-time profiler.
//
// A ScopedTimer pushes its name onto a thread-local phase path
// ("train/epoch/forward/..."); on destruction it aggregates the scope's
// wall time into the Profiler under that path (the one record of phase
// times; the metrics registry holds none) and — when tracing is on —
// appends a Chrome trace event. The constructor checks obs::enabled()
// once; a disabled timer records nothing and costs one relaxed atomic
// load.
//
//   void train_epoch() {
//     PARAGRAPH_TIMED_SCOPE("epoch");
//     ...
//   }
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/control.h"
#include "obs/json.h"

namespace paragraph::obs {

class Profiler {
 public:
  struct Node {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double min_us = 0.0;
    double max_us = 0.0;
  };

  static Profiler& instance();

  void record(const std::string& path, double dur_us);

  // {"<path>": {"count": n, "total_ms": t, "mean_us": m, ...}, ...}
  JsonValue to_json() const;
  // Human-readable table, deepest phases indented, sorted by path.
  std::string report() const;

  std::map<std::string, Node> nodes() const;
  void reset();

 private:
  Profiler() = default;
  mutable std::mutex mu_;
  std::map<std::string, Node> nodes_;
};

class ScopedTimer {
 public:
  // `name` must outlive the scope (string literals / registry names).
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  bool active_ = false;
  std::size_t parent_path_len_ = 0;
  std::int64_t start_us_ = 0;
  const char* name_ = nullptr;
};

#define PARAGRAPH_OBS_CONCAT2(a, b) a##b
#define PARAGRAPH_OBS_CONCAT(a, b) PARAGRAPH_OBS_CONCAT2(a, b)
#define PARAGRAPH_TIMED_SCOPE(name) \
  ::paragraph::obs::ScopedTimer PARAGRAPH_OBS_CONCAT(paragraph_scope_, __LINE__)(name)

}  // namespace paragraph::obs

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each public call into a layer (name, start,
// end, parent span, request id), kept in memory, and written as a Chrome
// trace (chrome://tracing, Perfetto) when the run ends.
//
// Single-threaded: spans nest by the order they open and close on the
// calling thread. Spans of other threads are added whole with add().
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;              // index into Tracer::spans(); -1 = root
  std::int64_t request = -1;    // request id shared by a request's spans
  int tid = 0;                  // trace lane
};

struct LayerTime {
  std::size_t calls = 0;
  double total_us = 0.0;
  double self_us = 0.0;  // total minus the part covered by child spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled = true);

  bool enabled() const { return enabled_; }
  double now_us() const;

  // Opens a span under the innermost open one; returns its index, or -1
  // when tracing is off.
  int begin(const std::string& name, std::int64_t request = -1);
  void end(int span);
  // Records a finished span (e.g. measured on another thread).
  int add(Span span);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per span name. A span's self time is its duration minus the
  // union of its children's intervals, clipped to the span. With `root`,
  // only spans whose outermost ancestor (or themselves) is named `root`
  // count, e.g. "request" for the layers on a request's critical path.
  std::map<std::string, LayerTime> layer_times(const std::string& root = "") const;

  // Chrome trace-event JSON ("X" complete events, pid 1, tid = lane).
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Mean self time per call of one span name, in ms; 0 when it never ran.
double self_ms_per_call(const std::map<std::string, LayerTime>& times, const std::string& name);

// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, std::int64_t request = -1)
      : tracer_(tracer), span_(tracer.begin(name, request)) {}
  ~Scope() { tracer_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

}  // namespace e2ebench

#include "obs/profile.h"

#include <algorithm>
#include <cstdio>

#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace paragraph::obs {

namespace {

// Current phase path of this thread, segments joined by '/'.
thread_local std::string t_phase_path;

}  // namespace

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

void Profiler::record(const std::string& path, double dur_us) {
  std::lock_guard<std::mutex> lock(mu_);
  Node& n = nodes_[path];
  if (n.count == 0) {
    n.min_us = n.max_us = dur_us;
  } else {
    n.min_us = std::min(n.min_us, dur_us);
    n.max_us = std::max(n.max_us, dur_us);
  }
  ++n.count;
  n.total_us += dur_us;
}

JsonValue Profiler::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonValue root = JsonValue::object();
  for (const auto& [path, n] : nodes_) {
    JsonValue o = JsonValue::object();
    o.set("count", n.count);
    o.set("total_ms", n.total_us / 1e3);
    o.set("mean_us", n.total_us / static_cast<double>(n.count));
    o.set("min_us", n.min_us);
    o.set("max_us", n.max_us);
    root.set(path, std::move(o));
  }
  return root;
}

std::string Profiler::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out += "phase                                              count   total_ms    mean_us\n";
  for (const auto& [path, n] : nodes_) {
    const std::size_t depth = static_cast<std::size_t>(
        std::count(path.begin(), path.end(), '/'));
    std::string label(depth * 2, ' ');
    const std::size_t slash = path.rfind('/');
    label += slash == std::string::npos ? path : path.substr(slash + 1);
    char line[160];
    std::snprintf(line, sizeof line, "%-48s %7llu %10.2f %10.2f\n", label.c_str(),
                  static_cast<unsigned long long>(n.count), n.total_us / 1e3,
                  n.total_us / static_cast<double>(n.count));
    out += line;
  }
  return out;
}

std::map<std::string, Profiler::Node> Profiler::nodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_;
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  nodes_.clear();
}

ScopedTimer::ScopedTimer(const char* name) {
  if (!enabled()) return;
  active_ = true;
  name_ = name;
  parent_path_len_ = t_phase_path.size();
  if (!t_phase_path.empty()) t_phase_path += '/';
  t_phase_path += name;
  FlightRecorder::instance().phase_enter(name);
  start_us_ = now_us();
}

ScopedTimer::~ScopedTimer() {
  if (!active_) return;
  const std::int64_t end_us = now_us();
  const double dur_us = static_cast<double>(end_us - start_us_);
  Profiler::instance().record(t_phase_path, dur_us);
  TraceCollector& tracer = TraceCollector::instance();
  if (tracer.enabled()) tracer.add_complete(name_, "scope", start_us_, end_us - start_us_);
  FlightRecorder::instance().phase_exit();
  t_phase_path.resize(parent_path_len_);
}

}  // namespace paragraph::obs

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace e2ebench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::begin(const std::string& name, std::int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  if (request < 0 && s.parent >= 0) s.request = spans_[static_cast<std::size_t>(s.parent)].request;
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_us = now_us();
  // Spans close innermost first; tolerate a caller closing an outer span
  // early by dropping everything opened after it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == span) break;
  }
}

int Tracer::add(Span span) {
  if (!enabled_) return -1;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, LayerTime> Tracer::layer_times(const std::string& root) const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!root.empty()) {
      std::size_t top = i;  // parents always precede their children
      while (spans_[top].parent >= 0) top = static_cast<std::size_t>(spans_[top].parent);
      if (spans_[top].name != root) continue;
    }
    const double dur = s.end_us - s.start_us;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_us;  // end of the merged union so far
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, s.end_us);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    LayerTime& lt = out[s.name];
    ++lt.calls;
    lt.total_us += dur;
    lt.self_us += dur - covered;
  }
  return out;
}

double self_ms_per_call(const std::map<std::string, LayerTime>& times, const std::string& name) {
  const auto it = times.find(name);
  return it == times.end() || it->second.calls == 0
             ? 0.0
             : it->second.self_us / 1000.0 / static_cast<double>(it->second.calls);
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are the benchmark's fixed layer names; none needs escaping.
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%lld}}",
                  s.tid, s.start_us, s.end_us - s.start_us, i, s.parent,
                  static_cast<long long>(s.request));
    f << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\"," << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace e2ebench

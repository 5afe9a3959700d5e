#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace e2ebench {

namespace {

// ceil(p/100 * n) for whole p, in integers so the rank never depends on
// floating-point rounding.
std::size_t nearest_rank(int p, std::size_t n) {
  return (static_cast<std::size_t>(p) * n + 99) / 100;
}

// splitmix64: a tiny, well-mixed generator whose output is the same on
// every platform, unlike the std:: distributions.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(p >= 0.0 && p <= 100.0)) throw std::invalid_argument("percentile outside [0, 100]");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t r = std::max<std::size_t>(1, static_cast<std::size_t>(rank));
  return values[std::min(r, values.size()) - 1];
}

int tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (int p = 99; p >= 1; --p)
    if (n - nearest_rank(p, n) >= min_beyond) return p;
  return -1;
}

std::size_t samples_for_tail(int p, std::size_t min_beyond) {
  if (p < 1 || p > 99) throw std::invalid_argument("tail percentile outside [1, 99]");
  std::size_t n = min_beyond + 1;
  while (tail_percentile(n, min_beyond) < p) ++n;
  return n;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s, std::size_t count) {
  if (!(rate_per_s > 0.0)) throw std::invalid_argument("arrival rate must be positive");
  std::uint64_t state = seed;
  std::vector<double> due(count);
  double t = 0.0;
  for (double& d : due) {
    // 53 random bits -> u in (0, 1]; -ln(u) is a unit exponential.
    const double u = static_cast<double>((splitmix64(state) >> 11) + 1) * 0x1.0p-53;
    t += -std::log(u) * 1000.0 / rate_per_s;
    d = t;
  }
  return due;
}

double latency_from_due(const Request& r) { return r.done_ms - r.due_ms; }

double lateness(const Request& r) { return std::max(0.0, r.sent_ms - r.due_ms); }

double OpenLoopSummary::goodput() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(within_limit) / static_cast<double>(attempted);
}

OpenLoopSummary summarize_open_loop(const std::vector<Request>& requests, double limit_ms) {
  OpenLoopSummary s;
  s.attempted = requests.size();
  for (const Request& r : requests) {
    if (r.sent) s.lateness_ms.push_back(lateness(r));
    if (!(r.sent && r.answered && r.correct)) continue;
    ++s.correct;
    const double lat = latency_from_due(r);
    s.latencies_ms.push_back(lat);
    if (lat <= limit_ms) ++s.within_limit;
  }
  return s;
}

}  // namespace e2ebench

// The benchmark's own arithmetic: percentiles and the tail rule, the open
// loop's arrival schedule and its due-time accounting, and goodput. Kept
// free of any paragraph dependency so tests/stats_test.cpp can pin it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2ebench {

// Nearest-rank percentile: the sample at rank ceil(p/100 * n) of the
// sorted values (rank 1 for p = 0). Throws std::invalid_argument on an
// empty input or p outside [0, 100].
double percentile(std::vector<double> values, double p);

// The highest whole percentile that leaves at least `min_beyond` samples
// strictly beyond its nearest rank, i.e. the largest p with
// n - ceil(p/100 * n) >= min_beyond. -1 when n <= min_beyond.
int tail_percentile(std::size_t n, std::size_t min_beyond = 10);

// The smallest sample count whose tail_percentile is at least `p`.
std::size_t samples_for_tail(int p, std::size_t min_beyond = 10);

// Seeded Poisson arrivals: `count` due times in ms from the start of the
// phase, with exponential gaps of mean 1000 / rate_per_s. The first
// request is due after one gap, so the schedule has no burst at t = 0.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s, std::size_t count);

// One open-loop request as the generator saw it. Times are ms on one
// clock; `sent_ms`/`done_ms` are meaningful only when sent/answered.
struct Request {
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  bool sent = false;
  bool answered = false;  // a response frame came back
  bool correct = false;   // ...and it was ok and matched the reference
};

// Latency as a user sees it: from when the request was due, so a stall in
// the generator or a backlog in the server charges every request it
// delays, not only the one it stalled on.
double latency_from_due(const Request& r);
// How late the generator sent the request (0 when it was on time).
double lateness(const Request& r);

struct OpenLoopSummary {
  std::size_t attempted = 0;
  std::size_t correct = 0;
  std::size_t within_limit = 0;  // correct and latency_from_due <= limit
  std::vector<double> latencies_ms;  // of correct answers, due -> done
  std::vector<double> lateness_ms;   // of sent requests
  // Share of attempted requests answered correctly within the limit. A
  // request that failed, was refused, came back wrong, or never came back
  // counts as a miss. 0 when nothing was attempted.
  double goodput() const;
};

OpenLoopSummary summarize_open_loop(const std::vector<Request>& requests, double limit_ms);

}  // namespace e2ebench

// Unit tests for the benchmark's own arithmetic (src/stats.h, src/trace.h).
// Self-contained: the benchmark package needs no test framework. From the
// repository root, build and run it with
//   cmake -S e2ebench -B .bench_build/e2ebench
//   cmake --build .bench_build/e2ebench --target e2ebench_stats_test
//   ctest --test-dir .bench_build/e2ebench -R e2ebench_stats_test

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

void test_percentile() {
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(static_cast<double>(11 - i));  // unsorted
  CHECK(near(e2ebench::percentile(v, 50), 5.0));   // rank ceil(5) = 5
  CHECK(near(e2ebench::percentile(v, 90), 9.0));
  CHECK(near(e2ebench::percentile(v, 91), 10.0));  // rank ceil(9.1) = 10
  CHECK(near(e2ebench::percentile(v, 0), 1.0));
  CHECK(near(e2ebench::percentile(v, 100), 10.0));
  bool threw = false;
  try {
    e2ebench::percentile({}, 50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_tail_percentile() {
  // 200 samples: p95 is rank 190, leaving exactly 10 beyond; p96 leaves 8.
  CHECK(e2ebench::tail_percentile(200) == 95);
  CHECK(e2ebench::tail_percentile(100) == 90);
  CHECK(e2ebench::tail_percentile(249) == 95);
  CHECK(e2ebench::tail_percentile(250) == 96);
  CHECK(e2ebench::tail_percentile(40) == 75);
  CHECK(e2ebench::tail_percentile(10) == -1);  // nothing leaves 10 beyond
  CHECK(e2ebench::tail_percentile(11) >= 1);
  CHECK(e2ebench::samples_for_tail(95) == 200);
  CHECK(e2ebench::samples_for_tail(90) == 100);
  CHECK(e2ebench::samples_for_tail(75) == 40);
  // The chosen percentile really leaves >= 10 samples above its value.
  for (std::size_t n : {11u, 37u, 101u, 333u}) {
    const int p = e2ebench::tail_percentile(n);
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
    const double cut = e2ebench::percentile(v, p);
    std::size_t beyond = 0;
    for (double x : v) beyond += x > cut;
    CHECK(beyond >= 10);
    if (p < 99) {
      const double next = e2ebench::percentile(v, p + 1);
      std::size_t beyond_next = 0;
      for (double x : v) beyond_next += x > next;
      CHECK(beyond_next < 10);
    }
  }
}

void test_poisson_schedule() {
  const auto a = e2ebench::poisson_schedule(7, 50.0, 4000);
  const auto b = e2ebench::poisson_schedule(7, 50.0, 4000);
  const auto c = e2ebench::poisson_schedule(8, 50.0, 4000);
  CHECK(a == b);  // same seed, same schedule
  CHECK(a != c);
  CHECK(a.front() > 0.0);
  for (std::size_t i = 1; i < a.size(); ++i) CHECK(a[i] > a[i - 1]);
  // Mean gap 20 ms at 50/s; 4000 gaps put the sample mean well within 5%.
  const double mean_gap = a.back() / static_cast<double>(a.size());
  CHECK(std::fabs(mean_gap - 20.0) < 1.0);
}

void test_due_time_latency() {
  e2ebench::Request r;
  r.due_ms = 100.0;
  r.sent_ms = 130.0;  // the generator stalled 30 ms
  r.done_ms = 150.0;  // the server took 20 ms once it had it
  r.sent = r.answered = r.correct = true;
  CHECK(near(e2ebench::latency_from_due(r), 50.0));  // the stall is charged
  CHECK(near(e2ebench::lateness(r), 30.0));
  r.sent_ms = 99.5;  // early by clock granularity: not late, not negative
  CHECK(near(e2ebench::lateness(r), 0.0));
}

void test_goodput_counts_failures_as_misses() {
  std::vector<e2ebench::Request> reqs(5);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].due_ms = 10.0 * static_cast<double>(i);
    reqs[i].sent_ms = reqs[i].due_ms;
    reqs[i].done_ms = reqs[i].due_ms + 5.0;
    reqs[i].sent = reqs[i].answered = reqs[i].correct = true;
  }
  reqs[1].correct = false;    // a fast error or a wrong answer: a miss
  reqs[2].answered = false;   // never answered: a miss
  reqs[3].done_ms += 100.0;   // correct but over the limit: a miss
  const auto s = e2ebench::summarize_open_loop(reqs, 50.0);
  CHECK(s.attempted == 5);
  CHECK(s.correct == 3);
  CHECK(s.within_limit == 2);
  CHECK(near(s.goodput(), 2.0 / 5.0));
  CHECK(s.latencies_ms.size() == 3);  // latency only over correct answers
  CHECK(s.lateness_ms.size() == 5);
  CHECK(near(e2ebench::summarize_open_loop({}, 50.0).goodput(), 0.0));
}

void test_self_time() {
  e2ebench::Tracer t;
  e2ebench::Span root{"request", 0.0, 100.0, -1, 1, 0};
  const int r = t.add(root);
  t.add({"parse", 10.0, 30.0, r, 1, 0});
  t.add({"forward", 25.0, 70.0, r, 1, 0});   // overlaps parse by 5
  t.add({"forward", 90.0, 120.0, r, 1, 0});  // runs past the parent
  const auto lt = t.layer_times();
  CHECK(lt.at("request").calls == 1);
  CHECK(near(lt.at("request").total_us, 100.0));
  // Covered: [10, 70) and [90, 100) -> 70; self = 30.
  CHECK(near(lt.at("request").self_us, 30.0));
  CHECK(lt.at("forward").calls == 2);
  CHECK(near(lt.at("forward").self_us, 75.0));
  CHECK(near(lt.at("parse").self_us, 20.0));

  // Root filter: only spans under a "request" root count.
  const int setup = t.add({"setup", 200.0, 220.0, -1, -1, 0});
  t.add({"parse", 205.0, 215.0, setup, -1, 0});
  CHECK(near(t.layer_times().at("parse").self_us, 30.0));
  const auto in_request = t.layer_times("request");
  CHECK(near(in_request.at("parse").self_us, 20.0));
  CHECK(in_request.count("setup") == 0);

  e2ebench::Tracer off(false);
  CHECK(off.begin("x") == -1);
  CHECK(off.spans().empty());
}

void test_nesting() {
  e2ebench::Tracer t;
  {
    e2ebench::Scope a(t, "outer", 42);
    e2ebench::Scope b(t, "inner");
  }
  CHECK(t.spans().size() == 2);
  CHECK(t.spans()[1].parent == 0);
  CHECK(t.spans()[1].request == 42);  // inherits the request id
  CHECK(t.spans()[0].end_us >= t.spans()[1].end_us);
}

}  // namespace

int main() {
  test_percentile();
  test_tail_percentile();
  test_poisson_schedule();
  test_due_time_latency();
  test_goodput_counts_failures_as_misses();
  test_self_time();
  test_nesting();
  if (g_failures == 0) std::printf("e2ebench_stats_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}

// Parallel-runtime throughput bench: training epoch wall time and batched
// inference throughput (nets/sec, graphs/sec) across thread counts.
//
// Inference reuses one cached GraphPlan per circuit across repetitions,
// matching the batched predict/evaluate paths. Results are deterministic
// at every thread count (DESIGN.md §7), so this bench measures speed only;
// runtime_determinism_test covers the equivalence claims.
//
// Speedups depend on the host: on a single-core container every thread
// count resolves to the same core and the ratios stay ~1.0x.
//
// Output: the usual console table plus the canonical
// bench_results/BENCH_bench_throughput.json (schema paragraph-bench-v1,
// see bench_common.h) with per-epoch wall times and per-repetition
// inference throughputs as repetitions, consumed by tools/perf_diff.
// `--quick` shrinks the run for CI smoke (smoke profile, threads {1, 2}).
#include <algorithm>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/predictor.h"
#include "gnn/plan.h"
#include "runtime/thread_pool.h"
#include "util/table.h"

using namespace paragraph;

namespace {

struct Measurement {
  std::size_t threads = 0;
  double epoch_ms = 0.0;      // mean training epoch wall time
  double graphs_per_s = 0.0;  // circuits predicted per second
  double nets_per_s = 0.0;    // net predictions produced per second
};

Measurement measure(const dataset::SuiteDataset& ds, const bench::BenchProfile& profile,
                    std::size_t threads, int epochs, int reps,
                    bench::BenchReporter& reporter) {
  runtime::set_num_threads(threads);
  // Metric names carry the profile so perf_diff never compares a smoke-
  // profile run against a default-profile baseline: mismatched names are
  // neutral (kNewMetric), matching ones gate like-for-like.
  const std::string tag = "/" + profile.name + "/t" + std::to_string(threads);
  Measurement m;
  m.threads = threads;

  core::PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.scale = profile.suite_scale;
  pc.seed = profile.seed;
  pc.epochs = epochs;
  core::GnnPredictor predictor(pc);
  {
    // Each epoch's wall time is one repetition; the median is what
    // perf_diff gates on, so a single slow warm-up epoch cannot fail a PR.
    bench::Timer t;
    predictor.train(ds, [&](const core::EpochRecord& rec) {
      reporter.add_rep("train.epoch_ms" + tag, "ms", rec.wall_ms);
    });
    m.epoch_ms = t.seconds() * 1000.0 / epochs;
  }

  // Batched inference: one plan per circuit, cached across repetitions.
  std::vector<gnn::GraphPlan> plans;
  plans.reserve(ds.test.size());
  for (const auto& s : ds.test)
    plans.push_back(gnn::GraphPlan::build(s.graph, predictor.needs_homo()));

  std::size_t graphs = 0, nets = 0;
  bench::Timer total;
  for (int rep = 0; rep < reps; ++rep) {
    std::size_t rep_graphs = 0, rep_nets = 0;
    bench::Timer t;
    for (std::size_t si = 0; si < ds.test.size(); ++si) {
      const auto preds = predictor.predict_all(ds.test[si], {.plan = &plans[si]});
      ++rep_graphs;
      rep_nets += preds.size();
    }
    const double rep_secs = std::max(t.seconds(), 1e-9);
    reporter.add_rep("infer.graphs_per_s" + tag, "graphs/s",
                     static_cast<double>(rep_graphs) / rep_secs);
    reporter.add_rep("infer.nets_per_s" + tag, "nets/s",
                     static_cast<double>(rep_nets) / rep_secs);
    graphs += rep_graphs;
    nets += rep_nets;
  }
  const double secs = std::max(total.seconds(), 1e-9);
  m.graphs_per_s = static_cast<double>(graphs) / secs;
  m.nets_per_s = static_cast<double>(nets) / secs;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  auto profile = bench::BenchProfile::from_env();
  if (quick) profile = bench::BenchProfile{"smoke", 0.08, 30, 1, 42};
  profile.print_banner(quick ? "Parallel runtime throughput (quick)"
                             : "Parallel runtime throughput");

  const auto ds = bench::build_bench_dataset(profile);
  // Throughput only needs enough epochs for a stable per-epoch median.
  const int epochs = std::max(3, profile.gnn_epochs / 15);
  const int reps = (quick || profile.name == "smoke") ? 3 : 10;
  const std::vector<std::size_t> thread_counts =
      quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};

  bench::BenchReporter reporter("bench_throughput");
  std::vector<Measurement> rows;
  for (const std::size_t threads : thread_counts) {
    std::printf("measuring %zu thread%s...\n", threads, threads == 1 ? "" : "s");
    rows.push_back(measure(ds, profile, threads, epochs, reps, reporter));
  }
  runtime::set_num_threads(0);

  util::Table table({"threads", "epoch_ms", "speedup", "graphs/s", "nets/s", "inf_speedup"});
  const Measurement& base = rows.front();
  for (const auto& m : rows) {
    char epoch_buf[32], su_buf[32], gps_buf[32], nps_buf[32], isu_buf[32];
    std::snprintf(epoch_buf, sizeof(epoch_buf), "%.1f", m.epoch_ms);
    std::snprintf(su_buf, sizeof(su_buf), "%.2fx", base.epoch_ms / m.epoch_ms);
    std::snprintf(gps_buf, sizeof(gps_buf), "%.2f", m.graphs_per_s);
    std::snprintf(nps_buf, sizeof(nps_buf), "%.0f", m.nets_per_s);
    std::snprintf(isu_buf, sizeof(isu_buf), "%.2fx", m.nets_per_s / base.nets_per_s);
    table.add_row({std::to_string(m.threads), epoch_buf, su_buf, gps_buf, nps_buf, isu_buf});
  }
  table.print(std::cout);
  std::printf("\n%d training epochs per point; inference = %d passes over the %zu test "
              "circuits with cached GraphPlans.\n",
              epochs, reps, ds.test.size());
  reporter.write();
  return 0;
}

// Hierarchy-scaling bench: plan+encode cost on a hier_giant circuit with
// and without the structural plan/embedding cache (gnn/plan_cache.h).
//
// The workload is one circuitgen::build_hier_giant netlist — repeated
// .subckt templates at two levels (cells within columns) — sized by the
// bench profile: smoke stays near 2k graph nodes, default near 16k, and
// full exceeds 100k (the ISSUE's scaling target). Each repetition measures
// the full single-circuit inference path:
//
//   cache_off  GraphPlan::build on the full graph + predict_all({.plan})
//   cache_on   predict_all({.cache}): the model runs on the reduced graph
//              only, interior rows assembled from memoized embeddings
//
// The first cache_on call (reported separately as hier.warm_ms) pays the
// memoization miss; steady-state repetitions are what the gate compares.
// Predictions from both paths are compared bitwise — a mismatch fails the
// bench, so the speedup can never come from silently wrong math.
//
// Honesty notes: this container is single-core, so the win reported here
// is purely algorithmic (smaller reduced graph), not parallelism; and the
// memory metric is the matrix-allocation peak (obs::MemTracker), which
// tracks working-set pressure, not process RSS (the mmap'd model/dataset
// bytes are shared across phases).
//
// Output: console table + bench_results/BENCH_bench_hier.json (schema
// paragraph-bench-v1). `--quick` forces the smoke profile for CI.
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "circuitgen/hier.h"
#include "core/predictor.h"
#include "gnn/plan.h"
#include "gnn/plan_cache.h"
#include "obs/control.h"
#include "obs/metrics.h"
#include "util/table.h"

using namespace paragraph;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  auto profile = bench::BenchProfile::from_env();
  if (quick) profile = bench::BenchProfile{"smoke", 0.08, 30, 1, 42};
  profile.print_banner(quick ? "Hierarchy plan/embedding cache (quick)"
                             : "Hierarchy plan/embedding cache");
  // Matrix-allocation tracking and the plancache counters need the
  // instrumentation layer on.
  obs::set_enabled(true);

  const circuitgen::HierGiantSpec spec =
      circuitgen::hier_giant_spec(profile.suite_scale, profile.seed);
  bench::BenchReporter reporter("bench_hier");
  const std::string tag = "/" + profile.name;

  bench::Timer build_timer;
  circuitgen::Suite suite;
  suite.train.push_back(circuitgen::build_hier_giant(spec));
  const dataset::SuiteDataset ds =
      dataset::build_dataset_from_suite(std::move(suite), profile.seed);
  const dataset::Sample& s = ds.train[0];
  const std::size_t nodes = s.netlist.num_devices() + s.netlist.num_nets();
  std::printf("hier_giant: %d cols x %d cells x %d stages -> %zu devices, %zu nets "
              "(%zu graph nodes), %zu subckt instances; dataset build %.1f ms\n",
              spec.columns, spec.cells_per_column, spec.stages_per_cell,
              s.netlist.num_devices(), s.netlist.num_nets(), nodes,
              s.netlist.instances().size(), build_timer.seconds() * 1000.0);
  reporter.add_rep("hier.nodes" + tag, "nodes", static_cast<double>(nodes),
                   bench::BenchReporter::Better::kHigher);

  core::PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.scale = profile.suite_scale;
  pc.seed = profile.seed;
  core::GnnPredictor predictor(pc);
  // Untrained weights are fine for a timing bench (the forward pass does
  // not depend on training), but the scaler must be valid for inverse()
  // and the inputs need a fitted normaliser.
  predictor.set_scaler(core::TargetScaler::for_cap(pc.max_v_ff));
  predictor.set_normalizer(ds.normalizer);

  const int reps = profile.name == "full" ? 3 : (profile.name == "smoke" ? 3 : 5);

  // Phase 1: no cache. Every repetition plans the full graph and runs the
  // model over all of it — the cost the cache is meant to amortise.
  obs::MemTracker::instance().reset();
  std::vector<float> preds_off;
  std::vector<double> off_ms;
  for (int rep = 0; rep < reps; ++rep) {
    bench::Timer t;
    const gnn::GraphPlan plan = gnn::GraphPlan::build(s.graph, predictor.needs_homo());
    preds_off = predictor.predict_all(s, {.plan = &plan});
    off_ms.push_back(t.seconds() * 1000.0);
    reporter.add_rep("hier.plan_encode_ms" + tag + "/cache_off", "ms", off_ms.back());
  }
  const double off_peak_mb =
      static_cast<double>(obs::MemTracker::instance().peak_bytes()) / (1024.0 * 1024.0);
  reporter.add_rep("hier.matrix_peak_mb" + tag + "/cache_off", "MB", off_peak_mb,
                   bench::BenchReporter::Better::kLower);

  // Phase 2: plan cache. The warm-up call pays every memoization miss
  // (representative subgraphs, plans, interior embeddings); steady-state
  // calls run the reduced graph only. The phase peak includes the warm-up,
  // so the memory comparison is not flattered by a pre-warmed cache.
  obs::MemTracker::instance().reset();
  gnn::PlanCache cache;
  std::vector<float> preds_on;
  std::vector<double> on_ms;
  {
    bench::Timer t;
    preds_on = predictor.predict_all(s, {.cache = &cache});
    reporter.add_rep("hier.warm_ms" + tag + "/cache_on", "ms", t.seconds() * 1000.0);
  }
  for (int rep = 0; rep < reps; ++rep) {
    bench::Timer t;
    preds_on = predictor.predict_all(s, {.cache = &cache});
    on_ms.push_back(t.seconds() * 1000.0);
    reporter.add_rep("hier.plan_encode_ms" + tag + "/cache_on", "ms", on_ms.back());
  }
  const double on_peak_mb =
      static_cast<double>(obs::MemTracker::instance().peak_bytes()) / (1024.0 * 1024.0);
  reporter.add_rep("hier.matrix_peak_mb" + tag + "/cache_on", "MB", on_peak_mb,
                   bench::BenchReporter::Better::kLower);

  // The speedup is only reportable because the outputs are bitwise equal.
  if (preds_off.size() != preds_on.size()) {
    std::fprintf(stderr, "FAIL: cached prediction count %zu != plain %zu\n", preds_on.size(),
                 preds_off.size());
    return 1;
  }
  for (std::size_t i = 0; i < preds_off.size(); ++i) {
    if (std::memcmp(&preds_off[i], &preds_on[i], sizeof(float)) != 0) {
      std::fprintf(stderr, "FAIL: cached prediction %zu = %.9g differs from plain %.9g\n", i,
                   static_cast<double>(preds_on[i]), static_cast<double>(preds_off[i]));
      return 1;
    }
  }

  const double off_med = median(off_ms), on_med = median(on_ms);
  const double speedup = on_med > 0.0 ? off_med / on_med : 0.0;
  const double mem_ratio = on_peak_mb > 0.0 ? off_peak_mb / on_peak_mb : 0.0;
  reporter.add_rep("hier.speedup_x" + tag, "x", speedup,
                   bench::BenchReporter::Better::kHigher);

  auto& reg = obs::MetricsRegistry::instance();
  util::Table table({"phase", "plan_encode_ms", "matrix_peak_mb"});
  char off_t[32], on_t[32], off_m[32], on_m[32];
  std::snprintf(off_t, sizeof(off_t), "%.1f", off_med);
  std::snprintf(on_t, sizeof(on_t), "%.1f", on_med);
  std::snprintf(off_m, sizeof(off_m), "%.1f", off_peak_mb);
  std::snprintf(on_m, sizeof(on_m), "%.1f", on_peak_mb);
  table.add_row({"cache_off", off_t, off_m});
  table.add_row({"cache_on", on_t, on_m});
  table.print(std::cout);
  std::printf("\nspeedup %.2fx, matrix-peak ratio %.2fx (%zu predictions bitwise identical; "
              "plancache hits %llu, misses %llu)\n",
              speedup, mem_ratio, preds_off.size(),
              static_cast<unsigned long long>(reg.counter("plancache.hits").value()),
              static_cast<unsigned long long>(reg.counter("plancache.misses").value()));
  std::printf("single-core container: the win is algorithmic (reduced graph), not parallel; "
              "matrix peak tracks allocation working set, not RSS.\n");
  reporter.write();
  return 0;
}

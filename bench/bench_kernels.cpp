// google-benchmark micro-benchmarks for the kernels the GNN training loop
// spends its time in: GEMM, gather/scatter, segment softmax, and a full
// ParaGraph embedding forward+backward on a realistic circuit graph.
//
// Alongside the console output, every run emits the canonical
// bench_results/BENCH_bench_kernels.json (schema paragraph-bench-v1, see
// bench_common.h) consumed by tools/perf_diff; pass
// --benchmark_repetitions=N for noise-aware medians.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "circuitgen/generator.h"
#include "gnn/models.h"
#include "gnn/plan.h"
#include "nn/graph_ops.h"
#include "nn/ops.h"
#include "util/rng.h"

using namespace paragraph;

namespace {

nn::Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const nn::Matrix a = random_matrix(n, 32, 1);
  const nn::Matrix b = random_matrix(32, 32, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::gemm(a, b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * 32 * 32 * 2);
}
BENCHMARK(BM_Gemm)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_GatherScatter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t e = n * 4;
  util::Rng rng(3);
  nn::Tensor h(random_matrix(n, 32, 4), true);
  std::vector<std::int32_t> src(e), dst(e);
  for (std::size_t i = 0; i < e; ++i) {
    src[i] = static_cast<std::int32_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    dst[i] = static_cast<std::int32_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }
  for (auto _ : state) {
    nn::Tensor msg = nn::gather_rows(h, src);
    benchmark::DoNotOptimize(nn::scatter_add_rows(msg, dst, n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(e));
}
BENCHMARK(BM_GatherScatter)->Arg(1024)->Arg(16384);

void BM_SegmentSoftmax(benchmark::State& state) {
  const auto segments = static_cast<std::size_t>(state.range(0));
  const std::size_t per_segment = 6;
  nn::SegmentIndex seg;
  seg.offsets.push_back(0);
  for (std::size_t s = 0; s < segments; ++s)
    seg.offsets.push_back(seg.offsets.back() + static_cast<std::int32_t>(per_segment));
  nn::Tensor logits(random_matrix(segments * per_segment, 1, 5), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::segment_softmax(logits, seg));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(segments * per_segment));
}
BENCHMARK(BM_SegmentSoftmax)->Arg(1024)->Arg(16384);

// ---------------------------------------------- fused vs composed ops ----
// Each fused kernel benchmarked against the composed chain it replaces,
// same shapes, forward + backward (the backward is where the fused
// hand-derived gradients save tape nodes and intermediate matrices).

void BM_ScatterMeanComposed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t e = n * 4;
  util::Rng rng(21);
  nn::Tensor msg(random_matrix(e, 32, 22), true);
  std::vector<std::int32_t> dst(e);
  for (std::size_t i = 0; i < e; ++i)
    dst[i] = static_cast<std::int32_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  const std::vector<float> inv = nn::inverse_index_counts(dst, n);
  const nn::Matrix target(n, 32, 0.1f);
  for (auto _ : state) {
    nn::Tensor agg = nn::scale_rows(nn::scatter_add_rows(msg, dst, n), inv);
    nn::Tensor loss = nn::mse_loss(agg, target);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(e));
}
BENCHMARK(BM_ScatterMeanComposed)->Arg(1024)->Arg(16384);

void BM_ScatterMeanFused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t e = n * 4;
  util::Rng rng(21);
  nn::Tensor msg(random_matrix(e, 32, 22), true);
  std::vector<std::int32_t> dst(e);
  for (std::size_t i = 0; i < e; ++i)
    dst[i] = static_cast<std::int32_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  const auto idx = nn::make_index(dst);
  const auto inv = nn::make_coeffs(nn::inverse_index_counts(dst, n));
  const nn::Matrix target(n, 32, 0.1f);
  for (auto _ : state) {
    nn::Tensor agg = nn::scatter_mean_rows(msg, idx, inv, n);
    nn::Tensor loss = nn::mse_loss(agg, target);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(e));
}
BENCHMARK(BM_ScatterMeanFused)->Arg(1024)->Arg(16384);

// One GAT-style attention block: 6 incoming edges per destination, with
// node-level messages read through the source index.
struct AttentionBench {
  std::size_t n, e;
  nn::Tensor el, er, msg;
  std::vector<std::int32_t> src, dst;
  nn::SegmentIndex seg;
  AttentionBench(std::size_t nodes, std::uint64_t seed) : n(nodes), e(nodes * 6) {
    util::Rng rng(seed);
    el = nn::Tensor(random_matrix(n, 1, seed + 1), true);
    er = nn::Tensor(random_matrix(n, 1, seed + 2), true);
    msg = nn::Tensor(random_matrix(n, 32, seed + 3), true);
    seg.offsets.push_back(0);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t k = 0; k < 6; ++k) {
        dst.push_back(static_cast<std::int32_t>(s));
        src.push_back(
            static_cast<std::int32_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
      }
      seg.offsets.push_back(static_cast<std::int32_t>(dst.size()));
    }
  }
};

void BM_EdgeAttentionComposed(benchmark::State& state) {
  AttentionBench b(static_cast<std::size_t>(state.range(0)), 31);
  const nn::Matrix target(b.n, 32, 0.1f);
  for (auto _ : state) {
    nn::Tensor logits =
        nn::add(nn::gather_rows(b.el, b.dst), nn::gather_rows(b.er, b.src));
    nn::Tensor alpha = nn::segment_softmax(nn::leaky_relu(logits), b.seg);
    nn::Tensor agg = nn::scatter_add_rows(
        nn::scale_rows_by(nn::gather_rows(b.msg, b.src), alpha), b.dst, b.n);
    nn::Tensor loss = nn::mse_loss(agg, target);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(b.e));
}
BENCHMARK(BM_EdgeAttentionComposed)->Arg(1024)->Arg(16384);

void BM_EdgeAttentionFused(benchmark::State& state) {
  AttentionBench b(static_cast<std::size_t>(state.range(0)), 31);
  const auto eli = nn::make_index(b.dst);
  const auto eri = nn::make_index(b.src);
  const auto di = nn::make_index(b.dst);
  const auto seg = nn::make_segments(b.seg);
  const nn::Matrix target(b.n, 32, 0.1f);
  for (auto _ : state) {
    nn::Tensor agg = nn::edge_attention(b.el, b.er, b.msg, eli, eri, di, seg, b.n);
    nn::Tensor loss = nn::mse_loss(agg, target);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(b.e));
}
BENCHMARK(BM_EdgeAttentionFused)->Arg(1024)->Arg(16384);

// ParaGraph forward + backward on a generated circuit, with the GraphPlan
// built once outside the loop, the way the trainer runs.
void BM_ParaGraphPlanned(benchmark::State& state) {
  circuitgen::CircuitSpec spec;
  spec.name = "bench";
  spec.seed = 9;
  spec.glue_gates = static_cast<int>(state.range(0));
  spec.dffs = static_cast<int>(state.range(0) / 8);
  spec.opamps = 2;
  const auto nl = circuitgen::generate_circuit(spec);
  const auto g = graph::build_graph(nl);
  util::Rng rng(11);
  auto model = gnn::make_model(gnn::ModelKind::kParaGraph, 32, 5, rng);
  const gnn::GraphPlan plan = gnn::GraphPlan::build(g);
  gnn::GraphBatch batch;
  batch.plan = &plan;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const auto nt = static_cast<graph::NodeType>(t);
    if (g.num_nodes(nt) == 0) continue;
    batch.features[t] = nn::Tensor(g.features(nt));
  }
  const std::size_t n_nets = g.num_nodes(graph::NodeType::kNet);
  const nn::Matrix target(n_nets, 1, 0.5f);
  nn::Linear head(32, 1, rng);
  for (auto _ : state) {
    const auto emb = model->embed(batch);
    nn::Tensor pred = head.forward(emb[static_cast<std::size_t>(graph::NodeType::kNet)]);
    nn::Tensor loss = nn::mse_loss(pred, target);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.counters["nodes"] = static_cast<double>(g.total_nodes());
  state.counters["edges"] = static_cast<double>(g.total_edges());
}
BENCHMARK(BM_ParaGraphPlanned)->Arg(40)->Arg(160)->Unit(benchmark::kMillisecond);

// Forwards every per-repetition run to the console reporter unchanged and
// mirrors it into the canonical bench JSON (aggregate rows are skipped —
// perf_diff computes its own median over the reps).
class ProtocolReporter : public benchmark::ConsoleReporter {
 public:
  explicit ProtocolReporter(bench::BenchReporter& out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      out_.add_rep(run.benchmark_name(), benchmark::GetTimeUnitString(run.time_unit),
                   run.GetAdjustedRealTime());
    }
  }

 private:
  bench::BenchReporter& out_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchReporter reporter("bench_kernels");
  ProtocolReporter display(reporter);
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();
  if (!reporter.empty()) reporter.write();
  return 0;
}

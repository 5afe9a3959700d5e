// Component ablation of ParaGraph's three ingredients (DESIGN.md §4):
//   - per-edge-type weights/aggregation (RGCN idea),
//   - self-attention inside each edge-type group (GAT idea),
//   - concat(self, aggregated) update (GraphSage idea).
// Each variant removes exactly one ingredient from Algorithm 1.
#include <iostream>

#include "bench_common.h"
#include "core/predictor.h"
#include "util/table.h"

using namespace paragraph;

int main() {
  const auto profile = bench::BenchProfile::from_env();
  profile.print_banner("Ablation: ParaGraph components");
  const auto ds = bench::build_bench_dataset(profile);

  const std::vector<std::pair<gnn::ModelKind, const char*>> variants = {
      {gnn::ModelKind::kParaGraph, "ParaGraph (full)"},
      {gnn::ModelKind::kParaGraphNoAttention, "- attention (mean agg)"},
      {gnn::ModelKind::kParaGraphNoEdgeTypes, "- edge types (shared W)"},
      {gnn::ModelKind::kParaGraphNoConcat, "- self concat"},
  };

  for (const auto target : {dataset::TargetKind::kCap, dataset::TargetKind::kSourceArea}) {
    util::Table table({"variant", "R2", "MAE", "MAPE [%]", "params"});
    for (const auto& [kind, label] : variants) {
      double r2 = 0.0, mae = 0.0, mape = 0.0;
      std::size_t params = 0;
      for (int run = 0; run < profile.runs; ++run) {
        core::PredictorConfig pc;
        pc.model = kind;
        pc.target = target;
        pc.max_v_ff = 10.0;
        pc.epochs = profile.gnn_epochs;
        pc.seed = profile.seed + static_cast<std::uint64_t>(run) * 31;
        core::GnnPredictor p(pc);
        p.train(ds);
        params = p.num_parameters();
        const auto m = p.evaluate(ds.test).pooled();
        r2 += m.r2;
        mae += m.mae;
        mape += m.mape;
      }
      table.add_row({label, util::format("%.3f", r2 / profile.runs),
                     util::format("%.4f", mae / profile.runs),
                     util::format("%.1f", mape / profile.runs), std::to_string(params)});
      std::printf("  %s / %s done\n", dataset::target_name(target), label);
      std::fflush(stdout);
    }
    std::printf("\ntarget %s:\n", dataset::target_name(target));
    table.print(std::cout);
    std::printf("\n");
  }
  return 0;
}

// Extension bench: multi-head attention in ParaGraph.
//
// Section V: "Both GAT and ParaGraph models can potentially use more than
// one attention head, however we are limited by GPU memory to only use one
// attention head on our dataset. We expect more attention heads would lead
// to even better results." This bench tests that conjecture on the
// synthetic suite with 1, 2 and 4 heads per edge-type group.
#include <iostream>

#include "bench_common.h"
#include "core/predictor.h"
#include "util/table.h"

using namespace paragraph;

int main() {
  const auto profile = bench::BenchProfile::from_env();
  profile.print_banner("Extension: ParaGraph attention heads");
  const auto ds = bench::build_bench_dataset(profile);

  for (const auto target : {dataset::TargetKind::kCap, dataset::TargetKind::kSourceArea}) {
    util::Table table({"heads", "R2", "MAE", "MAPE [%]", "params", "train s"});
    for (const std::size_t heads : {1u, 2u, 4u}) {
      double r2 = 0.0, mae = 0.0, mape = 0.0, secs = 0.0;
      std::size_t params = 0;
      for (int run = 0; run < profile.runs; ++run) {
        core::PredictorConfig pc;
        pc.target = target;
        pc.max_v_ff = 10.0;
        pc.attention_heads = heads;
        pc.epochs = profile.gnn_epochs;
        pc.seed = profile.seed + static_cast<std::uint64_t>(run) * 13;
        core::GnnPredictor p(pc);
        bench::Timer t;
        p.train(ds);
        secs += t.seconds();
        params = p.num_parameters();
        const auto m = p.evaluate(ds.test).pooled();
        r2 += m.r2;
        mae += m.mae;
        mape += m.mape;
      }
      table.add_row(std::to_string(heads),
                    {r2 / profile.runs, mae / profile.runs, mape / profile.runs,
                     static_cast<double>(params), secs / profile.runs},
                    3);
      std::printf("  %s heads=%zu done\n", dataset::target_name(target), heads);
      std::fflush(stdout);
    }
    std::printf("\ntarget %s:\n", dataset::target_name(target));
    table.print(std::cout);
    std::printf("\n");
  }
  return 0;
}

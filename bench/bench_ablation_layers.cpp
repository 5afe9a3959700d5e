// Reproduces the paper's layer-count sweep (Section V): "We swept the
// number of layers and found a higher number of layers gives better
// results and plateaus at 5."
#include <iostream>

#include "bench_common.h"
#include "core/predictor.h"
#include "util/table.h"

using namespace paragraph;

int main() {
  const auto profile = bench::BenchProfile::from_env();
  profile.print_banner("Ablation: embedding layer count (paper: plateau at L = 5)");
  const auto ds = bench::build_bench_dataset(profile);

  util::Table table({"layers", "CAP R2", "CAP MAE [fF]", "CAP MAPE [%]", "train s"});
  const int max_layers = profile.name == "smoke" ? 3 : 6;
  for (int layers = 1; layers <= max_layers; ++layers) {
    double r2 = 0.0, mae = 0.0, mape = 0.0, secs = 0.0;
    for (int run = 0; run < profile.runs; ++run) {
      core::PredictorConfig pc;
      pc.target = dataset::TargetKind::kCap;
      pc.max_v_ff = 10.0;
      pc.num_layers = static_cast<std::size_t>(layers);
      pc.epochs = profile.gnn_epochs;
      pc.seed = profile.seed + static_cast<std::uint64_t>(run) * 97;
      core::GnnPredictor p(pc);
      bench::Timer t;
      p.train(ds);
      secs += t.seconds();
      const auto m = p.evaluate(ds.test).pooled();
      r2 += m.r2;
      mae += m.mae;
      mape += m.mape;
    }
    table.add_row(std::to_string(layers),
                  {r2 / profile.runs, mae / profile.runs, mape / profile.runs,
                   secs / profile.runs},
                  3);
    std::printf("  L=%d done\n", layers);
    std::fflush(stdout);
  }
  std::printf("\nParaGraph CAP accuracy vs embedding depth:\n");
  table.print(std::cout);
  return 0;
}

// Reproduces Fig 8: t-SNE of the net-node embeddings of the CAP model
// (max_v = 10 fF) on each testing circuit, coloured by log10 of the ground
// truth.
//
// The paper's reading is qualitative ("data points with different colors
// are well separated"); we quantify it with the leave-one-out kNN
// regression R^2 of log10(cap) in the 2-D embedding (1.0 = perfectly
// separated colour bands), and dump per-circuit CSVs for plotting.
#include <cmath>
#include <fstream>
#include <iostream>

#include "analysis/tsne.h"
#include "bench_common.h"
#include "core/predictor.h"
#include "util/strings.h"
#include "util/table.h"

using namespace paragraph;

int main() {
  const auto profile = bench::BenchProfile::from_env();
  profile.print_banner("Fig 8: t-SNE of net embeddings");
  const auto ds = bench::build_bench_dataset(profile);

  std::printf("training ParaGraph CAP model (max_v = 10 fF)...\n");
  core::PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.max_v_ff = 10.0;
  pc.epochs = profile.gnn_epochs;
  pc.seed = profile.seed;
  core::GnnPredictor predictor(pc);
  predictor.train(ds);

  util::Table table({"circuit", "#nets", "tsne points", "kNN R2 (2-D tsne)",
                     "kNN R2 (32-D emb)", "csv"});
  for (const auto& s : ds.test) {
    const nn::Matrix emb = predictor.embeddings(s, graph::NodeType::kNet);
    const auto& truth = s.target_values(dataset::TargetKind::kCap);

    // Cap the point count so the exact O(N^2) t-SNE stays fast.
    const std::size_t max_points = profile.name == "full" ? 2000 : 600;
    const std::size_t n = std::min(emb.rows(), max_points);
    nn::Matrix x(n, emb.cols());
    std::vector<float> log_cap(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < emb.cols(); ++c) x(i, c) = emb(i, c);
      log_cap[i] = std::log10(std::max(truth[i], 1e-3f));
    }
    if (n < 16) {
      table.add_row({s.name, std::to_string(truth.size()), std::to_string(n), "(too few)",
                     "(too few)", "-"});
      continue;
    }
    analysis::TsneConfig cfg;
    cfg.iterations = profile.name == "smoke" ? 120 : 400;
    cfg.seed = profile.seed;
    const nn::Matrix y = analysis::tsne(x, cfg);
    const int k = std::min<int>(10, static_cast<int>(n) / 4);
    const double score = analysis::knn_separation_score(y, log_cap, k);
    const double raw_score = analysis::knn_separation_score(x, log_cap, k);

    const std::string csv_name = "fig8_tsne_" + s.name + ".csv";
    std::ofstream csv(csv_name);
    csv << "x,y,log10_cap_ff\n";
    for (std::size_t i = 0; i < n; ++i)
      csv << y(i, 0) << "," << y(i, 1) << "," << log_cap[i] << "\n";
    table.add_row({s.name, std::to_string(truth.size()), std::to_string(n),
                   util::format("%.3f", score), util::format("%.3f", raw_score), csv_name});
  }
  std::printf("\nFig 8 separation scores (well-separated colours => score near 1):\n");
  table.print(std::cout);
  return 0;
}

// Reproduces Fig 7: ParaGraph prediction vs ground truth for the net
// parasitic capacitance (ensemble), two LDE parameters (LDE1, LDE5) and
// the source diffusion area (SA).
//
// The paper's qualitative finding: CAP and SA track the diagonal tightly
// (MAPE 15.0% / 10.3%) while the LDE parameters scatter (MAPE > 100%,
// attributed to inherent layout uncertainty). The bench reports MAPE and
// log-space correlation per target, dumps a scatter CSV per target for
// plotting, and emits the per-target summary metrics (MAPE/MAE/R²/pearson)
// through the paragraph-bench-v1 reporter so perf_diff can track
// model-quality movements the same way it tracks runtime.
#include <cmath>
#include <fstream>
#include <iostream>

#include "bench_common.h"
#include "core/ensemble.h"
#include "core/predictor.h"
#include "util/stats.h"
#include "util/table.h"

using namespace paragraph;

int main() {
  const auto profile = bench::BenchProfile::from_env();
  profile.print_banner("Fig 7: prediction vs ground truth");
  const auto ds = bench::build_bench_dataset(profile);

  util::Table table({"target", "MAPE [%]", "MAE", "R2", "log-log pearson", "n"});
  bench::BenchReporter reporter("bench_fig7_pred_vs_truth");

  auto report = [&table, &reporter](const char* name, const std::vector<float>& truth,
                                    const std::vector<float>& pred) {
    double mape = 0.0, mae = 0.0;
    std::vector<double> lt, lp;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      mape += std::abs(pred[i] - truth[i]) / std::max(std::abs(truth[i]), 1e-6f);
      mae += std::abs(pred[i] - truth[i]);
      lt.push_back(std::log10(std::max(truth[i], 1e-3f)));
      lp.push_back(std::log10(std::max(pred[i], 1e-3f)));
    }
    const double mape_pct = 100.0 * mape / static_cast<double>(truth.size());
    const double mean_ae = mae / static_cast<double>(truth.size());
    const double r2 = eval::r_squared(truth, pred);
    const double corr = util::pearson(lt, lp);
    table.add_row({name, util::format("%.1f", mape_pct), util::format("%.3f", mean_ae),
                   util::format("%.3f", r2), util::format("%.3f", corr),
                   std::to_string(truth.size())});
    const std::string prefix = std::string(name) + ".";
    reporter.add_rep(prefix + "mape", "%", mape_pct);
    reporter.add_rep(prefix + "mae", "abs", mean_ae);
    reporter.add_rep(prefix + "r2", "score", r2, bench::BenchReporter::Better::kHigher);
    reporter.add_rep(prefix + "loglog_pearson", "score", corr,
                     bench::BenchReporter::Better::kHigher);
    std::ofstream csv(std::string("fig7_") + name + ".csv");
    csv << "truth,pred\n";
    for (std::size_t i = 0; i < truth.size(); ++i)
      csv << truth[i] << "," << pred[i] << "\n";
  };

  // ---- CAP via the ensemble (Fig 7's capacitance panel uses it) ----
  {
    std::printf("training CAP ensemble...\n");
    core::EnsembleConfig cfg;
    cfg.max_vs_ff = {1.0, 10.0, 100.0, 1e4};
    cfg.base.epochs = profile.gnn_epochs;
    cfg.base.seed = profile.seed;
    core::CapEnsemble ens(cfg);
    ens.train(ds);
    std::vector<float> truth, pred;
    for (const auto& s : ds.test) {
      const auto& t = s.target_values(dataset::TargetKind::kCap);
      truth.insert(truth.end(), t.begin(), t.end());
      const auto p = ens.predict(s);
      pred.insert(pred.end(), p.begin(), p.end());
    }
    report("CAP", truth, pred);
  }

  // ---- device parameters with per-target ParaGraph models ----
  for (const auto target : {dataset::TargetKind::kLde1, dataset::TargetKind::kLde5,
                            dataset::TargetKind::kSourceArea}) {
    std::printf("training ParaGraph %s model...\n", dataset::target_name(target));
    core::PredictorConfig pc;
    pc.target = target;
    pc.epochs = profile.gnn_epochs;
    pc.seed = profile.seed;
    core::GnnPredictor p(pc);
    p.train(ds);
    std::vector<float> truth, pred;
    for (const auto& s : ds.test) {
      const auto all = p.predict_all(s);
      std::size_t k = 0;
      for (std::size_t slot = 0; slot < dataset::target_node_types(target).size(); ++slot) {
        const auto& t = s.target_values(target, slot);
        for (const float tv : t) {
          truth.push_back(tv);
          pred.push_back(all[k++]);
        }
      }
    }
    report(dataset::target_name(target), truth, pred);
  }

  std::printf("\nFig 7 summary (paper: CAP MAPE 15.0%%, SA MAPE 10.3%%, LDE MAPEs > 100%%):\n");
  table.print(std::cout);
  std::printf("\nscatter data written to fig7_<target>.csv\n");
  reporter.write();
  return 0;
}

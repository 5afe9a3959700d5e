// Reproduces Fig 5 (capacitance prediction with models trained at
// different max_v) and the Section IV ensemble numbers.
//
// The paper shows scatter plots; a terminal bench reports the same
// information numerically: per-decade MAPE and log-space correlation for
// each single-max_v model, demonstrating that the wide-range model loses
// accuracy below ~1% of its max_v, and that Algorithm 2's ensemble is
// accurate over the whole range (paper: ensemble MAE 0.852 fF,
// MAPE 15.0%).
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/ensemble.h"
#include "util/stats.h"
#include "util/table.h"

using namespace paragraph;

int main() {
  const auto profile = bench::BenchProfile::from_env();
  profile.print_banner("Fig 5 + Section IV: max_v sweep and ensemble");
  const auto ds = bench::build_bench_dataset(profile);

  core::EnsembleConfig cfg;
  cfg.max_vs_ff = {1.0, 10.0, 100.0, 1e4};
  cfg.base.epochs = profile.gnn_epochs;
  cfg.base.seed = profile.seed;
  std::printf("training 4 CAP models (max_v = 1 fF, 10 fF, 100 fF, 10 pF)...\n");
  bench::Timer t;
  core::CapEnsemble ensemble(cfg);
  ensemble.train(ds);
  std::printf("trained in %.0fs\n\n", t.seconds());

  // Pool predictions over all test nets.
  std::vector<float> truth;
  std::vector<std::vector<float>> single(cfg.max_vs_ff.size());
  std::vector<float> combined;
  for (const auto& s : ds.test) {
    const auto& tv = s.target_values(dataset::TargetKind::kCap);
    truth.insert(truth.end(), tv.begin(), tv.end());
    const auto e = ensemble.predict(s);
    combined.insert(combined.end(), e.begin(), e.end());
    for (std::size_t m = 0; m < single.size(); ++m) {
      const auto p = ensemble.model(m).predict_all(s);
      single[m].insert(single[m].end(), p.begin(), p.end());
    }
  }

  // Fig 5 analogue: per-decade MAPE for each single model.
  util::Table fig5({"truth decade", "n", "1fF (5d)", "10fF (5c)", "100fF (5b)", "10pF (5a)",
                    "ensemble (7a)"});
  for (int dec = -2; dec <= 3; ++dec) {
    std::size_t n = 0;
    std::vector<double> mape(single.size() + 1, 0.0);
    for (std::size_t i = 0; i < truth.size(); ++i) {
      const int d = std::clamp(static_cast<int>(std::floor(std::log10(truth[i]))), -2, 3);
      if (d != dec) continue;
      ++n;
      for (std::size_t m = 0; m < single.size(); ++m)
        mape[m] += std::abs(single[m][i] - truth[i]) / truth[i];
      mape.back() += std::abs(combined[i] - truth[i]) / truth[i];
    }
    if (n == 0) continue;
    std::vector<std::string> row = {util::format("1e%+d fF", dec), std::to_string(n)};
    for (const double m : mape) row.push_back(util::format("%.0f%%", 100.0 * m / n));
    fig5.add_row(std::move(row));
  }
  std::printf("MAPE by capacitance decade (x-axis of the Fig 5 scatter plots):\n");
  fig5.print(std::cout);

  // Log-space correlation: "how diagonal is the scatter plot".
  util::Table corr({"model", "log-log pearson", "MAE [fF]", "MAPE [%]"});
  auto log_corr = [&](const std::vector<float>& pred) {
    std::vector<double> lt, lp;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      lt.push_back(std::log10(std::max(truth[i], 1e-3f)));
      lp.push_back(std::log10(std::max(pred[i], 1e-3f)));
    }
    return util::pearson(lt, lp);
  };
  auto mae_of = [&](const std::vector<float>& pred) {
    double s = 0;
    for (std::size_t i = 0; i < truth.size(); ++i) s += std::abs(pred[i] - truth[i]);
    return s / truth.size();
  };
  auto mape_of = [&](const std::vector<float>& pred) {
    double s = 0;
    for (std::size_t i = 0; i < truth.size(); ++i)
      s += std::abs(pred[i] - truth[i]) / truth[i];
    return 100.0 * s / truth.size();
  };
  const char* names[] = {"1fF model", "10fF model", "100fF model", "10pF model"};
  for (std::size_t m = 0; m < single.size(); ++m)
    corr.add_row(names[m], {log_corr(single[m]), mae_of(single[m]), mape_of(single[m])}, 3);
  corr.add_row("ensemble (Alg 2)", {log_corr(combined), mae_of(combined), mape_of(combined)},
               3);
  std::printf("\nfull-range accuracy (paper §IV: ensemble MAE 0.852 fF, MAPE 15.0%%):\n");
  corr.print(std::cout);
  return 0;
}

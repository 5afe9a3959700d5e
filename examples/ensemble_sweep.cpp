// Ensemble modeling demo (paper Section IV): trains capacitance models
// with different max prediction values and shows how Algorithm 2 combines
// them, reporting accuracy per capacitance decade.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/ensemble.h"
#include "core/intervals.h"
#include "util/strings.h"
#include "util/table.h"

using namespace paragraph;

int main() {
  std::printf("building dataset...\n");
  const dataset::SuiteDataset ds = dataset::build_dataset(42, 0.12);

  core::EnsembleConfig cfg;
  cfg.max_vs_ff = {1.0, 10.0, 100.0, 1e4};  // paper: 1 fF, 10 fF, 100 fF, 10 pF
  cfg.base.epochs = 70;
  cfg.base.num_layers = 4;
  std::printf("training %zu capacitance models (max_v = 1 fF .. 10 pF)...\n",
              cfg.max_vs_ff.size());
  core::CapEnsemble ensemble(cfg);
  ensemble.train(ds);

  // Collect truth and per-model predictions over all test nets.
  std::vector<float> truth;
  std::vector<std::vector<float>> single(cfg.max_vs_ff.size());
  std::vector<float> combined;
  for (const auto& s : ds.test) {
    const auto& t = s.target_values(dataset::TargetKind::kCap);
    truth.insert(truth.end(), t.begin(), t.end());
    const auto ens = ensemble.predict(s);
    combined.insert(combined.end(), ens.begin(), ens.end());
    for (std::size_t m = 0; m < single.size(); ++m) {
      const auto p = ensemble.model(m).predict_all(s);
      single[m].insert(single[m].end(), p.begin(), p.end());
    }
  }

  // Per-decade MAPE.
  auto decade_of = [](float v) {
    return std::clamp(static_cast<int>(std::floor(std::log10(v))), -2, 2);
  };
  util::Table table({"decade", "n", "1fF model", "10fF model", "100fF model", "10pF model",
                     "ensemble"});
  for (int dec = -2; dec <= 2; ++dec) {
    std::vector<double> mape(single.size() + 1, 0.0);
    std::size_t n = 0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      if (decade_of(truth[i]) != dec) continue;
      ++n;
      for (std::size_t m = 0; m < single.size(); ++m)
        mape[m] += std::abs(single[m][i] - truth[i]) / truth[i];
      mape.back() += std::abs(combined[i] - truth[i]) / truth[i];
    }
    if (n == 0) continue;
    std::vector<std::string> row = {util::format("1e%d fF", dec), std::to_string(n)};
    for (double m : mape) row.push_back(util::format("%.1f%%", 100.0 * m / n));
    table.add_row(std::move(row));
  }
  std::printf("\nMAPE per capacitance decade (Algorithm 2 vs single models):\n");
  table.print(std::cout);

  double mae = 0.0, mape = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    mae += std::abs(combined[i] - truth[i]);
    mape += std::abs(combined[i] - truth[i]) / truth[i];
  }
  std::printf("\nensemble over full range: MAE = %.3f fF, MAPE = %.1f%% (%zu nets)\n",
              mae / truth.size(), 100.0 * mape / truth.size(), truth.size());

  // ---- conformal guard-bands: calibrate on e1/e2, check coverage on e3/e4 ----
  std::vector<float> cal_t, cal_p, hold_t, hold_p;
  std::size_t offset = 0;
  for (std::size_t c = 0; c < ds.test.size(); ++c) {
    const std::size_t n = ds.test[c].target_values(dataset::TargetKind::kCap).size();
    auto& t = c < 2 ? cal_t : hold_t;
    auto& p = c < 2 ? cal_p : hold_p;
    t.insert(t.end(), truth.begin() + static_cast<long>(offset),
             truth.begin() + static_cast<long>(offset + n));
    p.insert(p.end(), combined.begin() + static_cast<long>(offset),
             combined.begin() + static_cast<long>(offset + n));
    offset += n;
  }
  core::ConformalCalibrator cal;
  cal.calibrate(cal_t, cal_p, 0.9);
  std::printf("\nconformal 90%% guard-bands (calibrated on e1/e2):\n");
  for (const float p : {0.5f, 5.0f, 50.0f})
    std::printf("  prediction %5.1f fF -> +/- %.2f fF\n", p, cal.half_width(p));
  std::printf("  held-out coverage on e3/e4: %.0f%%\n",
              100.0 * cal.empirical_coverage(hold_t, hold_p));
  return 0;
}

// Reproduces Table V: simulation errors between pre-layout predictions and
// post-layout on the circuit metrics of the testing circuits.
//
// Four annotation sources are compared against the post-layout reference:
//   1. layout netlist without parasitics,
//   2. the designer's estimation (rule of thumb with designer-to-designer
//      variability),
//   3. predictions from the XGBoost baseline,
//   4. predictions from ParaGraph (CAP ensemble + SA/DA/LDE1/LDE2 models).
// Metrics (stage delays, slews, total power, Elmore paths) are computed by
// the MNA simulator on the linearised circuits; the paper reports 67
// metrics, our deterministic extraction yields a comparable count.
#include <cmath>
#include <iostream>
#include <map>
#include <memory>

#include "bench_common.h"
#include "core/ensemble.h"
#include "core/learners.h"
#include "sim/metrics.h"
#include "util/table.h"

using namespace paragraph;

namespace {

struct DeviceParamPreds {
  std::vector<float> sa, da, lde1, lde2;
};

template <typename PredictFn>
DeviceParamPreds collect_device_preds(PredictFn&& predict, const dataset::Sample& s) {
  DeviceParamPreds out;
  out.sa = predict(dataset::TargetKind::kSourceArea, s);
  out.da = predict(dataset::TargetKind::kDrainArea, s);
  out.lde1 = predict(dataset::TargetKind::kLde1, s);
  out.lde2 = predict(dataset::TargetKind::kLde2, s);
  return out;
}

}  // namespace

int main() {
  const auto profile = bench::BenchProfile::from_env();
  profile.print_banner("Table V: simulation errors on circuit metrics");
  const auto ds = bench::build_bench_dataset(profile);
  const auto& tech = layout::default_tech();

  // ---- train the ParaGraph predictors ----
  std::printf("training ParaGraph CAP ensemble...\n");
  core::EnsembleConfig ens_cfg;
  ens_cfg.max_vs_ff = {1.0, 10.0, 100.0, 1e4};
  ens_cfg.base.epochs = profile.gnn_epochs;
  ens_cfg.base.seed = profile.seed;
  core::CapEnsemble pg_cap(ens_cfg);
  bench::Timer t1;
  pg_cap.train(ds);
  std::printf("  done [%.0fs]\n", t1.seconds());

  std::map<dataset::TargetKind, std::unique_ptr<core::GnnPredictor>> pg_dev;
  for (const auto target : {dataset::TargetKind::kSourceArea, dataset::TargetKind::kDrainArea,
                            dataset::TargetKind::kLde1, dataset::TargetKind::kLde2,
                            dataset::TargetKind::kRes}) {
    std::printf("training ParaGraph %s model...\n", dataset::target_name(target));
    core::PredictorConfig pc;
    pc.target = target;
    pc.epochs = profile.gnn_epochs;
    pc.seed = profile.seed;
    pg_dev[target] = std::make_unique<core::GnnPredictor>(pc);
    pg_dev[target]->train(ds);
  }

  // ---- train the XGBoost predictors ----
  std::printf("training XGBoost predictors...\n");
  core::ClassicalPredictor xgb_cap(core::LearnerKind::kXgb, dataset::TargetKind::kCap, 1e7);
  xgb_cap.fit(ds);
  std::map<dataset::TargetKind, std::unique_ptr<core::ClassicalPredictor>> xgb_dev;
  for (const auto target : {dataset::TargetKind::kSourceArea, dataset::TargetKind::kDrainArea,
                            dataset::TargetKind::kLde1, dataset::TargetKind::kLde2,
                            dataset::TargetKind::kRes}) {
    xgb_dev[target] =
        std::make_unique<core::ClassicalPredictor>(core::LearnerKind::kXgb, target);
    xgb_dev[target]->fit(ds);
  }

  // ---- evaluate metrics per test circuit, per source ----
  // 4 stage nets x (delay, slew, tree-Elmore) + 2 bandwidths + power + up
  // to 2 resistor-path Elmore metrics per circuit: ~17 x 4 circuits, close
  // to the paper's 67 metrics.
  sim::MetricOptions mopts;
  mopts.max_stage_nets = 4;
  mopts.max_bw_nets = 2;
  mopts.max_elmore_paths = 2;

  std::vector<double> err_none, err_designer, err_xgb, err_pg;
  std::size_t metric_count = 0;
  for (std::size_t ci = 0; ci < ds.test.size(); ++ci) {
    const auto& s = ds.test[ci];
    const auto truth_ann = sim::ground_truth_annotation(s.netlist, tech);
    const auto none_ann = sim::no_parasitics_annotation(s.netlist, tech);
    const auto designer_ann = sim::designer_annotation(s.netlist, tech, profile.seed + ci);

    const auto pg_preds = collect_device_preds(
        [&](dataset::TargetKind t, const dataset::Sample& smp) {
          return pg_dev[t]->predict_all(smp);
        },
        s);
    const auto pg_ann = sim::make_predicted_annotation(
        s.netlist, s.graph, tech, "ParaGraph", pg_cap.predict(s), pg_preds.sa, pg_preds.da,
        pg_preds.lde1, pg_preds.lde2,
        pg_dev[dataset::TargetKind::kRes]->predict_all(s));

    const auto xgb_preds = collect_device_preds(
        [&](dataset::TargetKind t, const dataset::Sample& smp) {
          return xgb_dev[t]->predict_all(smp);
        },
        s);
    const auto xgb_ann = sim::make_predicted_annotation(
        s.netlist, s.graph, tech, "XGB", xgb_cap.predict_all(s), xgb_preds.sa, xgb_preds.da,
        xgb_preds.lde1, xgb_preds.lde2,
        xgb_dev[dataset::TargetKind::kRes]->predict_all(s));

    const auto m_ref = sim::evaluate_metrics(s.netlist, truth_ann, tech, mopts);
    const auto m_none = sim::evaluate_metrics(s.netlist, none_ann, tech, mopts);
    const auto m_designer = sim::evaluate_metrics(s.netlist, designer_ann, tech, mopts);
    const auto m_xgb = sim::evaluate_metrics(s.netlist, xgb_ann, tech, mopts);
    const auto m_pg = sim::evaluate_metrics(s.netlist, pg_ann, tech, mopts);

    for (std::size_t i = 0; i < m_ref.size(); ++i) {
      const double ref = m_ref[i].value;
      if (ref <= 0.0) continue;
      ++metric_count;
      err_none.push_back((m_none[i].value - ref) / ref);
      err_designer.push_back((m_designer[i].value - ref) / ref);
      err_xgb.push_back((m_xgb[i].value - ref) / ref);
      err_pg.push_back((m_pg[i].value - ref) / ref);
    }
    std::printf("  %s: %zu metrics\n", s.name.c_str(), m_ref.size());
  }

  const auto h_none = eval::error_histogram(err_none);
  const auto h_designer = eval::error_histogram(err_designer);
  const auto h_xgb = eval::error_histogram(err_xgb);
  const auto h_pg = eval::error_histogram(err_pg);

  util::Table table({"Error Range", "Layout w/o parasitics", "Designer's Estimation",
                     "Prediction w/ XGB", "Prediction w/ ParaGraph"});
  const char* bins[] = {"< 10%", "10%-20%", "20%-30%", "30%-40%", "40%-50%", "> 50%"};
  for (std::size_t b = 0; b < 6; ++b) {
    table.add_row({bins[b], std::to_string(h_none.bins[b]), std::to_string(h_designer.bins[b]),
                   std::to_string(h_xgb.bins[b]), std::to_string(h_pg.bins[b])});
  }
  table.add_row({"Mean", util::format("%.2f%%", h_none.mean_percent),
                 util::format("%.2f%%", h_designer.mean_percent),
                 util::format("%.2f%%", h_xgb.mean_percent),
                 util::format("%.2f%%", h_pg.mean_percent)});
  table.add_row({"Geometric Mean", util::format("%.2f%%", h_none.geomean_percent),
                 util::format("%.2f%%", h_designer.geomean_percent),
                 util::format("%.2f%%", h_xgb.geomean_percent),
                 util::format("%.2f%%", h_pg.geomean_percent)});

  std::printf("\nTable V analogue over %zu circuit metrics (paper: 67 metrics; mean errors"
              " 37.75%% / >100%% / 32.14%% / 9.60%%):\n",
              metric_count);
  table.print(std::cout);
  return 0;
}

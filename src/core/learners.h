// Uniform train-and-evaluate interface over every learner compared in the
// paper's Fig 6: the two classical baselines (feature-only linear
// regression and XGBoost-style GBT) and the five GNN models.
#pragma once

#include <memory>
#include <string>

#include "baselines/regressor.h"
#include "core/predictor.h"

namespace paragraph::core {

enum class LearnerKind {
  kLinear,
  kXgb,
  kGcn,
  kGraphSage,
  kRgcn,
  kGat,
  kParaGraph,
};

const char* learner_name(LearnerKind k);
// All seven learners in the paper's Fig 6 order.
const std::vector<LearnerKind>& fig6_learners();

struct LearnerConfig {
  LearnerKind learner = LearnerKind::kParaGraph;
  dataset::TargetKind target = dataset::TargetKind::kCap;
  double max_v_ff = 10.0;  // Fig 6 uses the max_v = 10 fF CAP model
  int epochs = 150;
  std::uint64_t seed = 1;
  std::size_t embed_dim = 32;
  std::size_t num_layers = 5;
};

// Trains the learner on ds.train and evaluates on ds.test. For CAP,
// training and evaluation are restricted to nets with truth <= max_v.
EvalResult train_and_evaluate(const LearnerConfig& config, const dataset::SuiteDataset& ds);

// Feature matrix a classical (feature-only) learner sees for a target:
// the node's Table II features, plus a thick-gate flag when both
// transistor types are pooled.
nn::Matrix baseline_feature_matrix(const dataset::Sample& s, dataset::TargetKind target);

// Classical baseline with the GnnPredictor-style predict_all interface
// (used by the Table V study to annotate netlists with XGB predictions).
class ClassicalPredictor {
 public:
  // learner must be kLinear or kXgb.
  ClassicalPredictor(LearnerKind learner, dataset::TargetKind target, double max_v_ff = 1e7);

  void fit(const dataset::SuiteDataset& ds);
  // Raw-unit predictions for all nodes of the target's node types.
  std::vector<float> predict_all(const dataset::Sample& sample) const;
  // The target scaler fit() chose (TargetScaler::for_target).
  const TargetScaler& scaler() const { return scaler_; }

 private:
  LearnerKind learner_;
  dataset::TargetKind target_;
  double max_v_ff_;
  TargetScaler scaler_;
  std::unique_ptr<baselines::Regressor> regressor_;
};

}  // namespace paragraph::core

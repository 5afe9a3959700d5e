#include <gtest/gtest.h>
#include <cmath>

#include "core/ensemble.h"
#include "core/learners.h"
#include "core/predictor.h"

namespace paragraph::core {
namespace {

dataset::SuiteDataset& tiny_dataset() {
  static dataset::SuiteDataset ds = dataset::build_dataset(21, 0.05);
  return ds;
}

TEST(TargetScaler, CapScalesByMaxV) {
  const TargetScaler s = TargetScaler::for_cap(10.0);
  EXPECT_FLOAT_EQ(s.transform(5.0f), 0.5f);
  EXPECT_FLOAT_EQ(s.inverse(0.5f), 5.0f);
  EXPECT_TRUE(s.in_range(10.0f));
  EXPECT_FALSE(s.in_range(10.5f));
}

TEST(TargetScaler, LogZscoreRoundTrip) {
  const TargetScaler s = TargetScaler::fit_log_zscore({1.0f, 10.0f, 100.0f, 1000.0f});
  // Geometric centre maps to ~0 in transformed space.
  EXPECT_NEAR(s.transform(std::sqrt(10.0f * 100.0f)), 0.0f, 1e-5f);
  for (const float v : {0.5f, 7.0f, 300.0f, 5000.0f})
    EXPECT_NEAR(s.inverse(s.transform(v)) / v, 1.0f, 1e-4f);
  EXPECT_TRUE(s.in_range(1e9f));
}

TEST(TargetScaler, StateRoundTrip) {
  const TargetScaler s = TargetScaler::fit_log_zscore({2.0f, 20.0f, 200.0f});
  const TargetScaler t = TargetScaler::from_state(s.state());
  EXPECT_FLOAT_EQ(s.transform(42.0f), t.transform(42.0f));
  EXPECT_FLOAT_EQ(s.inverse(1.3f), t.inverse(1.3f));
}

TEST(TargetScaler, ZscoreRoundTrip) {
  const TargetScaler s = TargetScaler::fit_zscore({1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_NEAR(s.transform(2.5f), 0.0f, 1e-6f);
  EXPECT_NEAR(s.inverse(s.transform(3.7f)), 3.7f, 1e-5f);
  EXPECT_TRUE(s.in_range(1e9f));  // z-score never filters
}

TEST(PredictorConfig, FcLayerDefaultsFollowPaper) {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  EXPECT_EQ(pc.effective_fc_layers(), 4u);
  pc.target = dataset::TargetKind::kSourceArea;
  EXPECT_EQ(pc.effective_fc_layers(), 2u);
  pc.fc_layers = 3;
  EXPECT_EQ(pc.effective_fc_layers(), 3u);
}

TEST(GnnPredictor, TrainsAndEvaluatesCap) {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.max_v_ff = 10.0;
  pc.epochs = 30;
  pc.num_layers = 3;
  pc.embed_dim = 16;
  GnnPredictor p(pc);
  const auto losses = p.train(tiny_dataset());
  ASSERT_EQ(losses.size(), 30u);
  EXPECT_LT(losses.back(), losses.front());
  const EvalResult res = p.evaluate(tiny_dataset().test);
  EXPECT_EQ(res.circuits.size(), 4u);
  const auto m = res.pooled();
  EXPECT_GT(m.count, 0u);
  EXPECT_GT(m.r2, -1.0);
}

TEST(GnnPredictor, PredictAllCoversEveryNetNode) {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.epochs = 3;
  pc.num_layers = 2;
  pc.embed_dim = 8;
  GnnPredictor p(pc);
  p.train(tiny_dataset());
  const auto& sample = tiny_dataset().test[0];
  const auto preds = p.predict_all(sample);
  EXPECT_EQ(preds.size(), sample.graph.num_nodes(graph::NodeType::kNet));
}

TEST(GnnPredictor, DeviceTargetCoversBothTransistorTypes) {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kDrainArea;
  pc.epochs = 3;
  pc.num_layers = 2;
  pc.embed_dim = 8;
  GnnPredictor p(pc);
  p.train(tiny_dataset());
  const auto& sample = tiny_dataset().train[1];  // t2 has thick devices
  const auto preds = p.predict_all(sample);
  EXPECT_EQ(preds.size(), sample.graph.num_nodes(graph::NodeType::kTransistor) +
                              sample.graph.num_nodes(graph::NodeType::kTransistorThick));
}

TEST(GnnPredictor, EmbeddingsHaveConfiguredDim) {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.epochs = 2;
  pc.num_layers = 2;
  pc.embed_dim = 8;
  GnnPredictor p(pc);
  p.train(tiny_dataset());
  const nn::Matrix emb =
      p.embeddings(tiny_dataset().test[0], graph::NodeType::kNet);
  EXPECT_EQ(emb.cols(), 8u);
  EXPECT_EQ(emb.rows(), tiny_dataset().test[0].graph.num_nodes(graph::NodeType::kNet));
}

TEST(GnnPredictor, MaxVFiltersTraining) {
  // With an absurdly low max_v almost nothing is in range -> eval set small.
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.max_v_ff = 1e7;
  pc.epochs = 1;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  GnnPredictor wide(pc);
  wide.train(tiny_dataset());
  const auto wide_n = wide.evaluate(tiny_dataset().test).pooled().count;
  pc.max_v_ff = 1.0;
  GnnPredictor narrow(pc);
  narrow.train(tiny_dataset());
  const auto narrow_n = narrow.evaluate(tiny_dataset().test).pooled().count;
  EXPECT_LT(narrow_n, wide_n);
}

TEST(GnnPredictor, TrainingIsDeterministicInSeed) {
  auto run = [] {
    PredictorConfig pc;
    pc.target = dataset::TargetKind::kCap;
    pc.max_v_ff = 100.0;
    pc.epochs = 5;
    pc.num_layers = 2;
    pc.embed_dim = 8;
    pc.seed = 777;
    GnnPredictor p(pc);
    return p.train(tiny_dataset());
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(CapEnsemble, ValidatesConfig) {
  EnsembleConfig cfg;
  cfg.max_vs_ff = {10.0};
  EXPECT_THROW(CapEnsemble{cfg}, std::invalid_argument);
  cfg.max_vs_ff = {10.0, 1.0};
  EXPECT_THROW(CapEnsemble{cfg}, std::invalid_argument);
}

TEST(CapEnsemble, Algorithm2PrefersHigherRangeModels) {
  EnsembleConfig cfg;
  cfg.max_vs_ff = {1.0, 10.0, 100.0};
  cfg.base.epochs = 15;
  cfg.base.num_layers = 2;
  cfg.base.embed_dim = 8;
  CapEnsemble ens(cfg);
  ens.train(tiny_dataset());
  EXPECT_EQ(ens.num_models(), 3u);
  const auto& sample = tiny_dataset().test[0];
  const auto ens_pred = ens.predict(sample);
  const auto low_pred = ens.model(0).predict_all(sample);
  const auto mid_pred = ens.model(1).predict_all(sample);
  const auto high_pred = ens.model(2).predict_all(sample);
  ASSERT_EQ(ens_pred.size(), low_pred.size());
  for (std::size_t i = 0; i < ens_pred.size(); ++i) {
    // Algorithm 2: highest-range model whose prediction exceeds the next-
    // lower max_v wins; otherwise fall through toward M1.
    if (high_pred[i] > 10.0) {
      EXPECT_FLOAT_EQ(ens_pred[i], high_pred[i]);
    } else if (mid_pred[i] > 1.0) {
      EXPECT_FLOAT_EQ(ens_pred[i], mid_pred[i]);
    } else {
      EXPECT_FLOAT_EQ(ens_pred[i], low_pred[i]);
    }
  }
}

TEST(Learners, NamesAndList) {
  EXPECT_EQ(fig6_learners().size(), 7u);
  EXPECT_STREQ(learner_name(LearnerKind::kXgb), "XGB");
  EXPECT_STREQ(learner_name(LearnerKind::kParaGraph), "ParaGraph");
}

TEST(Learners, ClassicalBaselinesRun) {
  for (const auto lk : {LearnerKind::kLinear, LearnerKind::kXgb}) {
    LearnerConfig cfg;
    cfg.learner = lk;
    cfg.target = dataset::TargetKind::kCap;
    cfg.max_v_ff = 10.0;
    const EvalResult res = train_and_evaluate(cfg, tiny_dataset());
    EXPECT_EQ(res.circuits.size(), 4u);
    EXPECT_GT(res.pooled().count, 0u);
  }
}

TEST(Learners, ClassicalDeviceTargetUsesTypeFlag) {
  LearnerConfig cfg;
  cfg.learner = LearnerKind::kXgb;
  cfg.target = dataset::TargetKind::kSourcePerimeter;
  const EvalResult res = train_and_evaluate(cfg, tiny_dataset());
  std::size_t expect = 0;
  for (const auto& s : tiny_dataset().test)
    expect += s.graph.num_nodes(graph::NodeType::kTransistor) +
              s.graph.num_nodes(graph::NodeType::kTransistorThick);
  EXPECT_EQ(res.pooled().count, expect);
}

TEST(EvalResultTest, PooledConcatenatesCircuits) {
  EvalResult r;
  r.circuits.push_back({"a", {1.0f, 2.0f}, {1.0f, 2.0f}});
  r.circuits.push_back({"b", {3.0f}, {3.0f}});
  EXPECT_EQ(r.pooled().count, 3u);
  EXPECT_DOUBLE_EQ(r.pooled().r2, 1.0);
  EXPECT_DOUBLE_EQ(r.circuits[0].metrics().mae, 0.0);
}

}  // namespace
}  // namespace paragraph::core

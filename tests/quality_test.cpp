// Quality-accounting suite: QualityAccumulator bucketing/calibration/
// worst-net units, decade-key ordering, gauge publication, the report
// JSON + Markdown rendering, ensemble member attribution, and the
// overhead guard — capturing attribution during evaluate must cost
// essentially nothing over the plain path.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "core/predictor.h"
#include "core/report.h"
#include "eval/drift.h"
#include "eval/quality.h"
#include "obs/metrics.h"

namespace paragraph {
namespace {

using eval::QualityAccumulator;

TEST(QualityAccumulatorTest, CapDecadeKeys) {
  EXPECT_EQ(QualityAccumulator::cap_decade_key(0.0), "<=0");
  EXPECT_EQ(QualityAccumulator::cap_decade_key(-3.0), "<=0");
  EXPECT_EQ(QualityAccumulator::cap_decade_key(0.005), "1e-03..1e-02");
  EXPECT_EQ(QualityAccumulator::cap_decade_key(0.5), "1e-01..1e+00");
  EXPECT_EQ(QualityAccumulator::cap_decade_key(1.0), "1e+00..1e+01");
  EXPECT_EQ(QualityAccumulator::cap_decade_key(5.0), "1e+00..1e+01");
  EXPECT_EQ(QualityAccumulator::cap_decade_key(123.0), "1e+02..1e+03");
}

TEST(QualityAccumulatorTest, DecadeKeysOrderByExponentNotBytes) {
  QualityAccumulator q;
  // Insert out of order, mixing negative and positive exponents (which
  // sort wrongly as raw strings: '+' < '-').
  for (const double v : {5.0, 0.005, 123.0, 0.5})
    q.add(eval::kDimDecade, QualityAccumulator::cap_decade_key(v), 1.0f, 1.0f);
  q.add(eval::kDimDecade, QualityAccumulator::cap_decade_key(0.0), 1.0f, 1.0f);
  const auto json = q.to_json();
  std::vector<std::string> keys;
  for (const auto& [k, v] : json.at("dimensions").at(eval::kDimDecade).items())
    keys.push_back(k);
  const std::vector<std::string> want = {"<=0", "1e-03..1e-02", "1e-01..1e+00",
                                         "1e+00..1e+01", "1e+02..1e+03"};
  EXPECT_EQ(keys, want);
}

TEST(QualityAccumulatorTest, BucketsAccumulateAndReportMetrics) {
  QualityAccumulator q;
  q.count_pair();
  q.add(eval::kDimTarget, "CAP", 1.0f, 1.5f);
  q.add(eval::kDimDecade, "1e+00..1e+01", 1.0f, 1.5f);  // same pair, 2nd dim
  q.count_pair();
  q.add(eval::kDimTarget, "CAP", 2.0f, 2.5f);
  q.count_pair();
  q.add(eval::kDimTarget, "SA", 10.0f, 10.0f);
  // A pair landing in several dimensions still counts once.
  EXPECT_EQ(q.total_pairs(), 3u);
  EXPECT_FALSE(q.empty());
  const auto json = q.to_json();
  EXPECT_EQ(json.at("schema").as_string(), "paragraph-quality-v1");
  const auto& cap = json.at("dimensions").at(eval::kDimTarget).at("CAP");
  EXPECT_EQ(cap.at("count").as_int(), 2);
  EXPECT_NEAR(cap.at("mae").as_double(), 0.5, 1e-9);
  const auto& sa = json.at("dimensions").at(eval::kDimTarget).at("SA");
  EXPECT_NEAR(sa.at("mae").as_double(), 0.0, 1e-12);
}

TEST(QualityAccumulatorTest, CalibrationCountsInInterval) {
  QualityAccumulator q;
  // Member 1 covers (1, 10]: one truth inside, one outside.
  q.add_calibration(1, 1.0, 10.0, 5.0f, 6.0f);
  q.add_calibration(1, 1.0, 10.0, 20.0f, 9.0f);
  q.add_calibration(0, 0.0, 1.0, 0.5f, 0.4f);
  const auto json = q.to_json();
  const auto& rows = json.at("calibration");
  ASSERT_EQ(rows.size(), 2u);
  // Rows come back sorted by member.
  EXPECT_EQ(rows[0].at("member").as_int(), 0);
  EXPECT_EQ(rows[1].at("member").as_int(), 1);
  EXPECT_EQ(rows[1].at("count").as_int(), 2);
  EXPECT_EQ(rows[1].at("in_interval").as_int(), 1);
  EXPECT_NEAR(rows[1].at("in_interval_frac").as_double(), 0.5, 1e-12);
}

TEST(QualityAccumulatorTest, OverlapDisagreementFractions) {
  QualityAccumulator q;
  q.count_overlap(0, true);
  q.count_overlap(0, false);
  q.add_overlap_stats(0, 2, 1);
  const auto json = q.to_json();
  const auto& rows = json.at("member_overlap");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("checked").as_int(), 4);
  EXPECT_EQ(rows[0].at("disagreements").as_int(), 2);
  EXPECT_NEAR(rows[0].at("disagreement_frac").as_double(), 0.5, 1e-12);
}

TEST(QualityAccumulatorTest, WorstNetsKeepTopNByRelativeError) {
  QualityAccumulator q;
  for (int i = 0; i < 40; ++i) {
    const float truth = 1.0f;
    const float pred = 1.0f + 0.01f * static_cast<float>(i);
    q.note_net("ckt", "net" + std::to_string(i), truth, pred);
  }
  q.note_net("ckt", "zero_truth", 0.0f, 5.0f);  // undefined rel err: skipped
  const auto json = q.to_json();
  const auto& worst = json.at("worst_nets");
  ASSERT_EQ(worst.size(), 20u);
  EXPECT_EQ(worst[0].at("net").as_string(), "net39");
  double prev = 1e9;
  for (const auto& w : worst.elements()) {
    EXPECT_LE(w.at("rel_err").as_double(), prev);
    prev = w.at("rel_err").as_double();
    EXPECT_NE(w.at("net").as_string(), "zero_truth");
  }
}

TEST(QualityAccumulatorTest, PublishEmitsGauges) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  QualityAccumulator q;
  q.count_pair();
  q.add(eval::kDimTarget, "CAP", 1.0f, 1.0f);
  q.count_pair();
  q.add(eval::kDimTarget, "CAP", 2.0f, 2.0f);
  q.add_calibration(0, 0.0, 10.0, 5.0f, 5.0f);
  q.publish();
  EXPECT_EQ(reg.gauge("quality.pairs").value(), 2.0);
  EXPECT_NEAR(reg.gauge("quality.target.CAP.mape").value(), 0.0, 1e-12);
  EXPECT_EQ(reg.gauge("quality.member.0.in_interval_frac").value(), 1.0);
}

class QualityReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new dataset::SuiteDataset(dataset::build_dataset(7, 0.05));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }
  static dataset::SuiteDataset* ds_;
};

dataset::SuiteDataset* QualityReportTest::ds_ = nullptr;

TEST_F(QualityReportTest, SingleModelReportJsonAndMarkdown) {
  core::PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.epochs = 2;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  pc.seed = 7;
  core::GnnPredictor model(pc);
  model.train(*ds_);

  const auto quality = core::collect_quality(model, ds_->test);
  EXPECT_FALSE(quality.empty());

  // Training fit the drift reference; the held-out split provides live
  // sketches for the report's drift section.
  const auto live = eval::sketch_graphs(ds_->test, &model.feature_sketches());
  const auto drift = obs::score_drift(model.feature_sketches(), live);
  const auto report =
      core::quality_report_json(quality, &drift, "model.bin", "CAP", ds_->test.size());
  EXPECT_EQ(report.at("schema").as_string(), "paragraph-quality-v1");
  EXPECT_EQ(report.at("meta").at("model").as_string(), "model.bin");
  EXPECT_TRUE(report.at("drift").at("max_psi").is_number());

  const std::string md = core::render_quality_markdown(report, nullptr);
  EXPECT_NE(md.find("# ParaGraph quality report"), std::string::npos);
  EXPECT_NE(md.find("decade"), std::string::npos);
  EXPECT_NE(md.find("Worst"), std::string::npos);
  EXPECT_NE(md.find("Input drift"), std::string::npos);

  // Prior comparison: a metrics document carrying quality gauges produces
  // a then-vs-now column.
  obs::JsonValue gauges = obs::JsonValue::object();
  gauges.set("quality.target.CAP.r2", 0.5);
  obs::JsonValue prior = obs::JsonValue::object();
  prior.set("gauges", std::move(gauges));
  const std::string md2 = core::render_quality_markdown(report, &prior);
  EXPECT_NE(md2.find("prior"), std::string::npos);
}

TEST_F(QualityReportTest, EnsembleAttributionIsCheapAndConsistent) {
  core::EnsembleConfig cfg;
  cfg.max_vs_ff = {10.0, 1e4};
  cfg.base.epochs = 2;
  cfg.base.num_layers = 1;
  cfg.base.embed_dim = 4;
  cfg.base.seed = 7;
  core::CapEnsemble ens(cfg);
  ens.train(*ds_);

  std::vector<core::MemberAttribution> attrs;
  const auto with = ens.evaluate(ds_->test, &attrs);
  ASSERT_EQ(attrs.size(), ds_->test.size());
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    EXPECT_EQ(attrs[i].member.size(), with.circuits[i].pred.size());
    for (const auto m : attrs[i].member) EXPECT_LT(m, ens.num_models());
    ASSERT_EQ(attrs[i].pairs.size(), ens.num_models() - 1);
    for (const auto& p : attrs[i].pairs) EXPECT_LE(p.disagreements, p.checked);
  }

  // Attribution must not change the predictions themselves.
  const auto plain = ens.evaluate(ds_->test);
  for (std::size_t i = 0; i < plain.circuits.size(); ++i)
    EXPECT_EQ(plain.circuits[i].pred, with.circuits[i].pred);

  // Overhead guard. The issue budget is <3% measured; the hard bound here
  // is deliberately generous so a box running the rest of the suite in
  // parallel cannot flake it, while a regression that re-predicts per
  // member (~2x) still fails loudly. Base and instrumented reps are
  // interleaved and compared fastest-vs-fastest: a load spike lands on
  // both variants alike, and the minimum filters scheduler noise that a
  // median over a disturbed window does not.
  const auto time_once = [&](std::vector<core::MemberAttribution>* a) {
    const auto start = std::chrono::steady_clock::now();
    for (int k = 0; k < 3; ++k) ens.evaluate(ds_->test, a);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  double base = 1e9, instrumented = 1e9;
  for (int rep = 0; rep < 7; ++rep) {
    base = std::min(base, time_once(nullptr));
    instrumented = std::min(instrumented, time_once(&attrs));
  }
  EXPECT_LT(instrumented, base * 1.5 + 0.002)
      << "attribution capture overhead too high: " << instrumented << "s vs " << base << "s";
}

}  // namespace
}  // namespace paragraph

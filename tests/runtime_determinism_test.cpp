// Determinism stress tests for the parallel runtime wired through the
// training and inference stack. The contract (DESIGN.md §7):
//   * thread counts >= 2 all take the same chunked code paths, so results
//     are bit-identical across them;
//   * one thread takes the serial direct paths (the pre-runtime kernels),
//     which agree with the chunked paths within float accumulation
//     epsilon — well inside the repo's 1e-5 golden tolerances.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/predictor.h"
#include "dataset/dataset.h"
#include "runtime/thread_pool.h"

namespace paragraph {
namespace {

core::PredictorConfig small_config(std::size_t batch) {
  core::PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.scale = 0.05;
  pc.epochs = 3;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  pc.batch_size = batch;
  pc.seed = 91;
  return pc;
}

struct TrainRun {
  std::vector<double> losses;
  std::vector<float> params;  // all trained parameters, flattened
  std::vector<float> preds;   // predict_all on the first test circuit
};

TrainRun train_at(std::size_t threads, std::size_t batch) {
  runtime::set_num_threads(threads);
  const auto ds = dataset::build_dataset(91, 0.05);
  core::GnnPredictor predictor(small_config(batch));
  TrainRun run;
  run.losses = predictor.train(ds);
  for (const auto& t : predictor.parameters()) {
    const nn::Matrix& m = t.value();
    run.params.insert(run.params.end(), m.data(), m.data() + m.size());
  }
  run.preds = predictor.predict_all(ds.test[0]);
  runtime::set_num_threads(0);
  return run;
}

void expect_bitwise_equal(const TrainRun& a, const TrainRun& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t i = 0; i < a.losses.size(); ++i)
    EXPECT_EQ(a.losses[i], b.losses[i]) << "epoch " << i;
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t i = 0; i < a.params.size(); ++i)
    ASSERT_EQ(a.params[i], b.params[i]) << "param element " << i;
  ASSERT_EQ(a.preds.size(), b.preds.size());
  for (std::size_t i = 0; i < a.preds.size(); ++i)
    ASSERT_EQ(a.preds[i], b.preds[i]) << "prediction " << i;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b, double rtol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max(1.0, std::abs(static_cast<double>(b[i])));
    EXPECT_NEAR(a[i], b[i], rtol * scale) << "element " << i;
  }
}

TEST(RuntimeDeterminismTest, TrainingBitIdenticalAcrossMultiThreadCounts) {
  const TrainRun t2 = train_at(2, 1);
  const TrainRun t4 = train_at(4, 1);
  expect_bitwise_equal(t2, t4);
}

TEST(RuntimeDeterminismTest, SerialTrainingMatchesParallelWithinTolerance) {
  const TrainRun t1 = train_at(1, 1);
  const TrainRun t4 = train_at(4, 1);
  ASSERT_EQ(t1.losses.size(), t4.losses.size());
  for (std::size_t i = 0; i < t1.losses.size(); ++i) {
    const double scale = std::max(1.0, std::abs(t4.losses[i]));
    EXPECT_NEAR(t1.losses[i], t4.losses[i], 1e-4 * scale) << "epoch " << i;
  }
  expect_close(t1.preds, t4.preds, 1e-3);
}

TEST(RuntimeDeterminismTest, BatchedTrainingBitIdenticalAcrossMultiThreadCounts) {
  const TrainRun b2 = train_at(2, 2);
  const TrainRun b4 = train_at(4, 2);
  expect_bitwise_equal(b2, b4);
}

TEST(RuntimeDeterminismTest, BatchedTrainingRepeatable) {
  const TrainRun first = train_at(4, 2);
  const TrainRun second = train_at(4, 2);
  expect_bitwise_equal(first, second);
}

TEST(RuntimeDeterminismTest, BatchedSerialMatchesBatchedParallelWithinTolerance) {
  const TrainRun b1 = train_at(1, 2);
  const TrainRun b4 = train_at(4, 2);
  expect_close(b1.preds, b4.preds, 1e-3);
}

TEST(RuntimeDeterminismTest, EvaluateBitIdenticalAcrossMultiThreadCounts) {
  const auto ds = dataset::build_dataset(91, 0.05);
  const auto eval_at = [&](std::size_t threads) {
    runtime::set_num_threads(threads);
    core::GnnPredictor predictor(small_config(1));
    predictor.set_normalizer(ds.normalizer);
    const auto result = predictor.evaluate(ds.test);
    runtime::set_num_threads(0);
    return result;
  };
  const auto e2 = eval_at(2);
  const auto e4 = eval_at(4);
  ASSERT_EQ(e2.circuits.size(), e4.circuits.size());
  for (std::size_t c = 0; c < e2.circuits.size(); ++c) {
    EXPECT_EQ(e2.circuits[c].name, e4.circuits[c].name);
    ASSERT_EQ(e2.circuits[c].pred.size(), e4.circuits[c].pred.size());
    for (std::size_t i = 0; i < e2.circuits[c].pred.size(); ++i)
      ASSERT_EQ(e2.circuits[c].pred[i], e4.circuits[c].pred[i])
          << "circuit " << c << " element " << i;
  }
}

TEST(RuntimeDeterminismTest, EvaluateSerialMatchesParallelWithinTolerance) {
  const auto ds = dataset::build_dataset(91, 0.05);
  const auto eval_at = [&](std::size_t threads) {
    runtime::set_num_threads(threads);
    core::GnnPredictor predictor(small_config(1));
    predictor.set_normalizer(ds.normalizer);
    const auto result = predictor.evaluate(ds.test);
    runtime::set_num_threads(0);
    return result;
  };
  const auto e1 = eval_at(1);
  const auto e4 = eval_at(4);
  ASSERT_EQ(e1.circuits.size(), e4.circuits.size());
  for (std::size_t c = 0; c < e1.circuits.size(); ++c)
    expect_close(e1.circuits[c].pred, e4.circuits[c].pred, 1e-4);
}

}  // namespace
}  // namespace paragraph

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/serialize.h"
#include "obs/log.h"
#include "util/bytes.h"

namespace paragraph::core {
namespace {

// Rewrites current (v6) model bytes in the v5 layout: drop the trailing
// normaliser block, stamp version 5, recompute the checksum.
std::string as_version5(std::string bytes) {
  std::size_t block = sizeof(std::uint64_t);  // node-type count
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t)
    block += sizeof(std::uint64_t) +
             2 * sizeof(float) * graph::feature_dim(static_cast<graph::NodeType>(t));
  bytes.resize(bytes.size() - sizeof(std::uint64_t) - block);
  const std::uint32_t v5 = 5;
  std::memcpy(bytes.data() + 4, &v5, sizeof(v5));
  const std::uint64_t sum = util::fnv1a64(bytes);
  bytes.append(reinterpret_cast<const char*>(&sum), sizeof(sum));
  return bytes;
}

class SerializeTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "paragraph_model.bin";
};

TEST_F(SerializeTest, RoundTripPreservesPredictions) {
  const auto ds = dataset::build_dataset(77, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.max_v_ff = 100.0;
  pc.epochs = 10;
  pc.num_layers = 2;
  pc.embed_dim = 8;
  GnnPredictor trained(pc);
  trained.train(ds);
  const auto before = trained.predict_all(ds.test[0]);

  save_predictor(trained, path_);
  GnnPredictor loaded = load_predictor(path_);
  EXPECT_EQ(loaded.config().embed_dim, 8u);
  EXPECT_EQ(loaded.config().target, dataset::TargetKind::kCap);
  const auto after = loaded.predict_all(ds.test[0]);

  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_FLOAT_EQ(before[i], after[i]);
  // The v6 normaliser block restores the exact statistics, so PlanCache
  // embedding keys (which hash them) survive a save/load.
  EXPECT_EQ(loaded.normalizer().fingerprint(), ds.normalizer.fingerprint());
  EXPECT_EQ(loaded.normalizer().fingerprint(), trained.normalizer().fingerprint());
}

TEST_F(SerializeTest, Version5FilesRebuildTheirNormalizerOnce) {
  // A small recorded scale keeps the legacy rebuild cheap; the recorded
  // (seed, scale) regenerate exactly the suite the model trained on.
  const auto ds = dataset::build_dataset(85, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.seed = 85;
  pc.scale = 0.05;
  pc.epochs = 2;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  GnnPredictor trained(pc);
  trained.train(ds);
  const auto before = trained.predict_all(ds.test[0]);

  std::FILE* log = std::tmpfile();
  ASSERT_NE(log, nullptr);
  obs::Logger::instance().set_text_stream(log);
  const GnnPredictor loaded =
      predictor_from_bytes(as_version5(predictor_to_bytes(trained)), "v5 restamp");
  obs::Logger::instance().set_text_stream(stderr);

  std::rewind(log);
  int warnings = 0;
  char line[1024];
  while (std::fgets(line, sizeof line, log) != nullptr)
    if (std::strstr(line, "predates the persisted normaliser") != nullptr) ++warnings;
  std::fclose(log);
  EXPECT_EQ(warnings, 1);

  EXPECT_EQ(loaded.normalizer().fingerprint(), ds.normalizer.fingerprint());
  const auto after = loaded.predict_all(ds.test[0]);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_EQ(before[i], after[i]) << "node " << i;
}

TEST_F(SerializeTest, RoundTripZscoreScaler) {
  const auto ds = dataset::build_dataset(78, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kSourceArea;
  pc.epochs = 5;
  pc.num_layers = 2;
  pc.embed_dim = 8;
  GnnPredictor trained(pc);
  trained.train(ds);
  save_predictor(trained, path_);
  const GnnPredictor loaded = load_predictor(path_);
  const auto s1 = trained.scaler().state();
  const auto s2 = loaded.scaler().state();
  EXPECT_EQ(s1.zscore, s2.zscore);
  EXPECT_DOUBLE_EQ(s1.mean, s2.mean);
  EXPECT_DOUBLE_EQ(s1.stdev, s2.stdev);
}

TEST_F(SerializeTest, ScaleRoundTrips) {
  const auto ds = dataset::build_dataset(80, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.scale = 0.05;
  pc.epochs = 2;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  GnnPredictor trained(pc);
  trained.train(ds);
  save_predictor(trained, path_);
  const GnnPredictor loaded = load_predictor(path_);
  EXPECT_DOUBLE_EQ(loaded.config().scale, 0.05);
}

TEST_F(SerializeTest, BatchAndThreadMetadataRoundTrip) {
  const auto ds = dataset::build_dataset(84, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.scale = 0.05;
  pc.epochs = 2;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  pc.batch_size = 3;
  pc.train_threads = 4;
  GnnPredictor trained(pc);
  trained.train(ds);
  save_predictor(trained, path_);
  const GnnPredictor loaded = load_predictor(path_);
  EXPECT_EQ(loaded.config().batch_size, 3u);
  EXPECT_EQ(loaded.config().train_threads, 4u);
}

TEST_F(SerializeTest, ReadsVersion1FilesWithDefaultScale) {
  const auto ds = dataset::build_dataset(81, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.seed = 81;
  pc.scale = 0.05;
  pc.epochs = 2;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  GnnPredictor trained(pc);
  trained.train(ds);
  save_predictor(trained, path_);

  // Rewrite the current file as a v1 file: the version word sits at byte
  // offset 4; the scale double occupies [72, 80) and the batch_size /
  // train_threads uint64 pair [80, 96) — between the seed and the scaler
  // state (see serialize.cpp field order).
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GE(data.size(), 96u);
  const std::uint32_t v1 = 1;
  std::memcpy(data.data() + 4, &v1, sizeof(v1));
  data.erase(72, sizeof(double) + 2 * sizeof(std::uint64_t));
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();

  const GnnPredictor loaded = load_predictor(path_);
  // v1 predates the scale field; the loader keeps the historical default
  // and rebuilds the normaliser from that suite.
  EXPECT_DOUBLE_EQ(loaded.config().scale, 0.25);
  const auto legacy = dataset::build_dataset(pc.seed, 0.25);
  EXPECT_EQ(loaded.normalizer().fingerprint(), legacy.normalizer.fingerprint());
  trained.set_normalizer(legacy.normalizer);
  const auto before = trained.predict_all(ds.test[0]);
  const auto after = loaded.predict_all(ds.test[0]);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_FLOAT_EQ(before[i], after[i]);
}

TEST_F(SerializeTest, ReadsVersion2FilesWithSerialScheduleDefaults) {
  const auto ds = dataset::build_dataset(83, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.seed = 83;  // with the scale: the suite the normaliser rebuild regenerates
  pc.scale = 0.05;
  pc.epochs = 2;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  pc.batch_size = 4;
  pc.train_threads = 2;
  GnnPredictor trained(pc);
  trained.train(ds);
  const auto before = trained.predict_all(ds.test[0]);
  save_predictor(trained, path_);

  // Rewrite the current file as a v2 file: drop the batch_size / train_threads
  // pair at [80, 96) and stamp version 2.
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GE(data.size(), 96u);
  const std::uint32_t v2 = 2;
  std::memcpy(data.data() + 4, &v2, sizeof(v2));
  data.erase(80, 2 * sizeof(std::uint64_t));
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();

  const GnnPredictor loaded = load_predictor(path_);
  // v2 predates the parallel runtime; the defaults reproduce the serial
  // training schedule those models used.
  EXPECT_DOUBLE_EQ(loaded.config().scale, 0.05);
  EXPECT_EQ(loaded.config().batch_size, 1u);
  EXPECT_EQ(loaded.config().train_threads, 0u);
  const auto after = loaded.predict_all(ds.test[0]);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_FLOAT_EQ(before[i], after[i]);
}

TEST_F(SerializeTest, RejectsUnsupportedVersion) {
  const auto ds = dataset::build_dataset(82, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.epochs = 1;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  GnnPredictor trained(pc);
  trained.train(ds);
  save_predictor(trained, path_);
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(4);
  const std::uint32_t future = 99;
  f.write(reinterpret_cast<const char*>(&future), sizeof(future));
  f.close();
  EXPECT_THROW(load_predictor(path_), std::runtime_error);
}

TEST_F(SerializeTest, RejectsGarbageFile) {
  std::ofstream(path_) << "definitely not a model";
  EXPECT_THROW(load_predictor(path_), std::runtime_error);
}

TEST_F(SerializeTest, RejectsMissingFile) {
  EXPECT_THROW(load_predictor("/nonexistent/model.bin"), std::runtime_error);
}

TEST_F(SerializeTest, RejectsTruncatedFile) {
  const auto ds = dataset::build_dataset(79, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.epochs = 2;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  GnnPredictor trained(pc);
  trained.train(ds);
  save_predictor(trained, path_);
  // Truncate to half.
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  out.close();
  EXPECT_THROW(load_predictor(path_), std::runtime_error);
}

}  // namespace
}  // namespace paragraph::core

// paragraph-shard-v1 round trips and the out-of-core training path.
//
// The contract under test: a packed-then-loaded sample is bit-identical
// to the in-memory original (netlist, graph features, targets), the LRU
// working set respects its byte budget, corrupt shards are rejected, and
// streamed train/evaluate produce the same floats as the in-memory
// overloads, and a model trained from shards persists the manifest's
// normaliser.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/serialize.h"
#include "dataset/dataset.h"
#include "dataset/shards.h"
#include "obs/metrics.h"
#include "util/errors.h"

namespace paragraph {
namespace {

namespace fs = std::filesystem;

double counter(const char* name) {
  return static_cast<double>(obs::MetricsRegistry::instance().counter(name).value());
}

void expect_matrices_equal(const nn::Matrix& a, const nn::Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a.data()[i], b.data()[i]) << what;
}

class ShardsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new dataset::SuiteDataset(dataset::build_dataset(11, 0.05));
    dir_ = (fs::temp_directory_path() / "paragraph_shards_fixture").string();
    fs::remove_all(dir_);
    const dataset::ShardWriteResult r = dataset::write_shards(*ds_, dir_);
    ASSERT_EQ(r.files, ds_->train.size() + ds_->test.size());
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
    fs::remove_all(dir_);
  }

  static dataset::SuiteDataset* ds_;
  static std::string dir_;
};

dataset::SuiteDataset* ShardsTest::ds_ = nullptr;
std::string ShardsTest::dir_;

TEST_F(ShardsTest, RoundTripIsBitwiseExact) {
  dataset::ShardStore store(dir_);
  ASSERT_EQ(store.num_train(), ds_->train.size());
  ASSERT_EQ(store.num_test(), ds_->test.size());
  EXPECT_EQ(store.normalizer().fingerprint(), ds_->normalizer.fingerprint());

  for (std::size_t i = 0; i < store.num_train(); ++i) {
    const dataset::Sample& orig = ds_->train[i];
    EXPECT_EQ(store.train_name(i), orig.name);
    const auto loaded = store.train(i);
    ASSERT_EQ(loaded->name, orig.name);
    ASSERT_EQ(loaded->netlist.num_nets(), orig.netlist.num_nets());
    ASSERT_EQ(loaded->netlist.num_devices(), orig.netlist.num_devices());
    ASSERT_EQ(loaded->netlist.instances().size(), orig.netlist.instances().size());
    for (std::size_t d = 0; d < orig.netlist.num_devices(); ++d) {
      const auto& od = orig.netlist.device(static_cast<circuit::DeviceId>(d));
      const auto& ld = loaded->netlist.device(static_cast<circuit::DeviceId>(d));
      ASSERT_EQ(ld.name, od.name);
      ASSERT_EQ(ld.conns, od.conns);
      ASSERT_EQ(ld.instance_path, od.instance_path);
      ASSERT_EQ(ld.layout.has_value(), od.layout.has_value());
      if (od.layout) {
        ASSERT_EQ(ld.layout->source_area, od.layout->source_area);
      }
    }
    for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
      const auto nt = static_cast<graph::NodeType>(t);
      ASSERT_EQ(loaded->graph.num_nodes(nt), orig.graph.num_nodes(nt));
      expect_matrices_equal(loaded->graph.features(nt), orig.graph.features(nt), "features");
    }
    for (std::size_t t = 0; t < dataset::kNumTargets; ++t) {
      ASSERT_EQ(loaded->targets[t].size(), orig.targets[t].size());
      for (std::size_t slot = 0; slot < orig.targets[t].size(); ++slot)
        ASSERT_EQ(loaded->targets[t][slot], orig.targets[t][slot]);
    }
  }
}

TEST_F(ShardsTest, WorkingSetRespectsBudgetAndCountersAccount) {
  // Budget sized to roughly one materialised sample: the store must keep
  // serving every load while never retaining more than the cap (plus the
  // always-kept newest entry).
  std::size_t max_bytes = 0;
  for (const dataset::Sample& s : ds_->train)
    max_bytes = std::max(max_bytes, dataset::ShardStore::sample_bytes(s));
  dataset::ShardStore::Config cfg;
  cfg.max_resident_bytes = max_bytes + max_bytes / 2;
  dataset::ShardStore store(dir_, cfg);

  const double misses0 = counter("shards.misses");
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < store.num_train(); ++i) {
      const auto s = store.train(i);
      ASSERT_NE(s, nullptr);
      EXPECT_TRUE(store.resident_bytes() <= cfg.max_resident_bytes ||
                  store.resident_count() == 1)
          << "working set exceeded its budget with " << store.resident_count() << " entries";
    }
  }
  // The tight budget forces evictions, so the second pass cannot be all
  // hits: strictly more misses than samples, and within two full passes.
  const double misses = counter("shards.misses") - misses0;
  EXPECT_GT(misses, static_cast<double>(store.num_train()));
  EXPECT_LE(misses, static_cast<double>(2 * store.num_train()));

  // A roomy store serves the second pass entirely from memory.
  dataset::ShardStore roomy(dir_);
  const double h0 = counter("shards.hits");
  const double m0 = counter("shards.misses");
  for (std::size_t pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < roomy.num_train(); ++i) roomy.train(i);
  EXPECT_EQ(counter("shards.misses") - m0, static_cast<double>(roomy.num_train()));
  EXPECT_EQ(counter("shards.hits") - h0, static_cast<double>(roomy.num_train()));
  EXPECT_EQ(obs::MetricsRegistry::instance().gauge("shards.resident_bytes").value(),
            static_cast<double>(roomy.resident_bytes()));

  roomy.clear();
  EXPECT_EQ(roomy.resident_count(), 0u);
  EXPECT_EQ(roomy.resident_bytes(), 0u);
}

TEST_F(ShardsTest, CorruptShardIsRejected) {
  const std::string dir = (fs::temp_directory_path() / "paragraph_shards_corrupt").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy(dir_, dir, fs::copy_options::recursive | fs::copy_options::overwrite_existing);

  const std::string victim = dir + "/train_00000.shard";
  std::string bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-payload
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  dataset::ShardStore store(dir);
  EXPECT_THROW(store.train(0), util::CorruptArtifactError);
  EXPECT_NO_THROW(store.train(1));  // other shards unaffected
  fs::remove_all(dir);
}

core::PredictorConfig small_config(dataset::TargetKind target) {
  core::PredictorConfig cfg;
  cfg.target = target;
  cfg.embed_dim = 16;
  cfg.num_layers = 2;
  cfg.epochs = 2;
  cfg.seed = 3;
  return cfg;
}

void expect_streamed_matches_in_memory(const core::PredictorConfig& cfg,
                                       const dataset::SuiteDataset& ds,
                                       const std::string& dir) {
  core::GnnPredictor in_memory(cfg);
  const std::vector<double> losses_mem = in_memory.train(ds);

  // Tight budget: a fraction of the dataset resides at any time, so the
  // streamed run genuinely rebuilds plans/batches mid-epoch.
  std::size_t max_bytes = 0;
  for (const dataset::Sample& s : ds.train)
    max_bytes = std::max(max_bytes, dataset::ShardStore::sample_bytes(s));
  dataset::ShardStore::Config scfg;
  scfg.max_resident_bytes = 3 * max_bytes;
  dataset::ShardStore store(dir, scfg);

  core::GnnPredictor streamed(cfg);
  const std::vector<double> losses_str = streamed.train(store);

  ASSERT_EQ(losses_mem.size(), losses_str.size());
  for (std::size_t e = 0; e < losses_mem.size(); ++e)
    ASSERT_EQ(losses_mem[e], losses_str[e]) << "epoch " << e;

  // The whole artifact: config, weights, scaler, normaliser, sketches.
  const std::string bytes_mem = core::predictor_to_bytes(in_memory);
  const std::string bytes_str = core::predictor_to_bytes(streamed);
  ASSERT_EQ(bytes_mem.size(), bytes_str.size());
  EXPECT_EQ(std::memcmp(bytes_mem.data(), bytes_str.data(), bytes_mem.size()), 0);

  // The streamed drift sketches must reproduce eval::sketch_graphs
  // exactly (same counts, same Welford moments, same bins).
  const auto& sk_mem = in_memory.feature_sketches();
  const auto& sk_str = streamed.feature_sketches();
  ASSERT_EQ(sk_mem.size(), sk_str.size());
  for (std::size_t i = 0; i < sk_mem.size(); ++i) {
    ASSERT_EQ(sk_mem[i].name(), sk_str[i].name());
    ASSERT_EQ(sk_mem[i].count(), sk_str[i].count());
    ASSERT_EQ(sk_mem[i].mean(), sk_str[i].mean());
    ASSERT_EQ(sk_mem[i].m2(), sk_str[i].m2());
    ASSERT_EQ(sk_mem[i].lo(), sk_str[i].lo());
    ASSERT_EQ(sk_mem[i].hi(), sk_str[i].hi());
    ASSERT_EQ(sk_mem[i].bins(), sk_str[i].bins());
  }

  const core::EvalResult ev_mem = in_memory.evaluate(ds.test);
  const core::EvalResult ev_str = streamed.evaluate(store, /*test_split=*/true);
  ASSERT_EQ(ev_mem.circuits.size(), ev_str.circuits.size());
  for (std::size_t c = 0; c < ev_mem.circuits.size(); ++c) {
    ASSERT_EQ(ev_mem.circuits[c].name, ev_str.circuits[c].name);
    ASSERT_EQ(ev_mem.circuits[c].truth, ev_str.circuits[c].truth);
    ASSERT_EQ(ev_mem.circuits[c].pred, ev_str.circuits[c].pred);
  }
}

TEST_F(ShardsTest, StreamedTrainAndEvalAreBitwiseIdentical) {
  expect_streamed_matches_in_memory(small_config(dataset::TargetKind::kCap), *ds_, dir_);
}

TEST_F(ShardsTest, StreamedTrainMatchesForZscoreTargetAndBatches) {
  // Device-parameter target exercises the streamed z-score pooling;
  // batch_size 2 exercises the group-pinned replica path.
  core::PredictorConfig cfg = small_config(dataset::TargetKind::kSourceArea);
  cfg.epochs = 1;
  cfg.batch_size = 2;
  expect_streamed_matches_in_memory(cfg, *ds_, dir_);
}

TEST_F(ShardsTest, StreamedTrainMatchesForLogZscoreTarget) {
  // RES is the one target whose scaler z-scores the pooled targets in
  // log10 space.
  core::PredictorConfig cfg = small_config(dataset::TargetKind::kRes);
  cfg.epochs = 1;
  expect_streamed_matches_in_memory(cfg, *ds_, dir_);
}

// Regression: shards packed from a non-default suite (seed 7, scale 0.1)
// and a model whose config records other values (seed 42, scale 0.25 —
// what `train --shards` records). A normaliser rebuilt from the recorded
// values would come from a different suite; the saved model must carry
// the manifest's and predict byte-identically to it.
TEST(ShardTrainedModel, PredictsWithTheManifestNormalizer) {
  const std::string dir = (fs::temp_directory_path() / "paragraph_shards_s7").string();
  fs::remove_all(dir);
  dataset::write_shards(dataset::build_dataset(7, 0.1), dir);
  dataset::ShardStore store(dir);

  core::PredictorConfig cfg = small_config(dataset::TargetKind::kCap);
  cfg.seed = 42;
  cfg.scale = 0.25;
  cfg.epochs = 1;
  core::GnnPredictor trained(cfg);
  trained.train(store);
  const std::string path = dir + "/model.bin";
  core::save_predictor(trained, path);

  const core::GnnPredictor loaded = core::load_predictor(path);
  EXPECT_EQ(loaded.normalizer().fingerprint(), store.normalizer().fingerprint());
  core::GnnPredictor reference = core::load_predictor(path);
  reference.set_normalizer(store.normalizer());
  for (std::size_t i = 0; i < store.num_test(); ++i) {
    const auto sample = store.test(i);
    const std::vector<float> got = loaded.predict_all(*sample);
    const std::vector<float> want = reference.predict_all(*sample);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
        << store.test_name(i);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace paragraph

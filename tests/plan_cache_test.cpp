// PlanCache correctness: the hierarchical (memoized) predict path must be
// BITWISE identical to the plain full-graph path — same floats, not just
// close ones — at any thread count, and the obs counters must account for
// every structural/embedding reuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/spice_parser.h"
#include "core/predictor.h"
#include "gnn/plan_cache.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace paragraph {
namespace {

// A deck whose top level repeats one RC-ladder template six times. With
// L = 2 message-passing layers the ladder's middle (depth >= 3 from the
// ports) is interior, so the cache has something to memoize.
std::string hier_ladder_deck() {
  std::string deck = "* plan cache fixture\n.subckt ladder a b\n";
  const int kStages = 8;
  std::string prev = "a";
  for (int i = 1; i <= kStages; ++i) {
    const std::string next = i == kStages ? "b" : "m" + std::to_string(i);
    deck += "R" + std::to_string(i) + " " + prev + " " + next + " " +
            std::to_string(1000 + 17 * i) + "\n";
    if (i < kStages)
      deck += "C" + std::to_string(i) + " " + next + " vss " + std::to_string(i) + ".5f\n";
    prev = next;
  }
  deck += ".ends\n";
  for (int k = 1; k <= 6; ++k)
    deck += "Xl" + std::to_string(k) + " p" + std::to_string(k) + " p" + std::to_string(k + 1) +
            " ladder\n";
  deck += "Rsrc p1 p7 10k\nCload p7 vss 4f\n";
  return deck;
}

dataset::SuiteDataset make_hier_dataset() {
  circuitgen::Suite suite;
  suite.train.push_back(circuit::parse_spice_string(hier_ladder_deck()));
  suite.train.back().set_name("hier_ladder");
  return dataset::build_dataset_from_suite(std::move(suite), /*layout_seed=*/7);
}

core::PredictorConfig small_config(gnn::ModelKind model) {
  core::PredictorConfig cfg;
  cfg.model = model;
  cfg.target = dataset::TargetKind::kCap;
  cfg.embed_dim = 16;
  cfg.num_layers = 2;
  cfg.seed = 11;
  return cfg;
}

double counter(const char* name) {
  return static_cast<double>(obs::MetricsRegistry::instance().counter(name).value());
}

class PlanCacheTest : public ::testing::Test {
 protected:
  void TearDown() override { runtime::set_num_threads(1); }
};

TEST_F(PlanCacheTest, CachedPredictIsBitwiseIdenticalAcrossThreadCounts) {
  const dataset::SuiteDataset ds = make_hier_dataset();
  const dataset::Sample& sample = ds.train.front();
  ASSERT_GE(sample.netlist.instances().size(), 6u);

  for (const gnn::ModelKind model :
       {gnn::ModelKind::kParaGraph, gnn::ModelKind::kRgcn, gnn::ModelKind::kGcn}) {
    core::GnnPredictor predictor(small_config(model));
    predictor.set_normalizer(ds.normalizer);
    const std::vector<float> plain = predictor.predict_all(sample);

    gnn::PlanCache cache(gnn::PlanCacheConfig{.min_subtree_devices = 4});
    const std::vector<float> cached = predictor.predict_all(sample, {.cache = &cache});
    ASSERT_GT(cache.num_entries(), 0u) << "hierarchy was not cached";
    ASSERT_EQ(cached.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
      ASSERT_EQ(plain[i], cached[i]) << "model " << gnn::model_kind_name(model) << " node " << i;

    // Second call: everything served from the cache, still bit-identical.
    const std::vector<float> again = predictor.predict_all(sample, {.cache = &cache});
    for (std::size_t i = 0; i < plain.size(); ++i) ASSERT_EQ(plain[i], again[i]);

    // Same predictions at 4 threads, cached and uncached alike.
    runtime::set_num_threads(4);
    const std::vector<float> plain4 = predictor.predict_all(sample);
    const std::vector<float> cached4 = predictor.predict_all(sample, {.cache = &cache});
    runtime::set_num_threads(1);
    for (std::size_t i = 0; i < plain.size(); ++i) {
      ASSERT_EQ(plain[i], plain4[i]);
      ASSERT_EQ(plain[i], cached4[i]);
    }
  }
}

TEST_F(PlanCacheTest, CountersAccountForStructuralAndEmbeddingReuse) {
  const dataset::SuiteDataset ds = make_hier_dataset();
  const dataset::Sample& sample = ds.train.front();
  core::GnnPredictor predictor(small_config(gnn::ModelKind::kParaGraph));
  predictor.set_normalizer(ds.normalizer);

  gnn::PlanCache cache(gnn::PlanCacheConfig{.min_subtree_devices = 4});
  const double hits0 = counter("plancache.hits");
  const double misses0 = counter("plancache.misses");

  predictor.predict_all(sample, {.cache = &cache});
  // One structural build + one embedding compute; the other five instances
  // of the template hit the embedding computed within the same call.
  EXPECT_EQ(counter("plancache.misses") - misses0, 2.0);
  EXPECT_EQ(counter("plancache.hits") - hits0, 5.0);
  EXPECT_GT(cache.bytes(), 0u);
  EXPECT_EQ(obs::MetricsRegistry::instance().gauge("plancache.bytes").value(),
            static_cast<double>(cache.bytes()));

  predictor.predict_all(sample, {.cache = &cache});
  // Second call: no new builds, all six instances hit.
  EXPECT_EQ(counter("plancache.misses") - misses0, 2.0);
  EXPECT_EQ(counter("plancache.hits") - hits0, 11.0);

  cache.clear();
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST_F(PlanCacheTest, ModelRetrainRetiresMemoizedEmbeddings) {
  dataset::SuiteDataset ds = make_hier_dataset();
  const dataset::Sample& sample = ds.train.front();
  core::PredictorConfig cfg = small_config(gnn::ModelKind::kParaGraph);
  cfg.epochs = 1;
  core::GnnPredictor predictor(cfg);
  predictor.set_normalizer(ds.normalizer);

  gnn::PlanCache cache(gnn::PlanCacheConfig{.min_subtree_devices = 4});
  predictor.predict_all(sample, {.cache = &cache});
  const std::uint64_t key_before = predictor.model_key();
  predictor.train(ds);
  EXPECT_NE(predictor.model_key(), key_before);

  // Post-train predictions through the same cache match the plain path —
  // the stale pre-train embedding must not be served.
  const std::vector<float> plain = predictor.predict_all(sample);
  const std::vector<float> cached = predictor.predict_all(sample, {.cache = &cache});
  ASSERT_EQ(cached.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) ASSERT_EQ(plain[i], cached[i]);
}

}  // namespace
}  // namespace paragraph

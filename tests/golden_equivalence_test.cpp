// Proves the unified message-passing engine is numerically equivalent to
// the per-model implementations it replaced. The fixtures under
// tests/golden/ were generated by tools/gen_golden from the pre-engine
// code; every ModelKind's seed-fixed forward embeddings, backward
// parameter gradients, and loss must match within 1e-5. A gradient
// mismatch also catches any drift in the serialized parameter layout,
// which core/serialize depends on positionally.
//
// The same cases also prove tape-free inference exact: every forward run
// under nn::NoGradGuard must produce the bytes of the taped forward, for
// the raw embeddings at several thread counts and for every predictor and
// ensemble inference entry point on a flat and a hierarchical deck.
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "circuitgen/hier.h"
#include "gnn/golden.h"
#include "gnn/plan_cache.h"
#include "runtime/thread_pool.h"
#include "taped_reference.h"

namespace paragraph::gnn {
namespace {

constexpr double kTol = 1e-5;

double golden_diff(const nn::Matrix& a, const nn::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return 1e30;
  double mx = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(static_cast<double>(a.data()[i]) - b.data()[i]);
    mx = std::max(mx, d);
  }
  return mx;
}

class GoldenEquivalence : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenEquivalence, MatchesPreEngineFixture) {
  const GoldenCase& c = GetParam();
  const std::string path = std::string(PARAGRAPH_GOLDEN_DIR) + "/" + c.file_stem + ".bin";
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good()) << "missing fixture " << path
                         << " (regenerate with tools/gen_golden)";
  const GoldenResult want = read_golden(is);
  const GoldenResult got = run_golden_case(c);

  EXPECT_NEAR(got.loss, want.loss, kTol) << model_kind_name(c.kind);

  ASSERT_EQ(got.embeddings.size(), want.embeddings.size());
  for (std::size_t t = 0; t < want.embeddings.size(); ++t) {
    EXPECT_LE(golden_diff(got.embeddings[t], want.embeddings[t]), kTol)
        << model_kind_name(c.kind) << ": embeddings for node type " << t;
  }

  ASSERT_EQ(got.param_grads.size(), want.param_grads.size())
      << model_kind_name(c.kind) << ": parameter count (serialized layout) changed";
  for (std::size_t p = 0; p < want.param_grads.size(); ++p) {
    EXPECT_LE(golden_diff(got.param_grads[p], want.param_grads[p]), kTol)
        << model_kind_name(c.kind) << ": gradient of parameter " << p;
  }
}

bool same_bytes(const nn::Matrix& a, const nn::Matrix& b) {
  return a.same_shape(b) && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST_P(GoldenEquivalence, TapeFreeEmbeddingsAreByteIdentical) {
  const GoldenCase& c = GetParam();
  const std::size_t threads_before = runtime::num_threads();
  for (const std::size_t threads : {1u, 2u, 4u}) {
    runtime::set_num_threads(threads);
    const GoldenResult taped = run_golden_case(c);
    GoldenResult tape_free;
    {
      const nn::NoGradGuard no_grad;
      tape_free = run_golden_case(c);
    }
    ASSERT_EQ(tape_free.embeddings.size(), taped.embeddings.size());
    for (std::size_t t = 0; t < taped.embeddings.size(); ++t) {
      EXPECT_TRUE(same_bytes(tape_free.embeddings[t], taped.embeddings[t]))
          << model_kind_name(c.kind) << ": node type " << t << " at " << threads << " threads";
    }
    // The tape-free loss reaches no parameter.
    for (const nn::Matrix& g : tape_free.param_grads)
      for (std::size_t i = 0; i < g.size(); ++i) ASSERT_EQ(g.data()[i], 0.0f);
  }
  runtime::set_num_threads(threads_before);
}

INSTANTIATE_TEST_SUITE_P(AllModelKinds, GoldenEquivalence,
                         ::testing::ValuesIn(golden_cases()),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           std::string n = info.param.file_stem;
                           for (auto& ch : n)
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           return n;
                         });

// Every inference entry point, under every PredictOptions form, against the
// taped forward, on one flat deck and one reduced hier_giant deck (whose
// repeated cells hit the PlanCache).
// The attention probe copies each softmax out of edge_attention while the
// tape-free forward frees its inputs, so the sanitizer runs of this test
// also check that nothing reads a freed intermediate.
TEST(TapeFreeInference, EveryEntryPointMatchesTheTapedForward) {
  const dataset::SuiteDataset ds = dataset::build_dataset(5, 0.05);
  core::EnsembleConfig ec;
  ec.base.embed_dim = 16;
  ec.base.num_layers = 2;
  ec.base.epochs = 1;
  core::CapEnsemble ensemble(ec);
  ensemble.train(ds);
  const core::GnnPredictor& predictor = ensemble.model(ensemble.num_models() - 1);

  const dataset::Sample hier = [] {
    circuitgen::HierGiantSpec spec;
    spec.columns = 2;
    spec.cells_per_column = 4;
    dataset::Sample s;
    s.name = spec.name;
    s.netlist = circuitgen::build_hier_giant(spec);
    s.graph = graph::build_graph(s.netlist);
    return s;
  }();
  const dataset::Sample& flat = ds.test.front();

  const testing::TapedReference reference(predictor);
  gnn::PlanCache cache;
  for (const dataset::Sample* s : {&flat, &hier}) {
    const std::vector<float> taped = reference.predict_all(*s);
    const std::vector<float> taped_ensemble = testing::taped_ensemble_predict(ensemble, *s);
    const gnn::GraphPlan plan = gnn::GraphPlan::build(s->graph, predictor.needs_homo());
    // Every PredictOptions form, on both entry points; the second cache
    // form hits what the first memoized.
    const std::pair<const char*, core::PredictOptions> forms[] = {
        {"{}", {}},
        {"{plan}", {.plan = &plan}},
        {"{cache}", {.cache = &cache}},
        {"{plan, cache}", {.plan = &plan, .cache = &cache}}};
    std::vector<core::MemberAttribution> attributions;
    for (const auto& [form, opts] : forms) {
      EXPECT_TRUE(same_bytes(predictor.predict_all(*s, opts), taped)) << s->name << ": " << form;
      EXPECT_TRUE(same_bytes(ensemble.predict(*s, opts), taped_ensemble))
          << s->name << ": ensemble " << form;
      core::MemberAttribution& attribution = attributions.emplace_back();
      EXPECT_TRUE(same_bytes(ensemble.predict(*s, opts, &attribution), taped_ensemble))
          << s->name << ": ensemble with attribution " << form;
      ASSERT_EQ(attribution.member.size(), taped_ensemble.size()) << s->name << ": " << form;
      EXPECT_EQ(attribution.member, attributions.front().member) << s->name << ": " << form;
      ASSERT_EQ(attribution.pairs.size(), ensemble.num_models() - 1) << s->name << ": " << form;
      for (std::size_t k = 0; k < attribution.pairs.size(); ++k)
        EXPECT_EQ(attribution.pairs[k].disagreements,
                  attributions.front().pairs[k].disagreements)
            << s->name << ": " << form << " pair " << k;
    }

    gnn::AttentionRecord taped_attention;
    const gnn::TypeTensors taped_emb = reference.embed(*s, plan, &taped_attention);
    EXPECT_TRUE(same_bytes(predictor.embeddings(*s, graph::NodeType::kNet),
                           taped_emb[static_cast<std::size_t>(graph::NodeType::kNet)].value()))
        << s->name << ": embeddings";
    const gnn::AttentionRecord attention = predictor.attention_analysis(*s);
    ASSERT_FALSE(taped_attention.layers.empty()) << s->name;
    ASSERT_EQ(attention.layers.size(), taped_attention.layers.size()) << s->name;
    for (std::size_t l = 0; l < attention.layers.size(); ++l) {
      ASSERT_EQ(attention.layers[l].size(), taped_attention.layers[l].size());
      for (const auto& [type, want] : taped_attention.layers[l]) {
        const gnn::AttentionRecord::Entry& got = attention.layers[l].at(type);
        EXPECT_EQ(got.mean_entropy, want.mean_entropy) << s->name << ": attention layer " << l;
        EXPECT_EQ(got.mean_max, want.mean_max) << s->name << ": attention layer " << l;
        EXPECT_EQ(got.segments, want.segments);
        EXPECT_EQ(got.edges, want.edges);
      }
    }
  }
  EXPECT_GT(cache.num_entries(), 0u) << "the hier_giant deck was not cached";
}

}  // namespace
}  // namespace paragraph::gnn

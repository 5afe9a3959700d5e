#include <gtest/gtest.h>
#include <cmath>

#include "circuit/spice_parser.h"
#include "gnn/models.h"
#include "gnn/plan.h"
#include "nn/optim.h"

namespace paragraph::gnn {
namespace {

using graph::HeteroGraph;
using graph::NodeType;

HeteroGraph small_graph() {
  return graph::build_graph(circuit::parse_spice_string(R"(
Mn1 out in mid vss nmos L=16n NFIN=2
Mn2 mid in2 vss vss nmos L=16n NFIN=4
Mp1 out in vdd vdd pmos L=16n NFIN=4
R1 out o2 5k L=1u
C1 o2 vss 2f
)"));
}

GraphBatch make_batch(const HeteroGraph& g, const GraphPlan& plan) {
  GraphBatch b;
  b.plan = &plan;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const auto nt = static_cast<NodeType>(t);
    if (g.num_nodes(nt) == 0) continue;
    b.features[t] = nn::Tensor(g.features(nt));
  }
  return b;
}

TEST(HomoPlan, OffsetsAndCounts) {
  const HeteroGraph g = small_graph();
  const GraphPlan plan = GraphPlan::build(g, /*with_homo=*/true);
  const HomoPlan& v = plan.homo();
  EXPECT_EQ(v.total_nodes, g.total_nodes());
  std::size_t sum = 0;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    EXPECT_EQ(v.type_count[t], g.num_nodes(static_cast<NodeType>(t)));
    EXPECT_EQ(v.type_offset[t], sum);
    // type_rows slices the type's block out of the global index space.
    if (v.type_count[t] != 0) {
      ASSERT_TRUE(v.type_rows[t] != nullptr);
      ASSERT_EQ(v.type_rows[t]->size(), v.type_count[t]);
      for (std::size_t i = 0; i < v.type_count[t]; ++i)
        EXPECT_EQ((*v.type_rows[t])[i], static_cast<std::int32_t>(sum + i));
    }
    sum += v.type_count[t];
  }
  EXPECT_EQ(sum, v.total_nodes);
  EXPECT_EQ(v.src->size(), g.total_edges());
  EXPECT_EQ(v.inv_in_degree->size(), v.total_nodes);
}

TEST(HomoPlan, SelfLoopsPresent) {
  const HeteroGraph g = small_graph();
  const GraphPlan plan = GraphPlan::build(g, /*with_homo=*/true);
  const HomoPlan& v = plan.homo();
  EXPECT_EQ(v.sl_src->size(), g.total_edges() + v.total_nodes);
  // Every node has exactly one self loop.
  std::vector<int> self(v.total_nodes, 0);
  for (std::size_t e = 0; e < v.sl_src->size(); ++e)
    if ((*v.sl_src)[e] == (*v.sl_dst)[e]) ++self[static_cast<std::size_t>((*v.sl_src)[e])];
  for (const int c : self) EXPECT_EQ(c, 1);
}

TEST(HomoPlan, GcnCoefficientsAreSymmetricNormalised) {
  const HeteroGraph g = small_graph();
  const GraphPlan plan = GraphPlan::build(g, /*with_homo=*/true);
  const HomoPlan& v = plan.homo();
  // deg(i) on the augmented graph = in-degree + 1; coefficient of the self
  // loop of an isolated node would be 1.
  std::vector<double> deg(v.total_nodes, 1.0);
  for (const auto d : *v.dst) deg[static_cast<std::size_t>(d)] += 1.0;
  ASSERT_EQ(v.gcn_coeff->size(), v.sl_src->size());
  for (std::size_t e = 0; e < v.sl_src->size(); ++e) {
    const double expect = 1.0 / std::sqrt(deg[static_cast<std::size_t>((*v.sl_src)[e])] *
                                          deg[static_cast<std::size_t>((*v.sl_dst)[e])]);
    EXPECT_NEAR((*v.gcn_coeff)[e], expect, 1e-6);
  }
}

TEST(HomoPlan, DstSortedWithSegments) {
  const HeteroGraph g = small_graph();
  const GraphPlan plan = GraphPlan::build(g, /*with_homo=*/true);
  const HomoPlan& v = plan.homo();
  for (std::size_t e = 1; e < v.dst->size(); ++e) EXPECT_LE((*v.dst)[e - 1], (*v.dst)[e]);
  for (std::size_t e = 1; e < v.sl_dst->size(); ++e)
    EXPECT_LE((*v.sl_dst)[e - 1], (*v.sl_dst)[e]);
  EXPECT_EQ(v.dst_segments->num_segments(), v.total_nodes);
  EXPECT_EQ(v.dst_segments->num_elements(), v.dst->size());
  EXPECT_EQ(v.sl_dst_segments->num_segments(), v.total_nodes);
  EXPECT_EQ(v.sl_dst_segments->num_elements(), v.sl_dst->size());
  // Segment i holds exactly the edges into node i.
  for (std::size_t i = 0; i < v.total_nodes; ++i)
    for (auto k = v.dst_segments->offsets[i]; k < v.dst_segments->offsets[i + 1]; ++k)
      EXPECT_EQ((*v.dst)[static_cast<std::size_t>(k)], static_cast<std::int32_t>(i));
}

class ModelKindTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelKindTest, EmbedShapes) {
  const HeteroGraph g = small_graph();
  const GraphPlan plan = GraphPlan::build(g, /*with_homo=*/true);
  util::Rng rng(3);
  auto model = make_model(GetParam(), 16, 2, rng);
  const GraphBatch batch = make_batch(g, plan);
  const TypeTensors emb = model->embed(batch);
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const auto nt = static_cast<NodeType>(t);
    if (g.num_nodes(nt) == 0) continue;
    ASSERT_TRUE(emb[t].defined()) << graph::node_type_name(nt);
    EXPECT_EQ(emb[t].rows(), g.num_nodes(nt));
    EXPECT_EQ(emb[t].cols(), 16u);
  }
  EXPECT_GT(model->num_parameters(), 0u);
}

TEST_P(ModelKindTest, DeterministicGivenSeed) {
  const HeteroGraph g = small_graph();
  const GraphPlan plan = GraphPlan::build(g, /*with_homo=*/true);
  auto run = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    auto model = make_model(GetParam(), 8, 2, rng);
    const TypeTensors emb = model->embed(make_batch(g, plan));
    return emb[static_cast<std::size_t>(NodeType::kNet)].value()(0, 0);
  };
  EXPECT_FLOAT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST_P(ModelKindTest, CanOverfitTinyRegression) {
  // One training signal: predict (normalised) fanout-like value on nets.
  const HeteroGraph g = small_graph();
  const GraphPlan plan = GraphPlan::build(g, /*with_homo=*/true);
  util::Rng rng(7);
  auto model = make_model(GetParam(), 8, 2, rng);
  nn::Linear head(8, 1, rng);

  const std::size_t n_nets = g.num_nodes(NodeType::kNet);
  nn::Matrix target(n_nets, 1);
  for (std::size_t i = 0; i < n_nets; ++i) target(i, 0) = 0.1f * static_cast<float>(i) - 0.2f;

  std::vector<nn::Tensor> params = model->parameters();
  const auto hp = head.parameters();
  params.insert(params.end(), hp.begin(), hp.end());
  nn::Adam opt(params, 0.01f);

  float first = 0.0f, last = 0.0f;
  for (int it = 0; it < 150; ++it) {
    const GraphBatch batch = make_batch(g, plan);
    const TypeTensors emb = model->embed(batch);
    nn::Tensor pred = head.forward(emb[static_cast<std::size_t>(NodeType::kNet)]);
    nn::Tensor loss = nn::mse_loss(pred, target);
    opt.zero_grad();
    loss.backward();
    opt.step();
    if (it == 0) first = loss.item();
    last = loss.item();
  }
  EXPECT_LT(last, first * 0.1f) << model_kind_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelKindTest,
                         ::testing::Values(ModelKind::kGcn, ModelKind::kGraphSage,
                                           ModelKind::kRgcn, ModelKind::kGat,
                                           ModelKind::kParaGraph,
                                           ModelKind::kParaGraphNoAttention,
                                           ModelKind::kParaGraphNoEdgeTypes,
                                           ModelKind::kParaGraphNoConcat),
                         [](const ::testing::TestParamInfo<ModelKind>& info) {
                           std::string name = model_kind_name(info.param);
                           for (auto& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(Models, HomogeneousModelsRequireHomoPlan) {
  const HeteroGraph g = small_graph();
  const GraphPlan typed_only = GraphPlan::build(g);
  util::Rng rng(1);
  for (const auto kind : {ModelKind::kGcn, ModelKind::kGraphSage, ModelKind::kGat}) {
    auto model = make_model(kind, 8, 1, rng);
    EXPECT_TRUE(model->homogeneous()) << model_kind_name(kind);
    EXPECT_THROW(model->embed(make_batch(g, typed_only)), std::invalid_argument)
        << model_kind_name(kind);
  }
}

TEST(Models, RelationalModelsRunOnTypedOnlyPlan) {
  const HeteroGraph g = small_graph();
  const GraphPlan typed_only = GraphPlan::build(g);
  util::Rng rng(1);
  for (const auto kind : {ModelKind::kRgcn, ModelKind::kParaGraph}) {
    auto model = make_model(kind, 8, 1, rng);
    EXPECT_FALSE(model->homogeneous()) << model_kind_name(kind);
    EXPECT_NO_THROW(model->embed(make_batch(g, typed_only))) << model_kind_name(kind);
  }
}

TEST(Models, EveryModelRequiresAPlan) {
  const HeteroGraph g = small_graph();
  const GraphPlan plan = GraphPlan::build(g, /*with_homo=*/true);
  util::Rng rng(1);
  for (const auto kind : {ModelKind::kGcn, ModelKind::kParaGraph}) {
    auto model = make_model(kind, 8, 1, rng);
    GraphBatch batch = make_batch(g, plan);
    batch.plan = nullptr;
    EXPECT_THROW(model->embed(batch), std::invalid_argument) << model_kind_name(kind);
  }
}

TEST(Models, ParaGraphHasPerEdgeTypeWeights) {
  util::Rng rng(1);
  auto pg = make_model(ModelKind::kParaGraph, 8, 2, rng);
  util::Rng rng2(1);
  auto no_types = make_model(ModelKind::kParaGraphNoEdgeTypes, 8, 2, rng2);
  // Per-edge-type weights make full ParaGraph much larger.
  EXPECT_GT(pg->num_parameters(), 3 * no_types->num_parameters());
}

TEST(Models, MultiHeadParaGraphRunsAndGrows) {
  const HeteroGraph g = small_graph();
  util::Rng rng1(2);
  auto one_head = make_model(ModelKind::kParaGraph, 8, 2, rng1, 1);
  util::Rng rng2(2);
  auto four_heads = make_model(ModelKind::kParaGraph, 8, 2, rng2, 4);
  EXPECT_GT(four_heads->num_parameters(), one_head->num_parameters());
  const GraphPlan plan = GraphPlan::build(g);
  const GraphBatch batch = make_batch(g, plan);
  const TypeTensors emb = four_heads->embed(batch);
  const auto& net_emb = emb[static_cast<std::size_t>(NodeType::kNet)];
  ASSERT_TRUE(net_emb.defined());
  EXPECT_EQ(net_emb.cols(), 8u);
  for (std::size_t i = 0; i < net_emb.value().size(); ++i)
    EXPECT_FALSE(std::isnan(net_emb.value().data()[i]));
}

TEST(Models, AttentionProbeFillsRecord) {
  const HeteroGraph g = small_graph();
  util::Rng rng(4);
  auto model = make_model(ModelKind::kParaGraph, 8, 2, rng);
  const GraphPlan plan = GraphPlan::build(g);
  GraphBatch batch = make_batch(g, plan);
  AttentionRecord record;
  batch.attention_out = &record;
  model->embed(batch);
  ASSERT_EQ(record.layers.size(), 2u);
  bool any = false;
  for (const auto& [type_index, entry] : record.layers.back()) {
    EXPECT_LT(type_index, graph::edge_type_registry().size());
    if (entry.segments > 0) {
      any = true;
      EXPECT_GE(entry.mean_entropy, 0.0);
      EXPECT_GT(entry.mean_max, 0.0);
      EXPECT_LE(entry.mean_max, 1.0 + 1e-6);
    }
  }
  EXPECT_TRUE(any);  // the shared "out" net has multi-edge segments
}

TEST(Models, SummarizeAttentionMath) {
  // Two segments: uniform over 2 (entropy ln 2) and one-hot-ish.
  nn::Matrix alpha(4, 1);
  alpha(0, 0) = 0.5f;
  alpha(1, 0) = 0.5f;
  alpha(2, 0) = 0.99f;
  alpha(3, 0) = 0.01f;
  nn::SegmentIndex seg;
  seg.offsets = {0, 2, 4};
  const auto e = summarize_attention(alpha, seg);
  EXPECT_EQ(e.segments, 2u);
  EXPECT_EQ(e.edges, 4u);
  const double uniform_h = std::log(2.0);
  const double focused_h = -(0.99 * std::log(0.99) + 0.01 * std::log(0.01));
  EXPECT_NEAR(e.mean_entropy, (uniform_h + focused_h) / 2.0, 1e-6);
  EXPECT_NEAR(e.mean_max, (0.5 + 0.99) / 2.0, 1e-6);
}

TEST(Models, KindNames) {
  EXPECT_STREQ(model_kind_name(ModelKind::kParaGraph), "ParaGraph");
  EXPECT_STREQ(model_kind_name(ModelKind::kGraphSage), "GraphSage");
}

}  // namespace
}  // namespace paragraph::gnn

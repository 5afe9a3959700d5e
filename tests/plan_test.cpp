// GraphPlan: the once-per-graph compute plan behind the message-passing
// engine and the only graph structure a model sees. Structure checks of the
// typed part (gnn_test checks the HomoPlan), and the obs-counter regression
// test proving degree buffers are built at plan time, never inside the
// per-forward layer loop.
#include <cmath>

#include <gtest/gtest.h>

#include "circuit/spice_parser.h"
#include "gnn/models.h"
#include "gnn/plan.h"
#include "obs/control.h"
#include "obs/metrics.h"

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

TEST(GraphPlan, MirrorsTypedEdges) {
  const HeteroGraph g = small_graph();
  const GraphPlan plan = GraphPlan::build(g);
  EXPECT_FALSE(plan.has_homo());
  std::size_t planned_edges = 0;
  for (const auto& ep : plan.edge_types()) {
    EXPECT_GT(ep.num_edges(), 0u);
    planned_edges += ep.num_edges();
    EXPECT_EQ(ep.dst->size(), ep.num_edges());
    EXPECT_EQ(ep.dst_segments->num_segments(), ep.num_dst_nodes);
    EXPECT_EQ(ep.dst_segments->num_elements(), ep.num_edges());
    // Inverse degrees match the segment widths, zero for untouched nodes.
    ASSERT_EQ(ep.inv_dst_degree->size(), ep.num_dst_nodes);
    for (std::size_t i = 0; i < ep.num_dst_nodes; ++i) {
      const auto deg = ep.dst_segments->offsets[i + 1] - ep.dst_segments->offsets[i];
      const float want = deg > 0 ? 1.0f / static_cast<float>(deg) : 0.0f;
      EXPECT_FLOAT_EQ((*ep.inv_dst_degree)[i], want);
    }
    // Compact index round-trips the edge list.
    ASSERT_EQ(ep.src_compact.remap->size(), ep.num_edges());
    for (std::size_t e = 0; e < ep.num_edges(); ++e) {
      const auto slot = static_cast<std::size_t>((*ep.src_compact.remap)[e]);
      EXPECT_EQ((*ep.src_compact.rows)[slot], (*ep.src)[e]);
    }
  }
  EXPECT_EQ(planned_edges, g.total_edges());
}

// Regression: the inverse-degree buffers RGCN/ParaGraph once rebuilt on
// every forward are now built exactly once, at plan time. The obs counter
// is incremented by the only code path that builds them.
TEST(GraphPlan, NoPerForwardDegreeBufferAllocation) {
  const HeteroGraph g = small_graph();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& builds = obs::MetricsRegistry::instance().counter("gnn.plan.degree_buffers");

  const GraphPlan plan = GraphPlan::build(g);
  const auto after_build = builds.value();
  EXPECT_GE(after_build, plan.edge_types().size());

  util::Rng rng(11);
  for (const auto kind : {ModelKind::kRgcn, ModelKind::kParaGraphNoAttention}) {
    auto model = make_model(kind, 8, 2, rng);
    const GraphBatch batch = make_batch(g, plan);
    for (int i = 0; i < 3; ++i) model->embed(batch);
    EXPECT_EQ(builds.value(), after_build)
        << model_kind_name(kind) << " rebuilt degree buffers during forward";
  }
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace paragraph::gnn

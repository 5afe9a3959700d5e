// End-to-end integration tests: generator -> layout -> SPICE round trip ->
// graph -> training -> prediction -> simulation study.
#include <gtest/gtest.h>

#include <sstream>

#include "circuit/spice_parser.h"
#include "circuit/spice_writer.h"
#include "core/ensemble.h"
#include "core/learners.h"
#include "layout/annotator.h"
#include "sim/metrics.h"

namespace paragraph {
namespace {

TEST(Integration, GeneratedCircuitSurvivesSpiceRoundTrip) {
  circuitgen::CircuitSpec spec;
  spec.name = "rt";
  spec.seed = 3;
  spec.opamps = 1;
  spec.glue_gates = 10;
  spec.level_shifters = 2;
  spec.esd_pads = 1;
  const circuit::Netlist nl = circuitgen::generate_circuit(spec);
  const std::string text = circuit::write_spice_string(nl);
  const circuit::Netlist re = circuit::parse_spice_string(text);
  // Floating nets (unused primary inputs) vanish in SPICE text, so compare
  // connected nets only.
  auto connected_nets = [](const circuit::Netlist& n) {
    const auto fanout = n.net_fanout();
    std::size_t count = 0;
    for (circuit::NetId id = 0; static_cast<std::size_t>(id) < n.num_nets(); ++id)
      if (!n.net(id).is_supply && fanout[static_cast<std::size_t>(id)] > 0) ++count;
    return count;
  };
  EXPECT_EQ(connected_nets(nl), connected_nets(re));
  const auto s1 = nl.stats();
  const auto s2 = re.stats();
  for (std::size_t k = 0; k < circuit::kNumDeviceKinds; ++k)
    EXPECT_EQ(s1.device_count[k], s2.device_count[k]);

  // The reparsed netlist feeds the full layout+graph pipeline.
  circuit::Netlist annotated = re;
  layout::annotate_layout(annotated, 1);
  const graph::HeteroGraph g = graph::build_graph(annotated);
  EXPECT_GT(g.total_edges(), 0u);
}

TEST(Integration, ParaGraphLearnsCapOnTinySuite) {
  const auto ds = dataset::build_dataset(33, 0.1);
  core::LearnerConfig cfg;
  cfg.learner = core::LearnerKind::kParaGraph;
  cfg.target = dataset::TargetKind::kCap;
  cfg.max_v_ff = 10.0;
  cfg.epochs = 60;
  const auto gnn_res = core::train_and_evaluate(cfg, ds).pooled();
  cfg.learner = core::LearnerKind::kLinear;
  const auto lin_res = core::train_and_evaluate(cfg, ds).pooled();
  // The GNN must comfortably beat feature-only linear regression.
  EXPECT_GT(gnn_res.r2, 0.2);
  EXPECT_GT(gnn_res.r2, lin_res.r2 - 0.05);
}

TEST(Integration, SimulationStudyRunsEndToEnd) {
  // Small-scale Table V pipeline with the designer baseline only.
  auto ds = dataset::build_dataset(44, 0.08);
  const auto& tech = layout::default_tech();
  sim::MetricOptions opts;
  opts.max_stage_nets = 3;
  std::size_t total_metrics = 0;
  for (const auto& s : ds.test) {
    const auto truth = sim::ground_truth_annotation(s.netlist, tech);
    const auto designer = sim::designer_annotation(s.netlist, tech, 7);
    const auto none = sim::no_parasitics_annotation(s.netlist, tech);
    const auto m_truth = sim::evaluate_metrics(s.netlist, truth, tech, opts);
    const auto m_designer = sim::evaluate_metrics(s.netlist, designer, tech, opts);
    const auto m_none = sim::evaluate_metrics(s.netlist, none, tech, opts);
    ASSERT_EQ(m_truth.size(), m_designer.size());
    ASSERT_EQ(m_truth.size(), m_none.size());
    total_metrics += m_truth.size();
    for (std::size_t i = 0; i < m_truth.size(); ++i) {
      EXPECT_GT(m_truth[i].value, 0.0) << m_truth[i].name;
      EXPECT_GE(m_none[i].value, 0.0);
    }
  }
  EXPECT_GT(total_metrics, 8u);
}

TEST(Integration, EnsembleImprovesWideRangeMape) {
  // The ensemble should not be (much) worse than the widest single model
  // over the full range; on the low decades it is typically much better.
  const auto ds = dataset::build_dataset(55, 0.1);
  core::EnsembleConfig cfg;
  cfg.max_vs_ff = {1.0, 10.0, 100.0, 1e4};
  cfg.base.epochs = 40;
  cfg.base.num_layers = 3;
  cfg.base.embed_dim = 16;
  core::CapEnsemble ens(cfg);
  ens.train(ds);
  const auto ens_metrics = ens.evaluate(ds.test).pooled();

  // Compare against the widest member re-evaluated over the full range.
  core::EvalResult wide;
  for (const auto& s : ds.test) {
    core::CircuitPrediction cp;
    cp.name = s.name;
    cp.truth = s.target_values(dataset::TargetKind::kCap);
    cp.pred = ens.model(3).predict_all(s);
    wide.circuits.push_back(std::move(cp));
  }
  EXPECT_LT(ens_metrics.mape, wide.pooled().mape * 1.05);
}

}  // namespace
}  // namespace paragraph

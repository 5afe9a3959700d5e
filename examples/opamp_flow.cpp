// The paper's motivating scenario (Fig 1): an op-amp schematic whose
// post-layout behaviour must be estimated before layout exists.
//
// Builds a two-stage op-amp with the structure library, then compares three
// pre-layout annotation sources against post-layout ground truth:
//   * the designer's rule-of-thumb estimate,
//   * a trained ParaGraph prediction,
//   * no parasitics at all,
// both at the net level (capacitances) and at the circuit-metric level
// (stage delays / slew / power from the MNA simulator).
#include <cmath>
#include <cstdio>
#include <iostream>

#include "circuitgen/blocks.h"
#include "core/predictor.h"
#include "layout/annotator.h"
#include "sim/metrics.h"
#include "util/strings.h"
#include "util/table.h"

using namespace paragraph;

namespace {

circuit::Netlist build_opamp_testbench() {
  circuit::Netlist nl("opamp_tb");
  util::Rng rng(2024);
  circuitgen::BlockContext ctx(nl, rng, "tb");
  const auto inp = nl.add_net("tb/inp");
  const auto inn = nl.add_net("tb/inn");
  const auto bias = circuitgen::bias_generator(ctx);
  const auto out = circuitgen::two_stage_opamp(ctx, inp, inn, bias);
  // Loaded by a comparator and an output buffer, like a regulator loop.
  circuitgen::strongarm_comparator(ctx, nl.add_net("tb/clk"), out, inn);
  circuitgen::inverter_chain(ctx, out, 3);
  nl.validate();
  return nl;
}

}  // namespace

int main() {
  circuit::Netlist nl = build_opamp_testbench();
  layout::annotate_layout(nl, /*seed=*/5);
  const auto& tech = layout::default_tech();
  std::printf("op-amp testbench: %zu devices, %zu nets\n\n", nl.num_devices(), nl.num_nets());

  // Train a ParaGraph CAP model on the standard suite.
  std::printf("training ParaGraph CAP model...\n");
  const dataset::SuiteDataset ds = dataset::build_dataset(42, 0.12);
  core::PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.max_v_ff = 100.0;
  pc.epochs = 80;
  pc.num_layers = 4;
  core::GnnPredictor predictor(pc);
  predictor.train(ds);

  dataset::Sample sample;
  sample.name = nl.name();
  sample.graph = graph::build_graph(nl);
  for (const auto t : dataset::all_targets()) {
    auto& per_type = sample.targets[static_cast<std::size_t>(t)];
    for (const auto nt : dataset::target_node_types(t))
      per_type.push_back(dataset::extract_targets(nl, sample.graph, nt, t));
  }
  sample.netlist = nl;
  const auto pred_caps = predictor.predict_all(sample);

  // Annotation sources.
  const auto truth = sim::ground_truth_annotation(nl, tech);
  const auto designer = sim::designer_annotation(nl, tech, /*designer_seed=*/3);
  const auto none = sim::no_parasitics_annotation(nl, tech);
  const std::size_t n_mos = sample.graph.num_nodes(graph::NodeType::kTransistor) +
                            sample.graph.num_nodes(graph::NodeType::kTransistorThick);
  // Device parameters: keep nominal here; the net-cap effect dominates the
  // op-amp metrics and keeps the example fast.
  std::vector<float> sa(n_mos), da(n_mos), l1(n_mos), l2(n_mos);
  {
    std::size_t i = 0;
    for (const auto nt : {graph::NodeType::kTransistor, graph::NodeType::kTransistorThick})
      for (const auto did : sample.graph.origins(nt)) {
        const auto lay = sim::nominal_layout(nl.device(did), tech);
        sa[i] = static_cast<float>(lay.source_area * 1e15);
        da[i] = static_cast<float>(lay.drain_area * 1e15);
        l1[i] = static_cast<float>(lay.lde[0] * 1e9);
        l2[i] = static_cast<float>(lay.lde[1] * 1e9);
        ++i;
      }
  }
  const auto predicted =
      sim::make_predicted_annotation(nl, sample.graph, tech, "ParaGraph", pred_caps, sa, da, l1, l2);

  // ---- net-level comparison on the op-amp's interesting nets ----
  util::Table net_table({"net", "post-layout [fF]", "designer [fF]", "ParaGraph [fF]"});
  const auto& origins = sample.graph.origins(graph::NodeType::kNet);
  for (std::size_t i = 0; i < origins.size(); ++i) {
    const auto id = origins[i];
    const std::string& name = nl.net(id).name;
    if (name.find("ota") == std::string::npos && name.find("amp") == std::string::npos &&
        name.find("bias") == std::string::npos && name.find("tail") == std::string::npos)
      continue;
    net_table.add_row(name, {*nl.net(id).ground_truth_cap * 1e15,
                             designer.net_cap[static_cast<std::size_t>(id)] * 1e15,
                             static_cast<double>(pred_caps[i])},
                      3);
  }
  std::printf("\nnet parasitics on the op-amp nets:\n");
  net_table.print(std::cout);

  // ---- circuit-metric comparison (mini Table V) ----
  sim::MetricOptions mopts;
  mopts.max_stage_nets = 5;
  const auto m_truth = sim::evaluate_metrics(nl, truth, tech, mopts);
  const auto m_designer = sim::evaluate_metrics(nl, designer, tech, mopts);
  const auto m_pred = sim::evaluate_metrics(nl, predicted, tech, mopts);
  const auto m_none = sim::evaluate_metrics(nl, none, tech, mopts);

  util::Table mt({"metric", "post-layout", "w/o parasitics err", "designer err", "ParaGraph err"});
  auto err = [](double ref, double v) {
    return ref == 0.0 ? 0.0 : std::abs(v - ref) / std::abs(ref) * 100.0;
  };
  for (std::size_t i = 0; i < m_truth.size(); ++i) {
    mt.add_row({m_truth[i].name, util::format("%.4g", m_truth[i].value),
                util::format("%.1f", err(m_truth[i].value, m_none[i].value)),
                util::format("%.1f", err(m_truth[i].value, m_designer[i].value)),
                util::format("%.1f", err(m_truth[i].value, m_pred[i].value))});
  }
  std::printf("\nsimulation-metric errors vs post-layout (%%):\n");
  mt.print(std::cout);
  return 0;
}

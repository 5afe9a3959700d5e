// Quickstart: the full ParaGraph flow on a hand-written schematic.
//
//   1. Parse a SPICE netlist (an inverter driving a NAND gate).
//   2. Convert it to the heterogeneous graph of paper Section II-B and
//      print the Fig 3-style structure.
//   3. Run the procedural layout to obtain ground-truth parasitics.
//   4. Train a small ParaGraph capacitance model on a generated suite and
//      predict the inverter's net capacitances pre-layout.
#include <cstdio>

#include "circuit/spice_parser.h"
#include "core/predictor.h"
#include "graph/hetero_graph.h"
#include "layout/annotator.h"

using namespace paragraph;

int main() {
  // ---- 1. schematic ----
  const char* schematic = R"(
* inverter driving one nand2 input
.global vdd vss
Minv_n out in  vss vss nmos_lvt L=16n NFIN=2 NF=1
Minv_p out in  vdd vdd pmos_lvt L=16n NFIN=4 NF=1
Mna    y   out x   vss nmos_lvt L=16n NFIN=2 NF=1
Mnb    x   b   vss vss nmos_lvt L=16n NFIN=2 NF=1
Mpa    y   out vdd vdd pmos_lvt L=16n NFIN=3 NF=1
Mpb    y   b   vdd vdd pmos_lvt L=16n NFIN=3 NF=1
.end
)";
  circuit::Netlist nl = circuit::parse_spice_string(schematic, "quickstart");
  std::printf("parsed netlist: %zu devices, %zu nets\n", nl.num_devices(), nl.num_nets());

  // ---- 2. heterogeneous graph (paper Fig 3) ----
  const graph::HeteroGraph g = graph::build_graph(nl);
  std::printf("\nheterogeneous graph: %zu nodes, %zu directed edges\n", g.total_nodes(),
              g.total_edges());
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const auto nt = static_cast<graph::NodeType>(t);
    if (g.num_nodes(nt) == 0) continue;
    std::printf("  %-18s %zu nodes (feature dim %zu)\n", graph::node_type_name(nt),
                g.num_nodes(nt), graph::feature_dim(nt));
  }
  std::printf("  edge-type blocks present:\n");
  for (const auto& te : g.edges()) {
    std::printf("    %-28s %zu edges\n",
                graph::edge_type_registry()[te.type_index].name.c_str(), te.num_edges());
  }

  // ---- 3. "post-layout" ground truth from the procedural layout ----
  const auto lay = layout::annotate_layout(nl, /*seed=*/7);
  std::printf("\nprocedural layout: %zu diffusion chains, %zu shared boundaries\n",
              lay.num_chains, lay.num_shared_boundaries);

  // ---- 4. train ParaGraph on a generated suite, predict pre-layout ----
  std::printf("\ntraining ParaGraph CAP model on the synthetic suite (small config)...\n");
  const dataset::SuiteDataset ds = dataset::build_dataset(/*seed=*/42, /*scale=*/0.12);
  core::PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.max_v_ff = 100.0;
  pc.epochs = 80;
  pc.num_layers = 4;
  core::GnnPredictor predictor(pc);
  predictor.train(ds);

  // Wrap the quickstart circuit as a sample and predict its nets.
  dataset::SuiteDataset one;  // reuse the trained normalizer
  dataset::Sample sample;
  sample.name = nl.name();
  sample.graph = graph::build_graph(nl);
  for (const auto t : dataset::all_targets()) {
    auto& per_type = sample.targets[static_cast<std::size_t>(t)];
    for (const auto nt : dataset::target_node_types(t))
      per_type.push_back(dataset::extract_targets(nl, sample.graph, nt, t));
  }
  sample.netlist = nl;

  const auto preds = predictor.predict_all(sample);
  std::printf("\n%-8s %14s %14s\n", "net", "predicted", "post-layout");
  const auto& origins = sample.graph.origins(graph::NodeType::kNet);
  for (std::size_t i = 0; i < origins.size(); ++i) {
    std::printf("%-8s %11.3f fF %11.3f fF\n", nl.net(origins[i]).name.c_str(), preds[i],
                *nl.net(origins[i]).ground_truth_cap * 1e15);
  }
  std::printf("\ndone. See examples/opamp_flow.cpp for the designer-vs-model study.\n");
  return 0;
}

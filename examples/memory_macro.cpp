// Mixed-signal macro example: an SRAM array with its power-management
// companions (LDO, charge pump, clock divider, delay line) built from the
// structure library, pushed through the full ParaGraph flow.
//
// SRAM word/bit lines are the classic very-high-fanout nets; this example
// shows the capacitance model ranking them correctly against leaf nets.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "circuitgen/blocks.h"
#include "core/predictor.h"
#include "layout/annotator.h"
#include "util/table.h"

using namespace paragraph;

int main() {
  circuit::Netlist nl("memmacro");
  util::Rng rng(77);
  circuitgen::BlockContext ctx(nl, rng, "mm");

  const auto clk = nl.add_net("mm/clk");
  const auto bias = circuitgen::bias_generator(ctx);
  const auto vref = circuitgen::resistor_ladder(ctx, 3)[1];
  circuitgen::ldo(ctx, vref, bias);
  const auto clkb = circuitgen::inverter(ctx, clk);
  circuitgen::charge_pump(ctx, clk, clkb, 4);
  const auto slow_clk = circuitgen::clock_divider(ctx, clk, 2);
  circuitgen::delay_line(ctx, slow_clk, vref, 6);
  const auto wordlines = circuitgen::sram_array(ctx, 8, 16);
  // Wordline drivers from the divided clock.
  for (const auto wl : wordlines) {
    const auto drv = circuitgen::inverter(ctx, slow_clk);
    circuitgen::inverter(ctx, drv, wl);
  }
  nl.validate();

  layout::annotate_layout(nl, 5);
  const auto st = nl.stats();
  std::printf("memory macro: %zu devices (%zu transistors), %zu nets\n", nl.num_devices(),
              st.transistors(), st.num_nets);

  std::printf("training ParaGraph CAP model...\n");
  const auto ds = dataset::build_dataset(42, 0.12);
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
  const auto preds = predictor.predict_all(sample);

  // Rank nets by predicted capacitance; the word/bit lines should surface.
  const auto& origins = sample.graph.origins(graph::NodeType::kNet);
  std::vector<std::size_t> order(origins.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return preds[a] > preds[b]; });

  util::Table table({"net", "predicted [fF]", "post-layout [fF]"});
  for (std::size_t k = 0; k < std::min<std::size_t>(10, order.size()); ++k) {
    const auto i = order[k];
    table.add_row(nl.net(origins[i]).name,
                  {static_cast<double>(preds[i]),
                   *nl.net(origins[i]).ground_truth_cap * 1e15},
                  2);
  }
  std::printf("\ntop-10 nets by predicted capacitance:\n");
  table.print(std::cout);

  std::size_t lines_in_top = 0;
  for (std::size_t k = 0; k < std::min<std::size_t>(10, order.size()); ++k) {
    const std::string& n = nl.net(origins[order[k]]).name;
    if (n.find("/bl") != std::string::npos || n.find("/wl") != std::string::npos ||
        n.find("clk") != std::string::npos)
      ++lines_in_top;
  }
  std::printf("\n%zu of the top 10 are word/bit/clock lines, as layout intuition expects.\n",
              lines_in_top);
  return 0;
}

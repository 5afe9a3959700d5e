// Extension bench: attention interpretability.
//
// Section III notes that "analyzing the learned attentional weights may
// also help model interpretability". This bench trains a ParaGraph CAP
// model and reports, per edge type, how focused the learned attention is
// on the test circuits: the mean softmax entropy over destinations with
// multiple incoming edges (log(k) = uniform, 0 = one-hot) and the mean
// weight given to the strongest neighbour.
#include <cmath>
#include <iostream>
#include <map>

#include "bench_common.h"
#include "core/predictor.h"
#include "util/strings.h"
#include "util/table.h"

using namespace paragraph;

int main() {
  const auto profile = bench::BenchProfile::from_env();
  profile.print_banner("Extension: learned attention analysis");
  const auto ds = bench::build_bench_dataset(profile);

  std::printf("training ParaGraph CAP model...\n");
  core::PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.max_v_ff = 10.0;
  pc.epochs = profile.gnn_epochs;
  pc.seed = profile.seed;
  core::GnnPredictor predictor(pc);
  predictor.train(ds);

  // Pool attention statistics over all test circuits (final layer).
  struct Pooled {
    double entropy = 0.0;
    double max_w = 0.0;
    std::size_t segments = 0;
    std::size_t edges = 0;
  };
  std::map<std::size_t, Pooled> by_type;
  for (const auto& s : ds.test) {
    const auto record = predictor.attention_analysis(s);
    if (record.layers.empty()) continue;
    const auto& last = record.layers.back();
    for (const auto& [type_index, entry] : last) {
      Pooled& p = by_type[type_index];
      p.entropy += entry.mean_entropy * entry.segments;
      p.max_w += entry.mean_max * entry.segments;
      p.segments += entry.segments;
      p.edges += entry.edges;
    }
  }

  util::Table table({"edge type", "multi-edge dsts", "edges", "mean entropy [nats]",
                     "uniform entropy", "mean max weight"});
  for (const auto& [type_index, p] : by_type) {
    if (p.segments == 0) continue;
    const double avg_fanin = static_cast<double>(p.edges) / p.segments;
    table.add_row({graph::edge_type_registry()[type_index].name,
                   std::to_string(p.segments), std::to_string(p.edges),
                   util::format("%.3f", p.entropy / p.segments),
                   util::format("%.3f", std::log(avg_fanin)),
                   util::format("%.3f", p.max_w / p.segments)});
  }
  std::printf("\nfinal-layer attention by relation (entropy << uniform -> the model singles"
              " out specific neighbours):\n");
  table.print(std::cout);
  return 0;
}

#include "gnn/common.h"

#include <algorithm>
#include <cmath>

namespace paragraph::gnn {

using graph::NodeType;
using nn::Tensor;

InputTransform::InputTransform(std::size_t embed_dim, util::Rng& rng) {
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    per_type_.push_back(std::make_unique<nn::Linear>(
        graph::feature_dim(static_cast<NodeType>(t)), embed_dim, rng));
    register_module(per_type_.back().get());
  }
}

TypeTensors InputTransform::forward(const GraphBatch& batch) const {
  TypeTensors out;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const Tensor& f = batch.features[t];
    if (!f.defined() || f.rows() == 0) continue;
    out[t] = per_type_[t]->forward(f);
  }
  return out;
}

AttentionRecord::Entry summarize_attention(const nn::Matrix& alpha,
                                            const nn::SegmentIndex& segments) {
  AttentionRecord::Entry e;
  double entropy_sum = 0.0;
  double max_sum = 0.0;
  for (std::size_t s = 0; s < segments.num_segments(); ++s) {
    const auto begin = static_cast<std::size_t>(segments.offsets[s]);
    const auto end = static_cast<std::size_t>(segments.offsets[s + 1]);
    if (end - begin < 2) continue;  // trivial softmax over one edge
    double h = 0.0;
    double mx = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double a = std::max(static_cast<double>(alpha(i, 0)), 1e-12);
      h -= a * std::log(a);
      mx = std::max(mx, a);
    }
    entropy_sum += h;
    max_sum += mx;
    ++e.segments;
    e.edges += end - begin;
  }
  if (e.segments > 0) {
    e.mean_entropy = entropy_sum / static_cast<double>(e.segments);
    e.mean_max = max_sum / static_cast<double>(e.segments);
  }
  return e;
}

std::vector<std::uint64_t> incident_edge_type_masks(const graph::HeteroGraph& g,
                                                    graph::NodeType type) {
  std::vector<std::uint64_t> masks(g.num_nodes(type), 0);
  for (const graph::TypedEdges& te : g.edges()) {
    if (te.type_index >= 64) continue;  // registry is far smaller; belt and braces
    const graph::EdgeTypeInfo& info = graph::edge_type_registry()[te.type_index];
    const std::uint64_t bit = std::uint64_t{1} << te.type_index;
    if (info.src_type == type)
      for (const std::int32_t s : te.src) masks[static_cast<std::size_t>(s)] |= bit;
    if (info.dst_type == type)
      for (const std::int32_t d : te.dst) masks[static_cast<std::size_t>(d)] |= bit;
  }
  return masks;
}

}  // namespace paragraph::gnn

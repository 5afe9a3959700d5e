#include "gnn/plan.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/ops.h"
#include "obs/metrics.h"

namespace paragraph::gnn {

namespace {

// Inverse in-degree from a destination-sorted CSR segment index. This is
// the buffer RGCN/ParaGraph used to rebuild inside the layer loop on every
// forward; the plan computes it exactly once per graph. The obs counter
// lets tests assert no per-forward rebuilds happen.
std::vector<float> inverse_degree_from_segments(const nn::SegmentIndex& seg) {
  if (obs::enabled())
    obs::MetricsRegistry::instance().counter("gnn.plan.degree_buffers").add();
  std::vector<float> inv(seg.num_segments(), 0.0f);
  for (std::size_t i = 0; i < inv.size(); ++i) {
    const auto deg = seg.offsets[i + 1] - seg.offsets[i];
    if (deg > 0) inv[i] = 1.0f / static_cast<float>(deg);
  }
  return inv;
}

// The flattened (type-blind) view. Edges are merged type by type into
// global indices and counting-sorted by destination, which keeps the merge
// order within each destination segment. The self-loop-augmented list
// appends each node's self loop to its segment. The graph is symmetric by
// construction (paired directed edges), so in-degree equals out-degree and
// the augmented degree is in-degree + 1.
std::shared_ptr<const HomoPlan> build_homo(const graph::HeteroGraph& g) {
  auto hp = std::make_shared<HomoPlan>();
  std::size_t n = 0;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    hp->type_offset[t] = n;
    hp->type_count[t] = g.num_nodes(static_cast<graph::NodeType>(t));
    n += hp->type_count[t];
  }
  hp->total_nodes = n;
  const auto offset_of = [&](graph::NodeType t) {
    return static_cast<std::int32_t>(hp->type_offset[static_cast<std::size_t>(t)]);
  };

  nn::SegmentIndex seg;
  seg.offsets.assign(n + 1, 0);
  for (const auto& te : g.edges()) {
    const std::int32_t dofs = offset_of(graph::edge_type_registry()[te.type_index].dst_type);
    for (const std::int32_t d : te.dst) ++seg.offsets[static_cast<std::size_t>(d + dofs) + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) seg.offsets[i] += seg.offsets[i - 1];
  const auto num_edges = static_cast<std::size_t>(seg.offsets[n]);
  std::vector<std::int32_t> src(num_edges), dst(num_edges);
  std::vector<std::int32_t> cursor(seg.offsets.begin(), seg.offsets.end() - 1);
  for (const auto& te : g.edges()) {
    const auto& info = graph::edge_type_registry()[te.type_index];
    const std::int32_t so = offset_of(info.src_type);
    const std::int32_t dofs = offset_of(info.dst_type);
    for (std::size_t e = 0; e < te.num_edges(); ++e) {
      const auto k = static_cast<std::size_t>(cursor[static_cast<std::size_t>(te.dst[e] + dofs)]++);
      src[k] = te.src[e] + so;
      dst[k] = te.dst[e] + dofs;
    }
  }

  std::vector<float> deg(n);
  for (std::size_t i = 0; i < n; ++i)
    deg[i] = 1.0f + static_cast<float>(seg.offsets[i + 1] - seg.offsets[i]);
  std::vector<std::int32_t> sl_src, sl_dst;
  std::vector<float> gcn_coeff;
  sl_src.reserve(num_edges + n);
  sl_dst.reserve(num_edges + n);
  gcn_coeff.reserve(num_edges + n);
  nn::SegmentIndex sl_seg;
  sl_seg.offsets.reserve(n + 1);
  sl_seg.offsets.push_back(0);
  const auto push = [&](std::int32_t s, std::int32_t d) {
    sl_src.push_back(s);
    sl_dst.push_back(d);
    gcn_coeff.push_back(1.0f / std::sqrt(deg[static_cast<std::size_t>(s)] *
                                         deg[static_cast<std::size_t>(d)]));
  };
  for (std::size_t i = 0; i < n; ++i) {
    const auto self = static_cast<std::int32_t>(i);
    for (auto k = static_cast<std::size_t>(seg.offsets[i]);
         k < static_cast<std::size_t>(seg.offsets[i + 1]); ++k)
      push(src[k], self);
    push(self, self);
    sl_seg.offsets.push_back(static_cast<std::int32_t>(sl_src.size()));
  }

  hp->inv_in_degree = nn::make_coeffs(inverse_degree_from_segments(seg));
  hp->src = nn::make_index(std::move(src));
  hp->dst = nn::make_index(std::move(dst));
  hp->dst_segments = nn::make_segments(std::move(seg));
  hp->sl_src = nn::make_index(std::move(sl_src));
  hp->sl_dst = nn::make_index(std::move(sl_dst));
  hp->sl_dst_segments = nn::make_segments(std::move(sl_seg));
  hp->gcn_coeff = nn::make_coeffs(std::move(gcn_coeff));
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    if (hp->type_count[t] == 0) continue;
    std::vector<std::int32_t> idx(hp->type_count[t]);
    std::iota(idx.begin(), idx.end(), static_cast<std::int32_t>(hp->type_offset[t]));
    hp->type_rows[t] = nn::make_index(std::move(idx));
  }
  return hp;
}

}  // namespace

GraphPlan GraphPlan::build(const graph::HeteroGraph& g, bool with_homo) {
  if (obs::enabled()) obs::MetricsRegistry::instance().counter("gnn.plan.builds").add();
  GraphPlan p;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t)
    p.num_nodes_[t] = g.num_nodes(static_cast<graph::NodeType>(t));

  for (const auto& te : g.edges()) {
    if (te.num_edges() == 0) continue;
    const auto& info = graph::edge_type_registry()[te.type_index];
    EdgeTypePlan ep;
    ep.type_index = te.type_index;
    ep.src_type = static_cast<std::size_t>(info.src_type);
    ep.dst_type = static_cast<std::size_t>(info.dst_type);
    ep.num_src_nodes = g.num_nodes(info.src_type);
    ep.num_dst_nodes = g.num_nodes(info.dst_type);
    ep.src = nn::make_index(te.src);
    ep.dst = nn::make_index(te.dst);
    ep.dst_segments = nn::make_segments(te.dst_segments);
    ep.inv_dst_degree = nn::make_coeffs(inverse_degree_from_segments(te.dst_segments));
    ep.src_compact = nn::build_compact_index(te.src, ep.num_src_nodes);
    ep.dst_compact = nn::build_compact_index(te.dst, ep.num_dst_nodes);
    p.edge_types_.push_back(std::move(ep));
  }
  if (with_homo) p.homo_ = build_homo(g);
  return p;
}

nn::Tensor flatten_types(const TypeTensors& typed, const HomoPlan& homo,
                         std::size_t embed_dim) {
  std::vector<nn::Tensor> blocks;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    if (typed[t].defined()) {
      if (typed[t].rows() != homo.type_count[t])
        throw std::logic_error("flatten_types: row count mismatch for node type");
      blocks.push_back(typed[t]);
    } else if (homo.type_count[t] != 0) {
      // Types with nodes but no features should not happen; guard anyway.
      blocks.push_back(nn::Tensor(nn::Matrix(homo.type_count[t], embed_dim, 0.0f)));
    }
  }
  return nn::concat_rows(blocks);
}

TypeTensors split_types(const nn::Tensor& global, const HomoPlan& homo) {
  TypeTensors out;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    if (homo.type_count[t] == 0) continue;
    out[t] = nn::gather_rows(global, homo.type_rows[t]);
  }
  return out;
}

}  // namespace paragraph::gnn

// Graph compute plans: everything the message-passing engine needs to run
// a forward pass over one graph, computed once and reused across every
// layer of every epoch.
//
// A GraphPlan is immutable after build(). It holds, per edge type, the
// shared index buffers (nn::IndexHandle) the kernels capture by reference
// count, the CSR destination segments, the precomputed inverse in-degree
// vector (previously recomputed inside the layer loop of RGCN/ParaGraph on
// every forward), and the compact (distinct-rows) indices that let a layer
// transform only the rows an edge type touches. When built with the
// homogenised view it additionally carries the flattened-graph buffers the
// homogeneous baselines (GCN / GraphSage / GAT) run on. A plan is the only
// graph structure a model sees.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "gnn/common.h"
#include "graph/hetero_graph.h"
#include "nn/graph_ops.h"

namespace paragraph::gnn {

// One relation's share of the plan. Mirrors graph::TypedEdges but with
// shared buffers and the derived per-destination statistics.
struct EdgeTypePlan {
  std::size_t type_index = 0;  // into graph::edge_type_registry()
  std::size_t src_type = 0;    // NodeType as index
  std::size_t dst_type = 0;
  std::size_t num_src_nodes = 0;
  std::size_t num_dst_nodes = 0;

  nn::IndexHandle src;             // per-edge source rows (local to src_type)
  nn::IndexHandle dst;             // per-edge destination rows, ascending
  nn::SegmentHandle dst_segments;  // one segment per destination node
  nn::CoeffHandle inv_dst_degree;  // 1/|N_r(i)|, 0 for untouched nodes

  // Distinct rows each side touches. A layer transforms only these rows;
  // src_compact.remap / dst_compact.remap take an edge to its row of the
  // transformed block (edge_attention's er_idx / el_idx).
  nn::CompactIndex src_compact;
  nn::CompactIndex dst_compact;

  std::size_t num_edges() const { return src ? src->size() : 0; }
};

// Flattened-graph (type-blind) share of the plan, for the homogeneous
// baselines: the typed node blocks in NodeType order form one global index
// space, and every typed edge is merged into one list.
struct HomoPlan {
  std::size_t total_nodes = 0;
  std::array<std::size_t, graph::kNumNodeTypes> type_offset{};
  std::array<std::size_t, graph::kNumNodeTypes> type_count{};

  // All edges in global indices, sorted by destination (merge order kept
  // within a destination), with one segment per node.
  nn::IndexHandle src, dst;
  nn::SegmentHandle dst_segments;
  nn::CoeffHandle inv_in_degree;  // per node; 0 for isolated nodes

  // Self-loop-augmented edge list, destination-sorted with segments (each
  // node's self loop last in its segment), and GCN coefficients
  // 1/sqrt(d_i d_j) on the augmented graph. Used by GCN (normalisation) and
  // GAT (so attention can retain self features).
  nn::IndexHandle sl_src, sl_dst;
  nn::SegmentHandle sl_dst_segments;
  nn::CoeffHandle gcn_coeff;

  // Per-type global row ranges, for slicing the flattened embedding matrix
  // back into typed blocks without rebuilding an index vector per call.
  std::array<nn::IndexHandle, graph::kNumNodeTypes> type_rows{};
};

class GraphPlan {
 public:
  GraphPlan() = default;

  // Builds the typed-edge plan, plus the HomoPlan when `with_homo` is set.
  static GraphPlan build(const graph::HeteroGraph& g, bool with_homo = false);

  const std::vector<EdgeTypePlan>& edge_types() const { return edge_types_; }
  std::size_t num_nodes(std::size_t node_type) const { return num_nodes_[node_type]; }

  bool has_homo() const { return homo_ != nullptr; }
  const HomoPlan& homo() const { return *homo_; }

 private:
  std::vector<EdgeTypePlan> edge_types_;
  std::array<std::size_t, graph::kNumNodeTypes> num_nodes_{};
  std::shared_ptr<const HomoPlan> homo_;
};

// Concatenates per-type embeddings into the HomoPlan's global row order.
nn::Tensor flatten_types(const TypeTensors& typed, const HomoPlan& homo, std::size_t embed_dim);

// Slices a global embedding matrix back into per-type blocks.
TypeTensors split_types(const nn::Tensor& global, const HomoPlan& homo);

}  // namespace paragraph::gnn

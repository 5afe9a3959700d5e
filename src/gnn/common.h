// Shared infrastructure for all GNN models.
//
// Every model (naive GCN/GraphSage/GAT, RGCN, ParaGraph) first applies a
// node-type-specific linear transform to map heterogeneous feature spaces
// into the common embedding space (Algorithm 1, lines 1-2; the paper notes
// the same transform had to be added to the naive baselines).
//
// Graph structure reaches a model only through a GraphPlan (gnn/plan.h);
// the homogeneous baselines run on the plan's type-blind HomoPlan view.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "graph/hetero_graph.h"
#include "nn/graph_ops.h"
#include "nn/module.h"

namespace paragraph::gnn {

using TypeTensors = std::array<nn::Tensor, graph::kNumNodeTypes>;

// Per-edge-type attention statistics recorded during a forward pass
// (paper Section III: "Analyzing the learned attentional weights may also
// help model interpretability"). Entropy is averaged over destination
// segments with >= 2 incoming edges; low entropy = focused attention.
struct AttentionRecord {
  struct Entry {
    double mean_entropy = 0.0;  // nats
    double mean_max = 0.0;      // average of the per-segment max weight
    std::size_t segments = 0;
    std::size_t edges = 0;
  };
  // layers[l][edge type index] -> statistics for that relation at layer l.
  std::vector<std::map<std::size_t, Entry>> layers;
};

class GraphPlan;  // gnn/plan.h

// Everything a model needs for one circuit. Feature tensors are constant
// leaves (already normalised). `plan` is required: built once per graph
// (gnn/plan.h) and reused across every forward; the homogeneous baselines
// need one built with the homogenised view.
struct GraphBatch {
  const GraphPlan* plan = nullptr;
  TypeTensors features;
  // When set, attention-based models append per-layer statistics here.
  AttentionRecord* attention_out = nullptr;
};

// Computes attention statistics for one relation's softmax output.
AttentionRecord::Entry summarize_attention(const nn::Matrix& alpha,
                                           const nn::SegmentIndex& segments);

// Per-node-type input projection into the common F-dimensional space.
class InputTransform : public nn::Module {
 public:
  InputTransform(std::size_t embed_dim, util::Rng& rng);

  // Projects each non-empty node type's features; empty types yield
  // undefined tensors (callers must check .defined()).
  TypeTensors forward(const GraphBatch& batch) const;

 private:
  std::vector<std::unique_ptr<nn::Linear>> per_type_;
};

// Per-node bitmask over edge_type_registry() indices: bit e is set when
// node i of `type` is an endpoint of at least one edge of type e. Used by
// the quality report to bucket prediction error by edge-type context
// (which terminal relations a net actually touches).
std::vector<std::uint64_t> incident_edge_type_masks(const graph::HeteroGraph& g,
                                                    graph::NodeType type);

}  // namespace paragraph::gnn

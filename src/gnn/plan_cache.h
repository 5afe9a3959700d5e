// Structural plan/embedding memoization for hierarchical circuits.
//
// A netlist that instantiates the same subckt template many times (SRAM
// columns, DAC slices, ...) repeats the same interior graph structure once
// per instance. PlanCache keys that structure by the parser's structural
// hash (circuit/hierarchy.h) and memoizes, per template:
//
//   * a representative induced subgraph (the instance subtree plus its
//     boundary net nodes) and its GraphPlan, and
//   * per model version, the representative's embedding matrix.
//
// The hierarchical embed then runs the model only on a *reduced* graph —
// the full graph minus every cached instance's deep interior — and stitches
// interior rows in from the cache.
//
// Exactness. After L message-passing layers a node's embedding depends
// only on its distance-<=L neighbourhood. Let depth(v) be v's graph
// distance to the instance boundary (boundary net nodes at depth 0,
// boundary-touching devices at depth 1). Interior nodes (depth >= L+1)
// cannot see anything outside the instance, so their rows computed on the
// representative subgraph are *bitwise* identical to the full-graph rows:
// every kernel in the forward pass is per-row (gemm, head MLP) or
// per-destination-segment (softmax, degree-normalised scatter), and
// graph::induced_subgraph preserves node order and per-segment edge order.
// Conversely every node of depth <= L has its complete distance-<=L
// neighbourhood inside the reduced graph, which keeps all nodes of depth
// <= 2L+1 (the +1 ring keeps degree-derived coefficients of ring <= 2L
// exact for the GCN-style models), so its reduced-graph row is bitwise
// identical too. Assembling interior rows from the cache and the rest from
// the reduced graph therefore reproduces the plain full-graph forward bit
// for bit.
//
// Instances whose hash repeats (in the netlist or across the cache) are
// selected greedily and maximally: a profitable instance is cached whole
// and its descendants skipped; an unprofitable one is descended into so
// repeated children (e.g. identical columns under a unique top bank) still
// hit.
//
// Not thread-safe: one PlanCache per inference thread, or external locking.
// Metrics: plancache.hits (instances assembled from a memoized embedding),
// plancache.misses (structural entries or embeddings computed), and gauge
// plancache.bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "circuit/netlist.h"
#include "gnn/common.h"
#include "gnn/plan.h"
#include "graph/subgraph.h"

namespace paragraph::gnn {

struct PlanCacheConfig {
  // Instances with fewer subtree devices are never cached (overhead would
  // beat the reuse win).
  std::size_t min_subtree_devices = 16;
  // Embedding variants retained per template (distinct model versions, e.g.
  // the members of an ensemble); least recently used is evicted.
  std::size_t max_embed_variants = 4;
};

class PlanCache {
 public:
  explicit PlanCache(PlanCacheConfig config = {}) : config_(config) {}

  using EmbedFn =
      std::function<TypeTensors(const graph::HeteroGraph&, const GraphPlan&)>;

  // Per-node-type embedding values for every node of `g`, bit-identical to
  // running `embed` on the full graph. `nl` must be the netlist `g` was
  // built from; `num_layers` the model's message-passing depth; `with_homo`
  // the model's needs_homo(), so every plan handed to `embed` carries the
  // homogenised view when it is set (a template planned without it is
  // upgraded in place, and GraphPlan::has_homo() records which); `model_key`
  // a value that changes whenever the model weights (or the feature
  // normalisation `embed` applies) change. Returns false — leaving `out`
  // untouched — when no instance qualifies for caching, in which case the
  // caller should run its plain path.
  bool embed_hierarchical(const circuit::Netlist& nl, const graph::HeteroGraph& g,
                          std::size_t num_layers, bool with_homo, std::uint64_t model_key,
                          const EmbedFn& embed,
                          std::array<nn::Matrix, graph::kNumNodeTypes>* out);

  std::size_t num_entries() const { return entries_.size(); }
  std::size_t bytes() const { return bytes_; }
  void clear();

 private:
  struct Embed {
    std::uint64_t key = 0;
    std::uint64_t tick = 0;  // LRU stamp
    std::array<nn::Matrix, graph::kNumNodeTypes> z;
    std::size_t bytes = 0;
  };

  struct Entry {
    std::uint64_t hash = 0;
    graph::Subgraph rep;  // subtree + boundary net nodes of the template
    GraphPlan plan;
    // Leading net-type locals of `rep` that are boundary nets (they precede
    // the created-net block because boundary nets are materialised before
    // the subtree range opens).
    std::size_t boundary_net_nodes = 0;
    // Distance to the boundary per rep-subgraph node; kUnreachable when
    // disconnected from it (always interior).
    std::array<std::vector<std::int32_t>, graph::kNumNodeTypes> depth;
    std::vector<Embed> embeds;
    std::size_t struct_bytes = 0;
  };

  static constexpr std::int32_t kUnreachable = INT32_MAX;

  Entry* find_or_build(const circuit::Netlist& nl, const graph::HeteroGraph& g,
                       const circuit::SubcktInstance& inst, bool with_homo);
  const Embed& embed_for(Entry& entry, std::uint64_t model_key, const EmbedFn& embed);
  void refresh_bytes_gauge();

  PlanCacheConfig config_;
  std::map<std::uint64_t, std::unique_ptr<Entry>> entries_;
  std::size_t bytes_ = 0;
  std::uint64_t tick_ = 0;
};

}  // namespace paragraph::gnn

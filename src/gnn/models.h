// GNN model zoo: the four literature baselines of Table III (GCN,
// GraphSage, RGCN, GAT) and the paper's ParaGraph model (Algorithm 1),
// plus ParaGraph ablation variants used by the component-ablation bench.
//
// Every model maps a GraphBatch (typed features + a GraphPlan) to
// per-node-type embeddings of dimension F after L message-passing layers. The node-type
// input transform (Algorithm 1 lines 1-2) is applied in all models, as the
// paper did for the naive baselines.
#pragma once

#include <memory>
#include <string>

#include "gnn/common.h"

namespace paragraph::gnn {

enum class ModelKind {
  kGcn,
  kGraphSage,
  kRgcn,
  kGat,
  kParaGraph,
  // Ablations of ParaGraph's three ingredients:
  kParaGraphNoAttention,  // mean aggregation inside each edge-type group
  kParaGraphNoEdgeTypes,  // one weight/attention over all edges (GAT+concat)
  kParaGraphNoConcat,     // no self-concatenation in the update
};

const char* model_kind_name(ModelKind k);

class EmbeddingModel : public nn::Module {
 public:
  EmbeddingModel(std::size_t embed_dim, std::size_t num_layers)
      : embed_dim_(embed_dim), num_layers_(num_layers) {}

  // Throws std::invalid_argument when batch.plan is null, or when a
  // homogeneous() model gets a plan without has_homo().
  virtual TypeTensors embed(const GraphBatch& batch) const = 0;
  virtual ModelKind kind() const = 0;
  // True when the model runs on the plan's homogenised view, so its plans
  // must come from GraphPlan::build(g, true).
  virtual bool homogeneous() const = 0;

  std::size_t embed_dim() const { return embed_dim_; }
  std::size_t num_layers() const { return num_layers_; }

 protected:
  std::size_t embed_dim_;
  std::size_t num_layers_;
};

// Factory. F and L default to the paper's values (F=32, L=5).
// `num_heads` applies to the ParaGraph variants only (the paper used one
// attention head, limited by GPU memory, and conjectured more would help;
// heads > 1 averages several attention distributions per edge-type group).
std::unique_ptr<EmbeddingModel> make_model(ModelKind kind, std::size_t embed_dim,
                                           std::size_t num_layers, util::Rng& rng,
                                           std::size_t num_heads = 1);

}  // namespace paragraph::gnn

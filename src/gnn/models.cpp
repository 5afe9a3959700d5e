#include "gnn/models.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "gnn/mp_layer.h"
#include "gnn/plan.h"
#include "obs/profile.h"

namespace paragraph::gnn {

using nn::Tensor;

const char* model_kind_name(ModelKind k) {
  switch (k) {
    case ModelKind::kGcn: return "GCN";
    case ModelKind::kGraphSage: return "GraphSage";
    case ModelKind::kRgcn: return "RGCN";
    case ModelKind::kGat: return "GAT";
    case ModelKind::kParaGraph: return "ParaGraph";
    case ModelKind::kParaGraphNoAttention: return "ParaGraph-noattn";
    case ModelKind::kParaGraphNoEdgeTypes: return "ParaGraph-noedgetypes";
    case ModelKind::kParaGraphNoConcat: return "ParaGraph-noconcat";
  }
  return "unknown";
}

namespace {

// A model is a compute space (flattened or typed), a layer policy, and a
// timing-scope name. The MessagePassingLayer does the rest.
struct ModelSpec {
  LayerPolicy policy;
  const char* scope = "forward";
  bool homogeneous = false;
};

ModelSpec spec_for(ModelKind kind, std::size_t num_heads) {
  using Agg = LayerPolicy::Aggregator;
  using Upd = LayerPolicy::Update;
  ModelSpec s;
  switch (kind) {
    case ModelKind::kGcn:
      s.policy.aggregator = Agg::kGcnSum;
      s.policy.update = Upd::kBias;
      s.scope = "forward_gcn";
      s.homogeneous = true;
      return s;
    case ModelKind::kGraphSage:
      s.policy.aggregator = Agg::kMeanConcat;
      s.policy.update = Upd::kSageConcat;
      s.scope = "forward_graphsage";
      s.homogeneous = true;
      return s;
    case ModelKind::kGat:
      s.policy.aggregator = Agg::kAttention;
      s.policy.update = Upd::kBias;
      s.scope = "forward_gat";
      s.homogeneous = true;
      return s;
    case ModelKind::kRgcn:
      s.policy.aggregator = Agg::kTypedMean;
      s.policy.update = Upd::kSelfLoop;
      s.scope = "forward_rgcn";
      return s;
    case ModelKind::kParaGraph:
    case ModelKind::kParaGraphNoAttention:
    case ModelKind::kParaGraphNoEdgeTypes:
    case ModelKind::kParaGraphNoConcat:
      s.policy.aggregator = kind == ModelKind::kParaGraphNoAttention ? Agg::kTypedMean
                                                                     : Agg::kTypedAttention;
      s.policy.update =
          kind == ModelKind::kParaGraphNoConcat ? Upd::kDense : Upd::kConcat;
      s.policy.per_type_weights = kind != ModelKind::kParaGraphNoEdgeTypes;
      s.policy.num_heads = std::max<std::size_t>(num_heads, 1);
      s.policy.attention_params = true;
      s.policy.require_dst_features = true;
      s.scope = "forward_paragraph";
      return s;
  }
  throw std::invalid_argument("spec_for: unknown kind");
}

// The one concrete model: L policy-configured MessagePassingLayers behind
// the shared input transform, running on the batch's GraphPlan.
class UnifiedModel final : public EmbeddingModel {
 public:
  UnifiedModel(ModelKind kind, std::size_t f, std::size_t l, util::Rng& rng,
               std::size_t num_heads)
      : EmbeddingModel(f, l), kind_(kind), spec_(spec_for(kind, num_heads)), input_(f, rng) {
    for (std::size_t i = 0; i < l; ++i) {
      layers_.push_back(std::make_unique<MessagePassingLayer>(f, spec_.policy, rng));
      layer_scopes_.push_back("layer" + std::to_string(i));
    }
    // Registration order defines the serialized parameter layout: layer
    // parameters first, input transform last, matching the legacy classes
    // (which registered their own parameters after the input child module).
    for (auto& layer : layers_) register_module(layer.get());
    register_module(&input_);
  }

  ModelKind kind() const override { return kind_; }
  bool homogeneous() const override { return spec_.homogeneous; }

  TypeTensors embed(const GraphBatch& batch) const override {
    const GraphPlan* plan = batch.plan;
    if (plan == nullptr || (spec_.homogeneous && !plan->has_homo()))
      throw std::invalid_argument(std::string(model_kind_name(kind_)) + " needs a GraphPlan" +
                                  (spec_.homogeneous ? " built with the homogenised view" : ""));
    PARAGRAPH_TIMED_SCOPE(spec_.scope);
    if (spec_.homogeneous) {
      const HomoPlan& hp = plan->homo();
      Tensor h = flatten_types(input_.forward(batch), hp, embed_dim_);
      for (std::size_t l = 0; l < num_layers_; ++l) {
        PARAGRAPH_TIMED_SCOPE(layer_scopes_[l].c_str());
        h = layers_[l]->forward(h, hp);
      }
      return split_types(h, hp);
    }
    TypeTensors h = input_.forward(batch);
    for (std::size_t l = 0; l < num_layers_; ++l) {
      PARAGRAPH_TIMED_SCOPE(layer_scopes_[l].c_str());
      const AttentionProbe probe{batch.attention_out, l, num_layers_};
      h = layers_[l]->forward(h, *plan, probe);
    }
    return h;
  }

 private:
  ModelKind kind_;
  ModelSpec spec_;
  InputTransform input_;
  std::vector<std::unique_ptr<MessagePassingLayer>> layers_;
  // Timing-scope names per layer. The profiler keeps the pointer only
  // while the scope is open, and the model outlives every scope it opens.
  std::vector<std::string> layer_scopes_;
};

}  // namespace

std::unique_ptr<EmbeddingModel> make_model(ModelKind kind, std::size_t embed_dim,
                                           std::size_t num_layers, util::Rng& rng,
                                           std::size_t num_heads) {
  return std::make_unique<UnifiedModel>(kind, embed_dim, num_layers, rng, num_heads);
}

}  // namespace paragraph::gnn

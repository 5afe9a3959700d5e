// Taped reference forward for the tape-free inference checks.
//
// GnnPredictor runs every inference forward under nn::NoGradGuard. The
// reference here copies a predictor's embedding model and head (built from
// its public config, then loaded with its parameters, normaliser and
// scaler) and runs them with the autograd tape on, exactly as train() does,
// so tests can compare the two paths byte for byte and measure what the
// tape costs.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/ensemble.h"
#include "core/predictor.h"
#include "gnn/plan.h"
#include "nn/module.h"
#include "util/rng.h"

namespace paragraph::testing {

class TapedReference {
 public:
  explicit TapedReference(const core::GnnPredictor& p)
      : config_(p.config()),
        needs_homo_(p.needs_homo()),
        normalizer_(p.normalizer()),
        scaler_(p.scaler()) {
    util::Rng rng(1);
    embedding_ = gnn::make_model(config_.model, config_.embed_dim, config_.num_layers, rng,
                                 config_.attention_heads);
    std::vector<std::size_t> dims(config_.effective_fc_layers(), config_.embed_dim);
    dims.push_back(1);
    head_ = std::make_unique<nn::Mlp>(dims, rng);
    std::vector<nn::Tensor> mine = embedding_->parameters();
    const std::vector<nn::Tensor> head = head_->parameters();
    mine.insert(mine.end(), head.begin(), head.end());
    const std::vector<nn::Tensor> theirs = p.parameters();
    if (mine.size() != theirs.size())
      throw std::logic_error("TapedReference: parameter layout differs from the predictor");
    for (std::size_t i = 0; i < mine.size(); ++i) mine[i].mutable_value() = theirs[i].value();
  }

  // Per-type embeddings with the tape attached; `attention`, when set,
  // receives the attention probe's statistics.
  gnn::TypeTensors embed(const dataset::Sample& s, const gnn::GraphPlan& plan,
                         gnn::AttentionRecord* attention = nullptr) const {
    gnn::GraphBatch b;
    b.graph = &s.graph;
    b.plan = &plan;
    b.attention_out = attention;
    for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
      const auto nt = static_cast<graph::NodeType>(t);
      if (s.graph.num_nodes(nt) != 0) b.features[t] = nn::Tensor(normalizer_.apply(s.graph, nt));
    }
    return embedding_->embed(b);
  }

  // GnnPredictor::predict_all's output, computed on the tape.
  std::vector<float> predict_all(const dataset::Sample& s, const gnn::GraphPlan& plan) const {
    const gnn::TypeTensors emb = embed(s, plan);
    const auto& types = dataset::target_node_types(config_.target);
    std::vector<float> out;
    for (std::size_t slot = 0; slot < types.size(); ++slot) {
      const nn::Tensor& z = emb[static_cast<std::size_t>(types[slot])];
      if (!z.defined()) {
        out.resize(out.size() + s.target_values(config_.target, slot).size(), 0.0f);
        continue;
      }
      const nn::Tensor pred = head_->forward(z);
      if (!pred.needs_backward())
        throw std::logic_error("TapedReference: the forward did not record a tape");
      for (std::size_t i = 0; i < pred.rows(); ++i)
        out.push_back(scaler_.inverse(pred.value()(i, 0)));
    }
    return out;
  }

  std::vector<float> predict_all(const dataset::Sample& s) const {
    return predict_all(s, gnn::GraphPlan::build(s.graph, needs_homo_));
  }

 private:
  core::PredictorConfig config_;
  bool needs_homo_;
  dataset::FeatureNormalizer normalizer_;
  core::TargetScaler scaler_;
  std::unique_ptr<gnn::EmbeddingModel> embedding_;
  std::unique_ptr<nn::Mlp> head_;
};

// CapEnsemble::predict on the tape: Algorithm 2 over taped member outputs.
inline std::vector<float> taped_ensemble_predict(const core::CapEnsemble& ens,
                                                 const dataset::Sample& s) {
  std::vector<float> p = TapedReference(ens.model(0)).predict_all(s);
  for (std::size_t i = 1; i < ens.num_models(); ++i) {
    const std::vector<float> pi = TapedReference(ens.model(i)).predict_all(s);
    for (std::size_t n = 0; n < p.size(); ++n)
      if (pi[n] > ens.max_vs_ff()[i - 1]) p[n] = pi[n];
  }
  return p;
}

}  // namespace paragraph::testing

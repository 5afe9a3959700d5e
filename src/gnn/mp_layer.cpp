#include "gnn/mp_layer.h"

#include <stdexcept>

#include "nn/init.h"
#include "nn/ops.h"
#include "obs/profile.h"

namespace paragraph::gnn {

using nn::Matrix;
using nn::Tensor;

namespace {

// Model activation. LeakyReLU instead of plain ReLU keeps full-graph
// training alive: with ReLU a single bad step can zero every activation
// (dead network), which we observed with the attention models.
Tensor act(const Tensor& x) { return nn::leaky_relu(x, 0.1f); }

}  // namespace

MessagePassingLayer::MessagePassingLayer(std::size_t embed_dim, const LayerPolicy& policy,
                                         util::Rng& rng)
    : embed_dim_(embed_dim), policy_(policy) {
  const std::size_t f = embed_dim;
  // Registration order is the serialized layout; see the header comment.
  switch (policy_.aggregator) {
    case LayerPolicy::Aggregator::kGcnSum:
      rel_weights_.push_back(register_parameter(nn::xavier_uniform(f, f, rng)));
      bias_ = register_parameter(nn::zeros(1, f));
      break;
    case LayerPolicy::Aggregator::kMeanConcat:
      update_weight_ = register_parameter(nn::xavier_uniform(2 * f, f, rng));
      bias_ = register_parameter(nn::zeros(1, f));
      break;
    case LayerPolicy::Aggregator::kAttention:
      rel_weights_.push_back(register_parameter(nn::xavier_uniform(f, f, rng)));
      // Zero-init attention: layer starts as uniform (mean) aggregation and
      // learns to attend, which avoids early logit blow-ups.
      attn_dst_.push_back(register_parameter(nn::zeros(f, 1)));
      attn_src_.push_back(register_parameter(nn::zeros(f, 1)));
      bias_ = register_parameter(nn::zeros(1, f));
      break;
    case LayerPolicy::Aggregator::kTypedMean:
    case LayerPolicy::Aggregator::kTypedAttention: {
      const std::size_t num_rel =
          policy_.per_type_weights ? graph::edge_type_registry().size() : 1;
      if (policy_.update == LayerPolicy::Update::kSelfLoop) {
        // RGCN layout: self transform and bias precede the relation bank.
        self_weight_ = register_parameter(nn::xavier_uniform(f, f, rng));
        bias_ = register_parameter(nn::zeros(1, f));
        for (std::size_t r = 0; r < num_rel; ++r)
          rel_weights_.push_back(register_parameter(nn::xavier_uniform(f, f, rng)));
      } else {
        // ParaGraph layout: relation bank, attention heads, update, bias.
        for (std::size_t r = 0; r < num_rel; ++r)
          rel_weights_.push_back(register_parameter(nn::xavier_uniform(f, f, rng)));
        if (policy_.attention_params) {
          for (std::size_t hd = 0; hd < policy_.num_heads; ++hd) {
            attn_dst_.push_back(register_parameter(nn::zeros(f, 1)));
            attn_src_.push_back(register_parameter(nn::zeros(f, 1)));
          }
        }
        const bool concat = policy_.update == LayerPolicy::Update::kConcat;
        update_weight_ = register_parameter(nn::xavier_uniform(concat ? 2 * f : f, f, rng));
        bias_ = register_parameter(nn::zeros(1, f));
      }
      break;
    }
  }
}

Tensor MessagePassingLayer::forward(const Tensor& h, const HomoPlan& plan) const {
  switch (policy_.aggregator) {
    case LayerPolicy::Aggregator::kGcnSum: {
      Tensor m = nn::matmul(h, rel_weights_[0]);
      Tensor msg = nn::gather_rows(m, plan.sl_src);
      msg = nn::scale_rows(msg, plan.gcn_coeff);
      Tensor agg = nn::scatter_add_rows(msg, plan.sl_dst, plan.total_nodes);
      return act(nn::add_bias(agg, bias_));
    }
    case LayerPolicy::Aggregator::kMeanConcat: {
      Tensor msg = nn::gather_rows(h, plan.src);
      Tensor agg = nn::scatter_mean_rows(msg, plan.dst, plan.inv_in_degree, plan.total_nodes);
      Tensor cat = nn::concat_cols(h, agg);
      Tensor out = act(nn::add_bias(nn::matmul(cat, update_weight_), bias_));
      return nn::row_l2_normalize(out);
    }
    case LayerPolicy::Aggregator::kAttention: {
      // Attention over the self-loop-augmented edges, so a node can keep
      // its own features (standard practice when applying GAT). Node-level
      // logits and messages are read per edge inside the fused kernel.
      Tensor m = nn::matmul(h, rel_weights_[0]);
      Tensor el = nn::matmul(m, attn_dst_[0]);  // contribution of h_i (dst)
      Tensor er = nn::matmul(m, attn_src_[0]);  // contribution of h_j (src)
      Tensor agg = nn::edge_attention(el, er, m, plan.sl_dst, plan.sl_src, plan.sl_dst,
                                      plan.sl_dst_segments, plan.total_nodes);
      return act(nn::add_bias(agg, bias_));
    }
    default:
      throw std::logic_error("MessagePassingLayer: typed policy on homogeneous forward");
  }
}

Tensor MessagePassingLayer::typed_attention(const Tensor& h_src, const Tensor& h_dst,
                                            const EdgeTypePlan& ep,
                                            const AttentionProbe& probe) const {
  PARAGRAPH_TIMED_SCOPE("attention");
  const Tensor& w = rel_weights_[policy_.per_type_weights ? ep.type_index : 0];
  // W_t h on the distinct rows each side touches; edge_attention reaches
  // them through the compact remaps, so no per-edge copy is made.
  Tensor msg = nn::matmul(nn::gather_rows(h_src, ep.src_compact.rows), w);  // W_t h_j
  Tensor md = nn::matmul(nn::gather_rows(h_dst, ep.dst_compact.rows), w);   // W_t h_i
  // One attention distribution per head; head outputs averaged.
  std::vector<Tensor> heads;
  for (std::size_t hd = 0; hd < policy_.num_heads; ++hd) {
    Tensor el = nn::matmul(md, attn_dst_[hd]);
    Tensor er = nn::matmul(msg, attn_src_[hd]);
    const bool record = probe.record != nullptr && hd == 0;
    Matrix alpha;
    heads.push_back(nn::edge_attention(el, er, msg, ep.dst_compact.remap,
                                       ep.src_compact.remap, ep.dst, ep.dst_segments,
                                       ep.num_dst_nodes, 0.2f, record ? &alpha : nullptr));
    if (record) {
      if (probe.record->layers.size() < probe.num_layers)
        probe.record->layers.resize(probe.num_layers);
      probe.record->layers[probe.layer][ep.type_index] =
          summarize_attention(alpha, *ep.dst_segments);
    }
  }
  return heads.size() == 1
             ? heads[0]
             : nn::scale(nn::sum_tensors(heads), 1.0f / static_cast<float>(heads.size()));
}

TypeTensors MessagePassingLayer::forward(const TypeTensors& h, const GraphPlan& plan,
                                         const AttentionProbe& probe) const {
  const bool attention = policy_.aggregator == LayerPolicy::Aggregator::kTypedAttention;
  // Per-destination-type accumulators.
  TypeTensors agg;
  for (const auto& ep : plan.edge_types()) {
    if (!h[ep.src_type].defined()) continue;
    if (policy_.require_dst_features && !h[ep.dst_type].defined()) continue;
    PARAGRAPH_TIMED_SCOPE(graph::edge_type_registry()[ep.type_index].name.c_str());
    Tensor a;
    if (attention) {
      a = typed_attention(h[ep.src_type], h[ep.dst_type], ep, probe);
    } else {
      // Mean aggregation within the edge-type group, transforming only the
      // source rows this relation touches.
      const Tensor& w = rel_weights_[policy_.per_type_weights ? ep.type_index : 0];
      const nn::CompactIndex& ci = ep.src_compact;
      Tensor msg = nn::gather_rows(nn::matmul(nn::gather_rows(h[ep.src_type], ci.rows), w),
                                   ci.remap);
      a = nn::scatter_mean_rows(msg, ep.dst, ep.inv_dst_degree, ep.num_dst_nodes);
    }
    agg[ep.dst_type] = agg[ep.dst_type].defined() ? nn::add(agg[ep.dst_type], a) : a;
  }

  PARAGRAPH_TIMED_SCOPE("update");
  TypeTensors out;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    if (!h[t].defined()) continue;
    switch (policy_.update) {
      case LayerPolicy::Update::kSelfLoop: {
        Tensor self = nn::matmul(h[t], self_weight_);
        Tensor combined = agg[t].defined() ? nn::add(agg[t], self) : self;
        out[t] = act(nn::add_bias(combined, bias_));
        break;
      }
      case LayerPolicy::Update::kConcat:
      case LayerPolicy::Update::kDense: {
        Tensor neigh = agg[t].defined() ? agg[t]
                                        : Tensor(Matrix(h[t].rows(), embed_dim_, 0.0f));
        Tensor pre = policy_.update == LayerPolicy::Update::kConcat
                         ? nn::concat_cols(h[t], neigh)
                         : neigh;
        out[t] = act(nn::add_bias(nn::matmul(pre, update_weight_), bias_));
        break;
      }
      default:
        throw std::logic_error("MessagePassingLayer: homogeneous policy on typed forward");
    }
  }
  return out;
}

}  // namespace paragraph::gnn

// Differentiable graph kernels: the message-passing primitives every GNN
// in src/gnn is assembled from.
//
// Edge lists are index vectors into node-embedding matrices. For attention
// normalisation, edges of a relation are kept sorted by destination and a
// CSR-style SegmentIndex delimits each destination's incoming edges.
//
// Index buffers are passed as shared handles (IndexHandle): a kernel's
// autograd closure captures the handle, not a deep copy of the vector, so
// a training step over a large graph no longer clones every edge list once
// per op. gnn::GraphPlan builds the handles once per graph; the
// std::vector overloads remain for tests and one-off callers (they wrap
// the vector into a fresh handle, costing the single copy the old API
// always paid).
//
// Two fused kernels collapse the hot composed chains with hand-derived
// gradients (verified against the composed ops in
// tests/graph_ops_fused_test.cpp):
//   scatter_mean_rows  = scatter_add_rows + per-destination 1/deg scaling
//   edge_attention     = gather + add + leaky-relu + segment-softmax +
//                        scale + scatter in one forward/backward pair,
//                        reading node-level operands through edge indices
//                        so no per-edge message matrix is built
//
// Like the dense ops, every kernel skips its closure and the buffers only
// backward reads (edge_attention's logits, segment_softmax's alpha copy)
// when tensor.h's records_backward() is false.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace paragraph::nn {

// Contiguous segments over an edge array (edges sorted by destination):
// segment s covers [offsets[s], offsets[s+1]).
struct SegmentIndex {
  std::vector<std::int32_t> offsets;  // size = num_segments + 1

  std::size_t num_segments() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::size_t num_elements() const { return offsets.empty() ? 0 : static_cast<std::size_t>(offsets.back()); }
};

// Shared, immutable index/coefficient buffers. Built once per graph (see
// gnn::GraphPlan) and captured by reference count in autograd closures.
using IndexHandle = std::shared_ptr<const std::vector<std::int32_t>>;
using CoeffHandle = std::shared_ptr<const std::vector<float>>;
using SegmentHandle = std::shared_ptr<const SegmentIndex>;

IndexHandle make_index(std::vector<std::int32_t> idx);
CoeffHandle make_coeffs(std::vector<float> coeffs);
SegmentHandle make_segments(SegmentIndex seg);

// out[e] = a[idx[e]]  (E x F from N x F).
Tensor gather_rows(const Tensor& a, const IndexHandle& idx);
Tensor gather_rows(const Tensor& a, const std::vector<std::int32_t>& idx);

// out[idx[e]] += a[e]  (N x F from E x F). Rows never indexed stay zero.
Tensor scatter_add_rows(const Tensor& a, const IndexHandle& idx, std::size_t num_out_rows);
Tensor scatter_add_rows(const Tensor& a, const std::vector<std::int32_t>& idx,
                        std::size_t num_out_rows);

// Per-segment softmax over a column vector of logits (E x 1).
// Numerically stabilised by per-segment max subtraction.
Tensor segment_softmax(const Tensor& logits, const SegmentIndex& seg);

// Rows of `a` (E x F) scaled by the scalar weight w[e] (E x 1 tensor);
// both sides receive gradients. This is the attention-weighting step.
Tensor scale_rows_by(const Tensor& a, const Tensor& w);

// Handle-based variant of nn::scale_rows (ops.h): per-row constant scaling
// where the autograd closure captures the shared buffer, not a copy.
Tensor scale_rows(const Tensor& a, const CoeffHandle& coeffs);

// Fused mean aggregation: out[i] = inv[i] * sum_{e : idx[e] == i} a[e].
// `inv` holds the precomputed inverse in-degree per output row (0 for
// isolated rows); numerically identical to scatter_add_rows followed by
// scale_rows(inv) but with one kernel and one autograd node.
Tensor scatter_mean_rows(const Tensor& a, const IndexHandle& idx, const CoeffHandle& inv,
                         std::size_t num_out_rows);

// The distinct rows an edge list touches, plus the per-edge remap into
// them. A layer transforms the U touched rows once
// (matmul(gather_rows(h, rows), w)) and edges reach the U-row result
// through `remap`, either inside edge_attention or with one gather_rows.
struct CompactIndex {
  IndexHandle rows;   // ascending unique values of the edge list (size U)
  IndexHandle remap;  // remap[e] = position of edges[e] within rows (size E)
};
CompactIndex build_compact_index(const std::vector<std::int32_t>& edges, std::size_t num_rows);

// Fused GAT-style attention aggregation over one destination-sorted edge
// block of E = dst->size() edges:
//   logit[e] = el[el_idx[e]] + er[er_idx[e]]
//   alpha    = segment_softmax(leaky_relu(logit, slope), seg)
//   out[dst[e]] += alpha[e] * msg[er_idx[e]]
// Index contract: every handle is required and el_idx / er_idx hold one
// entry per edge. el is a column vector of destination-side logits and er
// one of source-side logits; msg holds one row per er row (the transformed
// source rows the logits were computed from), so er_idx indexes both and
// the E x F message matrix is never built. A null handle, a wrong-length
// index or a msg/er row mismatch throws std::invalid_argument; an index
// past its operand throws std::out_of_range. The backward scatters msg's
// and er's gradients through er_idx and el's through el_idx.
// When `alpha_out` is non-null the softmax output is copied there for
// attention-statistics probes. Numerically identical to the composed
// gather/add/leaky_relu/segment_softmax/scale_rows_by/scatter_add chain.
Tensor edge_attention(const Tensor& el, const Tensor& er, const Tensor& msg,
                      const IndexHandle& el_idx, const IndexHandle& er_idx,
                      const IndexHandle& dst, const SegmentHandle& seg,
                      std::size_t num_out_rows, float negative_slope = 0.2f,
                      Matrix* alpha_out = nullptr);

// Utility (non-differentiable): counts occurrences of each index value.
std::vector<float> index_counts(const std::vector<std::int32_t>& idx, std::size_t n);

// Utility (non-differentiable): inverse counts, 0 where a row is never
// indexed. This is the mean-aggregation coefficient vector.
std::vector<float> inverse_index_counts(const std::vector<std::int32_t>& idx, std::size_t n);

}  // namespace paragraph::nn

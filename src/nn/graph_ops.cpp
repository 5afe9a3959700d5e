#include "nn/graph_ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace paragraph::nn {

namespace {

// Chunk grains (pure functions of the problem size — see DESIGN.md §7).
constexpr std::size_t kEdgeGrain = 1024;   // per-edge gather/scatter loops
constexpr std::size_t kRowGrain = 256;     // per-row loops
constexpr std::size_t kSegmentGrain = 256; // per-segment loops

void check_index_bounds(const std::vector<std::int32_t>& idx, std::size_t n, const char* op) {
  for (const auto i : idx) {
    if (i < 0 || static_cast<std::size_t>(i) >= n)
      throw std::out_of_range(std::string(op) + ": index out of range");
  }
}

void count_op(const char* calls_name, const char* rows_name, std::size_t rows) {
  if (!obs::enabled()) return;
  obs::MetricsRegistry::instance().counter(calls_name).add();
  obs::MetricsRegistry::instance().counter(rows_name).add(rows);
}

// Per-segment softmax shared by segment_softmax and edge_attention; the
// fused kernel must be bitwise-identical to the composed op. Segments own
// disjoint edge ranges, so the segment loop parallelizes bit-identically.
void softmax_over_segments(const Matrix& z, const SegmentIndex& seg, Matrix& alpha) {
  runtime::parallel_for("graph.segment_softmax", seg.num_segments(), kSegmentGrain,
                        [&](std::size_t slo, std::size_t shi) {
    for (std::size_t s = slo; s < shi; ++s) {
      const auto begin = static_cast<std::size_t>(seg.offsets[s]);
      const auto end = static_cast<std::size_t>(seg.offsets[s + 1]);
      if (begin == end) continue;
      float mx = z(begin, 0);
      for (std::size_t e = begin; e < end; ++e) mx = std::max(mx, z(e, 0));
      float denom = 0.0f;
      for (std::size_t e = begin; e < end; ++e) {
        const float v = std::exp(z(e, 0) - mx);
        alpha(e, 0) = v;
        denom += v;
      }
      for (std::size_t e = begin; e < end; ++e) alpha(e, 0) /= denom;
    }
  });
}

// Deterministic scatter-accumulate: body(begin, end, target) adds edges
// [begin, end) into `target`, indexing rows through the scatter index. With
// one effective thread the body runs once against `out` — the pre-runtime
// serial loop. Ascending indices (GraphPlan edges are dst-sorted) take a
// sorted-span path whose chunks own disjoint output rows, bit-identical to
// serial at any thread count; unsorted indices accumulate per-chunk partial
// buffers merged in ascending chunk order (deterministic for every thread
// count >= 2, within FP-reorder epsilon of serial).
template <typename Body>
void scatter_into(Matrix& out, const std::vector<std::int32_t>& idx, Body&& body) {
  const std::size_t n = idx.size();
  if (n == 0) return;
  if (runtime::chunk_count(n, kEdgeGrain) == 1 || runtime::num_threads() == 1 ||
      runtime::in_parallel_region()) {
    body(0, n, out);
    return;
  }
  if (runtime::is_ascending(idx)) {
    runtime::parallel_for_sorted_spans(
        idx, kEdgeGrain, [&](std::size_t b, std::size_t e) { body(b, e, out); },
        "graph.scatter");
    return;
  }
  runtime::parallel_reduce<Matrix>(
      n, runtime::bounded_grain(n, kEdgeGrain),
      [&] { return Matrix(out.rows(), out.cols(), 0.0f); },
      [&](std::size_t b, std::size_t e, Matrix& p) { body(b, e, p); },
      [&](Matrix& p) { add_inplace(out, p); }, "graph.scatter");
}

}  // namespace

IndexHandle make_index(std::vector<std::int32_t> idx) {
  return std::make_shared<const std::vector<std::int32_t>>(std::move(idx));
}

CoeffHandle make_coeffs(std::vector<float> coeffs) {
  return std::make_shared<const std::vector<float>>(std::move(coeffs));
}

SegmentHandle make_segments(SegmentIndex seg) {
  return std::make_shared<const SegmentIndex>(std::move(seg));
}

Tensor gather_rows(const Tensor& a, const IndexHandle& idx) {
  if (idx == nullptr) throw std::invalid_argument("gather_rows: null index handle");
  check_index_bounds(*idx, a.rows(), "gather_rows");
  count_op("nn.gather_rows.calls", "nn.gather_rows.rows", idx->size());
  const std::size_t f = a.cols();
  Matrix out(idx->size(), f);
  runtime::parallel_for("graph.edges", idx->size(), kEdgeGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t e = lo; e < hi; ++e) {
      const float* src = a.value().row(static_cast<std::size_t>((*idx)[e]));
      float* dst = out.row(e);
      for (std::size_t j = 0; j < f; ++j) dst[j] = src[j];
    }
  });
  if (!records_backward(a)) return Tensor(std::move(out));
  return Tensor::from_op(std::move(out), {a}, [a, idx, f](const Matrix& g) {
    Matrix ga(a.rows(), f, 0.0f);
    scatter_into(ga, *idx, [&](std::size_t lo, std::size_t hi, Matrix& t) {
      for (std::size_t e = lo; e < hi; ++e) {
        float* dst = t.row(static_cast<std::size_t>((*idx)[e]));
        const float* src = g.row(e);
        for (std::size_t j = 0; j < f; ++j) dst[j] += src[j];
      }
    });
    a.accumulate_grad(ga);
  });
}

Tensor gather_rows(const Tensor& a, const std::vector<std::int32_t>& idx) {
  return gather_rows(a, make_index(idx));
}

Tensor scatter_add_rows(const Tensor& a, const IndexHandle& idx, std::size_t num_out_rows) {
  if (idx == nullptr) throw std::invalid_argument("scatter_add_rows: null index handle");
  if (idx->size() != a.rows())
    throw std::invalid_argument("scatter_add_rows: index count must equal input rows");
  check_index_bounds(*idx, num_out_rows, "scatter_add_rows");
  count_op("nn.scatter_add_rows.calls", "nn.scatter_add_rows.rows", idx->size());
  const std::size_t f = a.cols();
  Matrix out(num_out_rows, f, 0.0f);
  scatter_into(out, *idx, [&](std::size_t lo, std::size_t hi, Matrix& t) {
    for (std::size_t e = lo; e < hi; ++e) {
      float* dst = t.row(static_cast<std::size_t>((*idx)[e]));
      const float* src = a.value().row(e);
      for (std::size_t j = 0; j < f; ++j) dst[j] += src[j];
    }
  });
  if (!records_backward(a)) return Tensor(std::move(out));
  return Tensor::from_op(std::move(out), {a}, [a, idx, f](const Matrix& g) {
    Matrix ga(idx->size(), f);
    runtime::parallel_for("graph.edges", idx->size(), kEdgeGrain, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t e = lo; e < hi; ++e) {
        const float* src = g.row(static_cast<std::size_t>((*idx)[e]));
        float* dst = ga.row(e);
        for (std::size_t j = 0; j < f; ++j) dst[j] = src[j];
      }
    });
    a.accumulate_grad(ga);
  });
}

Tensor scatter_add_rows(const Tensor& a, const std::vector<std::int32_t>& idx,
                        std::size_t num_out_rows) {
  return scatter_add_rows(a, make_index(idx), num_out_rows);
}

Tensor segment_softmax(const Tensor& logits, const SegmentIndex& seg) {
  if (logits.cols() != 1)
    throw std::invalid_argument("segment_softmax: logits must be a column vector");
  if (seg.num_elements() != logits.rows())
    throw std::invalid_argument("segment_softmax: segment index does not cover logits");
  count_op("nn.segment_softmax.calls", "nn.segment_softmax.edges", logits.rows());
  Matrix out(logits.rows(), 1);
  softmax_over_segments(logits.value(), seg, out);
  if (!records_backward(logits)) return Tensor(std::move(out));
  Matrix alpha = out;  // backward needs the outputs
  return Tensor::from_op(std::move(out), {logits},
                         [logits, seg, alpha = std::move(alpha)](const Matrix& g) {
    // d logit_e = alpha_e * (g_e - sum_k alpha_k g_k) within each segment.
    Matrix gl(alpha.rows(), 1);
    runtime::parallel_for("graph.segments", seg.num_segments(), kSegmentGrain,
                          [&](std::size_t slo, std::size_t shi) {
      for (std::size_t s = slo; s < shi; ++s) {
        const auto begin = static_cast<std::size_t>(seg.offsets[s]);
        const auto end = static_cast<std::size_t>(seg.offsets[s + 1]);
        float dot = 0.0f;
        for (std::size_t e = begin; e < end; ++e) dot += alpha(e, 0) * g(e, 0);
        for (std::size_t e = begin; e < end; ++e)
          gl(e, 0) = alpha(e, 0) * (g(e, 0) - dot);
      }
    });
    logits.accumulate_grad(gl);
  });
}

Tensor scale_rows_by(const Tensor& a, const Tensor& w) {
  if (w.cols() != 1 || w.rows() != a.rows())
    throw std::invalid_argument("scale_rows_by: weights must be (rows x 1)");
  const std::size_t f = a.cols();
  Matrix out = a.value();
  runtime::parallel_for("graph.rows", out.rows(), kRowGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float c = w.value()(i, 0);
      float* r = out.row(i);
      for (std::size_t j = 0; j < f; ++j) r[j] *= c;
    }
  });
  if (!records_backward(a, w)) return Tensor(std::move(out));
  return Tensor::from_op(std::move(out), {a, w}, [a, w, f](const Matrix& g) {
    Matrix ga(g.rows(), f);
    Matrix gw(g.rows(), 1);
    runtime::parallel_for("graph.rows", g.rows(), kRowGrain, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const float c = w.value()(i, 0);
        const float* gr = g.row(i);
        const float* ar = a.value().row(i);
        float* gar = ga.row(i);
        float acc = 0.0f;
        for (std::size_t j = 0; j < f; ++j) {
          gar[j] = gr[j] * c;
          acc += gr[j] * ar[j];
        }
        gw(i, 0) = acc;
      }
    });
    a.accumulate_grad(ga);
    w.accumulate_grad(gw);
  });
}

Tensor scale_rows(const Tensor& a, const CoeffHandle& coeffs) {
  if (coeffs == nullptr) throw std::invalid_argument("scale_rows: null coefficient handle");
  if (coeffs->size() != a.rows())
    throw std::invalid_argument("scale_rows: coeff count must equal row count");
  Matrix out = a.value();
  runtime::parallel_for("graph.rows", out.rows(), kRowGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      float* r = out.row(i);
      for (std::size_t j = 0; j < out.cols(); ++j) r[j] *= (*coeffs)[i];
    }
  });
  if (!records_backward(a)) return Tensor(std::move(out));
  return Tensor::from_op(std::move(out), {a}, [a, coeffs](const Matrix& g) {
    Matrix ga = g;
    runtime::parallel_for("graph.rows", ga.rows(), kRowGrain, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        float* r = ga.row(i);
        for (std::size_t j = 0; j < ga.cols(); ++j) r[j] *= (*coeffs)[i];
      }
    });
    a.accumulate_grad(ga);
  });
}

Tensor scatter_mean_rows(const Tensor& a, const IndexHandle& idx, const CoeffHandle& inv,
                         std::size_t num_out_rows) {
  if (idx == nullptr || inv == nullptr)
    throw std::invalid_argument("scatter_mean_rows: null handle");
  if (idx->size() != a.rows())
    throw std::invalid_argument("scatter_mean_rows: index count must equal input rows");
  if (inv->size() != num_out_rows)
    throw std::invalid_argument("scatter_mean_rows: coefficient count must equal output rows");
  check_index_bounds(*idx, num_out_rows, "scatter_mean_rows");
  count_op("nn.scatter_mean_rows.calls", "nn.scatter_mean_rows.rows", idx->size());
  const std::size_t f = a.cols();
  Matrix out(num_out_rows, f, 0.0f);
  scatter_into(out, *idx, [&](std::size_t lo, std::size_t hi, Matrix& t) {
    for (std::size_t e = lo; e < hi; ++e) {
      float* dst = t.row(static_cast<std::size_t>((*idx)[e]));
      const float* src = a.value().row(e);
      for (std::size_t j = 0; j < f; ++j) dst[j] += src[j];
    }
  });
  runtime::parallel_for("graph.rows", num_out_rows, kRowGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float c = (*inv)[i];
      float* r = out.row(i);
      for (std::size_t j = 0; j < f; ++j) r[j] *= c;
    }
  });
  if (!records_backward(a)) return Tensor(std::move(out));
  return Tensor::from_op(std::move(out), {a}, [a, idx, inv, f](const Matrix& g) {
    // d a[e] = g[idx[e]] * inv[idx[e]]: the scatter's gradient copy and the
    // mean's scaling folded into one pass.
    Matrix ga(idx->size(), f);
    runtime::parallel_for("graph.edges", idx->size(), kEdgeGrain, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t e = lo; e < hi; ++e) {
        const auto i = static_cast<std::size_t>((*idx)[e]);
        const float c = (*inv)[i];
        const float* src = g.row(i);
        float* dst = ga.row(e);
        for (std::size_t j = 0; j < f; ++j) dst[j] = src[j] * c;
      }
    });
    a.accumulate_grad(ga);
  });
}

CompactIndex build_compact_index(const std::vector<std::int32_t>& edges, std::size_t num_rows) {
  check_index_bounds(edges, num_rows, "build_compact_index");
  // position[r] = slot of row r among the touched rows, ascending.
  std::vector<std::int32_t> position(num_rows, -1);
  for (const auto e : edges) position[static_cast<std::size_t>(e)] = 0;
  std::vector<std::int32_t> rows;
  for (std::size_t r = 0; r < num_rows; ++r) {
    if (position[r] < 0) continue;
    position[r] = static_cast<std::int32_t>(rows.size());
    rows.push_back(static_cast<std::int32_t>(r));
  }
  std::vector<std::int32_t> remap(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e)
    remap[e] = position[static_cast<std::size_t>(edges[e])];
  CompactIndex ci;
  ci.rows = make_index(std::move(rows));
  ci.remap = make_index(std::move(remap));
  return ci;
}

Tensor edge_attention(const Tensor& el, const Tensor& er, const Tensor& msg,
                      const IndexHandle& el_idx, const IndexHandle& er_idx,
                      const IndexHandle& dst, const SegmentHandle& seg,
                      std::size_t num_out_rows, float negative_slope, Matrix* alpha_out) {
  if (el_idx == nullptr || er_idx == nullptr || dst == nullptr || seg == nullptr)
    throw std::invalid_argument("edge_attention: null index handle");
  const std::size_t e_total = dst->size();
  if (el_idx->size() != e_total || er_idx->size() != e_total)
    throw std::invalid_argument("edge_attention: el/er index must have one entry per edge");
  if (el.cols() != 1 || er.cols() != 1)
    throw std::invalid_argument("edge_attention: logits must be column vectors");
  if (msg.rows() != er.rows())
    throw std::invalid_argument("edge_attention: message rows must equal er rows");
  if (seg->num_elements() != e_total)
    throw std::invalid_argument("edge_attention: segment index does not cover edges");
  check_index_bounds(*el_idx, el.rows(), "edge_attention");
  check_index_bounds(*er_idx, er.rows(), "edge_attention");
  check_index_bounds(*dst, num_out_rows, "edge_attention");
  count_op("nn.edge_attention.calls", "nn.edge_attention.edges", e_total);

  const std::size_t f = msg.cols();
  const bool backward = records_backward(el, er, msg);
  // logit -> leaky-relu -> per-segment softmax, all in one pass over E. The
  // pre-activation logit is kept only for the backward pass.
  Matrix logit(backward ? e_total : 0, 1);
  Matrix z(e_total, 1);
  runtime::parallel_for("graph.edges", e_total, kEdgeGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t e = lo; e < hi; ++e) {
      const float v = el.value()(static_cast<std::size_t>((*el_idx)[e]), 0) +
                      er.value()(static_cast<std::size_t>((*er_idx)[e]), 0);
      if (backward) logit(e, 0) = v;
      z(e, 0) = v > 0.0f ? v : negative_slope * v;
    }
  });
  Matrix alpha(e_total, 1);
  softmax_over_segments(z, *seg, alpha);
  if (alpha_out != nullptr) *alpha_out = alpha;

  Matrix out(num_out_rows, f, 0.0f);
  scatter_into(out, *dst, [&](std::size_t lo, std::size_t hi, Matrix& t) {
    for (std::size_t e = lo; e < hi; ++e) {
      const float c = alpha(e, 0);
      float* d = t.row(static_cast<std::size_t>((*dst)[e]));
      const float* m = msg.value().row(static_cast<std::size_t>((*er_idx)[e]));
      for (std::size_t j = 0; j < f; ++j) d[j] += c * m[j];
    }
  });

  if (!backward) return Tensor(std::move(out));
  return Tensor::from_op(
      std::move(out), {el, er, msg},
      [el, er, msg, el_idx, er_idx, dst, seg, negative_slope, f, e_total,
       logit = std::move(logit), alpha = std::move(alpha)](const Matrix& g) {
        // Reverse of the fused chain, with r = er_idx[e]:
        //   d msg[r] += alpha_e * g[dst[e]]
        //   d alpha_e = <g[dst[e]], msg[r]>
        //   d z_e     = alpha_e * (d alpha_e - sum_k alpha_k d alpha_k)   (softmax)
        //   d logit_e = d z_e * (logit_e > 0 ? 1 : slope)                 (leaky relu)
        //   d el[i]  += d logit_e over edges with el_idx[e] == i (resp. er).
        Matrix galpha(e_total, 1);
        runtime::parallel_for("graph.edges", e_total, kEdgeGrain, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t e = lo; e < hi; ++e) {
            const float* gr = g.row(static_cast<std::size_t>((*dst)[e]));
            const float* mr = msg.value().row(static_cast<std::size_t>((*er_idx)[e]));
            float acc = 0.0f;
            for (std::size_t j = 0; j < f; ++j) acc += gr[j] * mr[j];
            galpha(e, 0) = acc;
          }
        });
        Matrix gmsg(msg.rows(), f, 0.0f);
        scatter_into(gmsg, *er_idx, [&](std::size_t lo, std::size_t hi, Matrix& t) {
          for (std::size_t e = lo; e < hi; ++e) {
            const float* gr = g.row(static_cast<std::size_t>((*dst)[e]));
            float* gm = t.row(static_cast<std::size_t>((*er_idx)[e]));
            const float c = alpha(e, 0);
            for (std::size_t j = 0; j < f; ++j) gm[j] += gr[j] * c;
          }
        });
        Matrix glogit(e_total, 1);
        runtime::parallel_for("graph.segments", seg->num_segments(), kSegmentGrain,
                              [&](std::size_t slo, std::size_t shi) {
          for (std::size_t s = slo; s < shi; ++s) {
            const auto begin = static_cast<std::size_t>(seg->offsets[s]);
            const auto end = static_cast<std::size_t>(seg->offsets[s + 1]);
            float dot = 0.0f;
            for (std::size_t e = begin; e < end; ++e) dot += alpha(e, 0) * galpha(e, 0);
            for (std::size_t e = begin; e < end; ++e) {
              const float gz = alpha(e, 0) * (galpha(e, 0) - dot);
              glogit(e, 0) = logit(e, 0) > 0.0f ? gz : gz * negative_slope;
            }
          }
        });
        Matrix gel(el.rows(), 1, 0.0f);
        Matrix ger(er.rows(), 1, 0.0f);
        scatter_into(gel, *el_idx, [&](std::size_t lo, std::size_t hi, Matrix& t) {
          for (std::size_t e = lo; e < hi; ++e)
            t(static_cast<std::size_t>((*el_idx)[e]), 0) += glogit(e, 0);
        });
        scatter_into(ger, *er_idx, [&](std::size_t lo, std::size_t hi, Matrix& t) {
          for (std::size_t e = lo; e < hi; ++e)
            t(static_cast<std::size_t>((*er_idx)[e]), 0) += glogit(e, 0);
        });
        el.accumulate_grad(gel);
        er.accumulate_grad(ger);
        msg.accumulate_grad(gmsg);
      });
}

std::vector<float> index_counts(const std::vector<std::int32_t>& idx, std::size_t n) {
  std::vector<float> counts(n, 0.0f);
  check_index_bounds(idx, n, "index_counts");
  for (const auto i : idx) counts[static_cast<std::size_t>(i)] += 1.0f;
  return counts;
}

std::vector<float> inverse_index_counts(const std::vector<std::int32_t>& idx, std::size_t n) {
  std::vector<float> inv = index_counts(idx, n);
  for (auto& v : inv)
    if (v > 0.0f) v = 1.0f / v;
  return inv;
}

}  // namespace paragraph::nn

// The fused kernels (scatter_mean_rows, edge_attention) carry
// hand-derived backward passes. Each is checked two ways: the forward must
// match the composed op chain it replaces exactly, and the gradient must
// match central finite differences — including the edge cases (empty
// segments, isolated output rows, a source row shared by many edges, an
// operand row no edge reads). edge_attention reads node-level operands
// through its edge indices; it must be byte-equal to the per-edge form
// that gathers them first.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "nn/graph_ops.h"
#include "nn/ops.h"
#include "test_util.h"

namespace paragraph::nn {
namespace {

using paragraph::testing::check_gradient;
using paragraph::testing::random_matrix;

Matrix ones_target(std::size_t r, std::size_t c) { return Matrix(r, c, 0.3f); }

void expect_matrices_equal(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
}

// ------------------------------------------------------ scatter_mean ----

TEST(FusedKernels, ScatterMeanMatchesComposed) {
  util::Rng rng(51);
  Tensor a(random_matrix(6, 3, rng), true);
  // Row 2 of the output is never indexed (isolated destination).
  const std::vector<std::int32_t> idx = {0, 0, 1, 3, 3, 3};
  const auto ih = make_index(idx);
  const auto inv = make_coeffs(inverse_index_counts(idx, 4));

  const Tensor fused = scatter_mean_rows(a, ih, inv, 4);
  const Tensor composed = scale_rows(scatter_add_rows(a, idx, 4), inverse_index_counts(idx, 4));
  expect_matrices_equal(fused.value(), composed.value());
}

TEST(FusedKernels, ScatterMeanGradient) {
  util::Rng rng(52);
  Tensor a(random_matrix(5, 2, rng), true);
  const std::vector<std::int32_t> idx = {1, 0, 1, 2, 2};
  const auto ih = make_index(idx);
  const auto inv = make_coeffs(inverse_index_counts(idx, 4));
  check_gradient(a, [&](const Tensor& x) {
    return mse_loss(scatter_mean_rows(x, ih, inv, 4), ones_target(4, 2));
  });
}

TEST(FusedKernels, ScatterMeanValidatesShapes) {
  Tensor a(Matrix(3, 2, 1.0f));
  const auto idx = make_index({0, 1, 1});
  EXPECT_THROW(scatter_mean_rows(a, idx, make_coeffs({1.0f}), 2), std::invalid_argument);
  EXPECT_THROW(scatter_mean_rows(a, make_index({0, 5, 1}), make_coeffs({1.0f, 1.0f}), 2),
               std::out_of_range);
}

// ---------------------------------------------------- edge_attention ----

// Shared case: 3 destination nodes; node 1 has no incoming edges (empty
// segment), node 0 has three, node 2 has one (single-edge softmax).
struct AttentionCase {
  std::vector<std::int32_t> src = {0, 1, 3, 2};
  std::vector<std::int32_t> dst = {0, 0, 0, 2};
  SegmentIndex seg{{0, 3, 3, 4}};
  std::size_t num_src = 4;
  std::size_t num_dst = 3;
};

// Composed reference chain for node-indexed operands, as the pre-engine GAT
// implementation wrote it.
Tensor composed_attention(const Tensor& el, const Tensor& er, const Tensor& msg,
                          const AttentionCase& c) {
  Tensor logits = add(gather_rows(el, c.dst), gather_rows(er, c.src));
  Tensor alpha = segment_softmax(leaky_relu(logits), c.seg);
  return scatter_add_rows(scale_rows_by(gather_rows(msg, c.src), alpha), c.dst, c.num_dst);
}

bool bytes_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

IndexHandle identity_index(std::size_t n) {
  std::vector<std::int32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  return make_index(std::move(idx));
}

TEST(FusedKernels, EdgeAttentionMatchesComposed) {
  util::Rng rng(56);
  const AttentionCase c;
  Tensor el(random_matrix(c.num_dst, 1, rng), true);
  Tensor er(random_matrix(c.num_src, 1, rng), true);
  Tensor msg(random_matrix(c.num_src, 3, rng), true);

  const Tensor fused = edge_attention(el, er, msg, make_index(c.dst), make_index(c.src),
                                      make_index(c.dst), make_segments(c.seg), c.num_dst);
  expect_matrices_equal(fused.value(), composed_attention(el, er, msg, c).value());
}

TEST(FusedKernels, EdgeAttentionGradients) {
  util::Rng rng(57);
  const AttentionCase c;
  Tensor el(random_matrix(c.num_dst, 1, rng), true);
  Tensor er(random_matrix(c.num_src, 1, rng), true);
  Tensor msg(random_matrix(c.num_src, 2, rng), true);
  const auto eli = make_index(c.dst);
  const auto eri = make_index(c.src);
  const auto di = make_index(c.dst);
  const auto seg = make_segments(c.seg);

  const auto run = [&](const Tensor& l, const Tensor& r, const Tensor& m) {
    return mse_loss(edge_attention(l, r, m, eli, eri, di, seg, c.num_dst),
                    ones_target(c.num_dst, 2));
  };
  check_gradient(el, [&](const Tensor& x) { return run(x, er, msg); });
  check_gradient(er, [&](const Tensor& x) { return run(el, x, msg); });
  check_gradient(msg, [&](const Tensor& x) { return run(el, er, x); });
}

// The ParaGraph layout: el / er / msg live on the distinct rows each side
// touches and edges reach them through compact remaps. Source row 1 feeds
// six edges across three destinations; source row 3 and destination row 2
// are never read.
struct CompactAttentionCase {
  std::vector<std::int32_t> el_idx = {0, 0, 0, 1, 1, 3, 3, 3};
  std::vector<std::int32_t> er_idx = {1, 0, 1, 1, 2, 1, 1, 1};
  std::vector<std::int32_t> dst = {0, 0, 0, 1, 1, 3, 3, 3};
  SegmentIndex seg{{0, 3, 5, 5, 8}};
  std::size_t num_el = 4;
  std::size_t num_er = 4;
  std::size_t num_dst = 4;
};

TEST(FusedKernels, EdgeAttentionIndexedIsByteEqualToPerEdgeForm) {
  util::Rng rng(60);
  const CompactAttentionCase c;
  const std::size_t e = c.dst.size();
  const Tensor el(random_matrix(c.num_el, 1, rng));
  const Tensor er(random_matrix(c.num_er, 1, rng));
  const Tensor msg(random_matrix(c.num_er, 33, rng));
  const auto eli = make_index(c.el_idx);
  const auto eri = make_index(c.er_idx);
  const auto di = make_index(c.dst);
  const auto seg = make_segments(c.seg);

  Matrix alpha_indexed, alpha_per_edge;
  const Tensor indexed =
      edge_attention(el, er, msg, eli, eri, di, seg, c.num_dst, 0.2f, &alpha_indexed);
  const auto id = identity_index(e);
  const Tensor per_edge =
      edge_attention(gather_rows(el, eli), gather_rows(er, eri), gather_rows(msg, eri), id, id,
                     di, seg, c.num_dst, 0.2f, &alpha_per_edge);
  EXPECT_TRUE(bytes_equal(indexed.value(), per_edge.value()));
  EXPECT_TRUE(bytes_equal(alpha_indexed, alpha_per_edge));
  // Destination row 2 has no edges and stays exactly zero.
  for (std::size_t j = 0; j < msg.cols(); ++j) EXPECT_EQ(indexed.value()(2, j), 0.0f);
}

TEST(FusedKernels, EdgeAttentionIndexedGradients) {
  util::Rng rng(61);
  const CompactAttentionCase c;
  Tensor el(random_matrix(c.num_el, 1, rng), true);
  Tensor er(random_matrix(c.num_er, 1, rng), true);
  Tensor msg(random_matrix(c.num_er, 2, rng), true);
  const auto eli = make_index(c.el_idx);
  const auto eri = make_index(c.er_idx);
  const auto di = make_index(c.dst);
  const auto seg = make_segments(c.seg);

  const auto run = [&](const Tensor& l, const Tensor& r, const Tensor& m) {
    return mse_loss(edge_attention(l, r, m, eli, eri, di, seg, c.num_dst),
                    ones_target(c.num_dst, 2));
  };
  check_gradient(el, [&](const Tensor& x) { return run(x, er, msg); });
  check_gradient(er, [&](const Tensor& x) { return run(el, x, msg); });
  check_gradient(msg, [&](const Tensor& x) { return run(el, er, x); });

  // Rows no edge reads get exactly zero gradient.
  el.zero_grad();
  er.zero_grad();
  msg.zero_grad();
  run(el, er, msg).backward();
  EXPECT_EQ(el.grad()(2, 0), 0.0f);
  EXPECT_EQ(er.grad()(3, 0), 0.0f);
  for (std::size_t j = 0; j < msg.cols(); ++j) EXPECT_EQ(msg.grad()(3, j), 0.0f);
}

TEST(FusedKernels, EdgeAttentionRecordsAlpha) {
  util::Rng rng(59);
  const AttentionCase c;
  Tensor el(random_matrix(c.num_dst, 1, rng));
  Tensor er(random_matrix(c.num_src, 1, rng));
  Tensor msg(random_matrix(c.num_src, 2, rng));
  Matrix alpha;
  edge_attention(el, er, msg, make_index(c.dst), make_index(c.src), make_index(c.dst),
                 make_segments(c.seg), c.num_dst, 0.2f, &alpha);
  ASSERT_EQ(alpha.rows(), c.dst.size());
  // Each non-empty segment's weights sum to one.
  EXPECT_NEAR(alpha(0, 0) + alpha(1, 0) + alpha(2, 0), 1.0f, 1e-6f);
  EXPECT_NEAR(alpha(3, 0), 1.0f, 1e-6f);  // single-edge softmax
}

TEST(FusedKernels, EdgeAttentionValidatesIndices) {
  Tensor el(Matrix(2, 1, 0.0f));
  Tensor er(Matrix(3, 1, 0.0f));
  Tensor msg(Matrix(3, 2, 1.0f));
  const auto di = make_index({0, 1});
  const auto eli = make_index({0, 1});
  const auto eri = make_index({2, 0});
  const auto seg = make_segments(SegmentIndex{{0, 1, 2}});
  EXPECT_NO_THROW(edge_attention(el, er, msg, eli, eri, di, seg, 2));
  // Null handles.
  EXPECT_THROW(edge_attention(el, er, msg, nullptr, eri, di, seg, 2), std::invalid_argument);
  EXPECT_THROW(edge_attention(el, er, msg, eli, nullptr, di, seg, 2), std::invalid_argument);
  EXPECT_THROW(edge_attention(el, er, msg, eli, eri, nullptr, seg, 2), std::invalid_argument);
  // Wrong-length el / er index.
  EXPECT_THROW(edge_attention(el, er, msg, make_index({0}), eri, di, seg, 2),
               std::invalid_argument);
  EXPECT_THROW(edge_attention(el, er, msg, eli, make_index({0, 1, 2}), di, seg, 2),
               std::invalid_argument);
  // msg must have one row per er row.
  EXPECT_THROW(edge_attention(el, er, Tensor(Matrix(2, 2, 1.0f)), eli, eri, di, seg, 2),
               std::invalid_argument);
  // Out-of-range entries in any index.
  EXPECT_THROW(edge_attention(el, er, msg, make_index({0, 2}), eri, di, seg, 2),
               std::out_of_range);
  EXPECT_THROW(edge_attention(el, er, msg, eli, make_index({3, 0}), di, seg, 2),
               std::out_of_range);
  EXPECT_THROW(edge_attention(el, er, msg, eli, make_index({-1, 0}), di, seg, 2),
               std::out_of_range);
  EXPECT_THROW(edge_attention(el, er, msg, eli, eri, make_index({0, 2}), seg, 2),
               std::out_of_range);
}

}  // namespace
}  // namespace paragraph::nn

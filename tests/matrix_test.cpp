#include "nn/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "runtime/thread_pool.h"
#include "test_util.h"
#include "util/rng.h"

namespace paragraph::nn {
namespace {

Matrix naive_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      for (std::size_t k = 0; k < a.cols(); ++k) c(i, j) += a(i, k) * b(k, j);
  return c;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m(0, 1), 7.0f);
  EXPECT_FLOAT_EQ(m.row(0)[1], 7.0f);
}

TEST(Matrix, ConstructionFromDataValidatesSize) {
  EXPECT_NO_THROW(Matrix(2, 2, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, std::vector<float>{1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(Matrix, GemmMatchesNaive) {
  util::Rng rng(7);
  const Matrix a = paragraph::testing::random_matrix(5, 7, rng);
  const Matrix b = paragraph::testing::random_matrix(7, 3, rng);
  EXPECT_LT(max_abs_diff(gemm(a, b), naive_gemm(a, b)), 1e-5f);
}

TEST(Matrix, GemmShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(gemm(a, b), std::invalid_argument);
}

TEST(Matrix, GemmNtMatchesTransposedGemm) {
  util::Rng rng(11);
  const Matrix a = paragraph::testing::random_matrix(4, 6, rng);
  const Matrix b = paragraph::testing::random_matrix(5, 6, rng);
  EXPECT_LT(max_abs_diff(gemm_nt(a, b), naive_gemm(a, transpose(b))), 1e-5f);
}

TEST(Matrix, GemmTnMatchesTransposedGemm) {
  util::Rng rng(13);
  const Matrix a = paragraph::testing::random_matrix(6, 4, rng);
  const Matrix b = paragraph::testing::random_matrix(6, 5, rng);
  EXPECT_LT(max_abs_diff(gemm_tn(a, b), naive_gemm(transpose(a), b)), 1e-5f);
}

TEST(Matrix, TransposeRoundTrip) {
  util::Rng rng(17);
  const Matrix a = paragraph::testing::random_matrix(3, 8, rng);
  EXPECT_LT(max_abs_diff(transpose(transpose(a)), a), 1e-7f);
}

TEST(Matrix, AddAndAxpyInplace) {
  Matrix a(2, 2, 1.0f);
  Matrix b(2, 2, 2.0f);
  add_inplace(a, b);
  EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
  axpy_inplace(a, -0.5f, b);
  EXPECT_FLOAT_EQ(a(1, 1), 2.0f);
  Matrix c(2, 3);
  EXPECT_THROW(add_inplace(a, c), std::invalid_argument);
  EXPECT_THROW(axpy_inplace(a, 1.0f, c), std::invalid_argument);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix a(1, 2, std::vector<float>{3.0f, 4.0f});
  EXPECT_FLOAT_EQ(frobenius_norm(a), 5.0f);
}

TEST(Matrix, GemmZeroSkipStillCorrect) {
  // The gemm kernel skips zero multipliers; verify the result is identical.
  util::Rng rng(23);
  Matrix a = paragraph::testing::random_matrix(4, 4, rng);
  a(0, 0) = 0.0f;
  a(2, 3) = 0.0f;
  const Matrix b = paragraph::testing::random_matrix(4, 4, rng);
  EXPECT_LT(max_abs_diff(gemm(a, b), naive_gemm(a, b)), 1e-5f);
}

// References with the kernels' exact per-element order: c(i, j) sums
// a(i, p) * b(p, j) for ascending p starting from 0.0f, skipping zero
// multipliers (gemm); gemm_tn sums a(i, p) * b(i, j) for ascending i.
Matrix ordered_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        const float av = a(i, p);
        if (av == 0.0f) continue;
        acc += av * b(p, j);
      }
      c(i, j) = acc;
    }
  return c;
}

Matrix ordered_gemm_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols(), 0.0f);
  for (std::size_t p = 0; p < a.cols(); ++p)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < a.rows(); ++i) {
        const float av = a(i, p);
        if (av == 0.0f) continue;
        acc += av * b(i, j);
      }
      c(p, j) = acc;
    }
  return c;
}

bool bytes_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

struct GemmShape {
  std::size_t m, k;
};

// Output widths around the register tile (32 columns), plus empty m and k;
// m and k span more than one 32-row chunk so threads split the work.
constexpr std::size_t kWidths[] = {1, 7, 31, 32, 33, 64, 65};
constexpr GemmShape kShapes[] = {{70, 19}, {3, 70}, {0, 19}, {70, 0}};

class GemmBitwise : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    threads_before_ = runtime::num_threads();
    runtime::set_num_threads(GetParam());
  }
  void TearDown() override { runtime::set_num_threads(threads_before_); }

 private:
  std::size_t threads_before_ = 1;
};

TEST_P(GemmBitwise, GemmMatchesOrderedReference) {
  util::Rng rng(29);
  for (const std::size_t n : kWidths) {
    for (const GemmShape s : kShapes) {
      Matrix a = paragraph::testing::random_matrix(s.m, s.k, rng);
      Matrix b = paragraph::testing::random_matrix(s.k, n, rng);
      // Column 1 of A is all zero and row 1 of B is +inf: only the zero
      // skip keeps the product finite.
      if (s.k > 1) {
        for (std::size_t i = 0; i < s.m; ++i) a(i, 1) = 0.0f;
        for (std::size_t j = 0; j < n; ++j) b(1, j) = std::numeric_limits<float>::infinity();
      }
      for (std::size_t i = 0; i < a.size(); i += 5) a.data()[i] = 0.0f;
      const Matrix c = gemm(a, b);
      EXPECT_TRUE(bytes_equal(c, ordered_gemm(a, b)))
          << "m=" << s.m << " k=" << s.k << " n=" << n;
      for (std::size_t i = 0; i < c.size(); ++i) ASSERT_TRUE(std::isfinite(c.data()[i]));
    }
  }
}

TEST_P(GemmBitwise, GemmTnMatchesOrderedReference) {
  util::Rng rng(31);
  for (const std::size_t n : kWidths) {
    for (const GemmShape s : kShapes) {
      // gemm_tn(a, b) = a^T b with a (k x m), b (k x n): output m x n.
      Matrix a = paragraph::testing::random_matrix(s.k, s.m, rng);
      Matrix b = paragraph::testing::random_matrix(s.k, n, rng);
      if (s.k > 1) {
        for (std::size_t p = 0; p < s.m; ++p) a(1, p) = 0.0f;
        for (std::size_t j = 0; j < n; ++j) b(1, j) = std::numeric_limits<float>::infinity();
      }
      for (std::size_t i = 0; i < a.size(); i += 5) a.data()[i] = 0.0f;
      const Matrix c = gemm_tn(a, b);
      EXPECT_TRUE(bytes_equal(c, ordered_gemm_tn(a, b)))
          << "m=" << s.m << " k=" << s.k << " n=" << n;
      for (std::size_t i = 0; i < c.size(); ++i) ASSERT_TRUE(std::isfinite(c.data()[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GemmBitwise, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace paragraph::nn

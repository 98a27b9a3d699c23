// Unit tests for the dense kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

TEST(Matrix, ZeroInitialised) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(Matrix, RowSpanAliasesStorage) {
  Matrix m(2, 3);
  m.row(1)[2] = 5.0f;
  EXPECT_EQ(m.at(1, 2), 5.0f);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::logic_error);
  EXPECT_THROW(m.row(5), std::logic_error);
}

TEST(Matrix, RandomIsDeterministicInSeed) {
  Rng r1(4), r2(4);
  const Matrix a = Matrix::random(5, 5, r1);
  const Matrix b = Matrix::random(5, 5, r2);
  EXPECT_TRUE(a == b);
}

TEST(Gemm, MatchesHandComputedProduct) {
  Matrix a(2, 3), b(3, 2), c;
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  ops::gemm(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 2), c;
  EXPECT_THROW(ops::gemm(a, b, c), std::logic_error);
}

TEST(Gemm, IdentityIsNoop) {
  Rng rng(1);
  const Matrix a = Matrix::random(7, 7, rng, 1.0f);
  Matrix eye(7, 7), c;
  for (std::size_t i = 0; i < 7; ++i) eye(i, i) = 1.0f;
  ops::gemm(a, eye, c);
  EXPECT_LT(max_abs_diff(a, c), 1e-6f);
}

TEST(Gemm, LargeParallelMatchesSerialReference) {
  Rng rng(2);
  const Matrix a = Matrix::random(150, 40, rng, 1.0f);
  const Matrix b = Matrix::random(40, 60, rng, 1.0f);
  Matrix c;
  ops::gemm(a, b, c);
  // Straightforward reference.
  for (std::size_t i = 0; i < 150; i += 37) {
    for (std::size_t j = 0; j < 60; j += 13) {
      double s = 0;
      for (std::size_t k = 0; k < 40; ++k) s += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), s, 1e-4);
    }
  }
}

TEST(Gemv, MatchesGemmRow) {
  Rng rng(3);
  const Matrix w = Matrix::random(6, 4, rng, 1.0f);
  const Matrix x = Matrix::random(1, 6, rng, 1.0f);
  Matrix ref;
  ops::gemm(x, w, ref);
  std::vector<float> out(4);
  ops::gemv(x.row(0), w, out);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(out[j], ref(0, j), 1e-5);
}

TEST(Ops, AxpyAndCopy) {
  std::vector<float> x{1, 2, 3}, y{10, 20, 30};
  axpy(x, y, 2.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
  copy(x, y);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
}

TEST(Ops, Activations) {
  std::vector<float> x{-1.0f, 0.0f, 2.0f};
  auto y = x;
  relu(y);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  y = x;
  sigmoid(y);
  EXPECT_NEAR(y[1], 0.5f, 1e-6);
  EXPECT_NEAR(y[2], 1.0f / (1.0f + std::exp(-2.0f)), 1e-6);
  y = x;
  tanh_act(y);
  EXPECT_NEAR(y[0], std::tanh(-1.0f), 1e-6);
}

TEST(Ops, CosineSimilarityBasics) {
  std::vector<float> a{1, 0}, b{0, 1}, c{2, 0}, z{0, 0};
  EXPECT_NEAR(cosine_similarity(a, b), 0.0f, 1e-6);
  EXPECT_NEAR(cosine_similarity(a, c), 1.0f, 1e-6);
  std::vector<float> na{-1, 0};
  EXPECT_NEAR(cosine_similarity(a, na), -1.0f, 1e-6);
  EXPECT_NEAR(cosine_similarity(z, z), 1.0f, 1e-6);  // both zero: identical
  EXPECT_NEAR(cosine_similarity(a, z), 0.0f, 1e-6);
}

TEST(Ops, CosineClampedToUnitRange) {
  std::vector<float> a{1e-3f, 1e-3f}, b{1e-3f, 1e-3f};
  const float c = cosine_similarity(a, b);
  EXPECT_LE(c, 1.0f);
  EXPECT_GE(c, -1.0f);
}

TEST(Ops, MaxAbsDiff) {
  Matrix a(1, 4), b(1, 4);
  b(0, 2) = 0.5f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
}

}  // namespace
}  // namespace tagnn

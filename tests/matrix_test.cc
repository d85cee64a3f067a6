#include "src/la/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

namespace stedb::la {
namespace {

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, RowRoundTrip) {
  Matrix m(2, 2);
  m.SetRow(0, {1.0, 2.0});
  m.SetRow(1, {3.0, 4.0});
  EXPECT_EQ(m.Row(1), (Vector{3.0, 4.0}));
}

TEST(MatrixTest, ResizeRowsGrowsInPlace) {
  la::Matrix m(2, 3);
  m.SetRow(0, {1, 2, 3});
  m.SetRow(1, {4, 5, 6});
  m.ResizeRows(4, 9.0);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.Row(0), (la::Vector{1, 2, 3}));
  EXPECT_EQ(m.Row(1), (la::Vector{4, 5, 6}));
  EXPECT_EQ(m.Row(2), (la::Vector{9, 9, 9}));
  EXPECT_EQ(m.Row(3), (la::Vector{9, 9, 9}));
}

TEST(MatrixTest, ResizeRowsShrinksKeepingPrefix) {
  la::Matrix m(3, 2);
  m.SetRow(0, {1, 2});
  m.SetRow(1, {3, 4});
  m.SetRow(2, {5, 6});
  m.ResizeRows(1);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.Row(0), (la::Vector{1, 2}));
}

TEST(MatrixTest, Transposed) {
  Matrix m(2, 3);
  m.SetRow(0, {1, 2, 3});
  m.SetRow(1, {4, 5, 6});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 0), 1.0);
}

TEST(MatrixTest, MultiplyAgainstKnown) {
  Matrix a(2, 2), b(2, 2);
  a.SetRow(0, {1, 2});
  a.SetRow(1, {3, 4});
  b.SetRow(0, {5, 6});
  b.SetRow(1, {7, 8});
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyVec) {
  Matrix a(2, 3);
  a.SetRow(0, {1, 0, 2});
  a.SetRow(1, {0, 3, -1});
  Vector v = {1, 2, 3};
  Vector out = a.MultiplyVec(v);
  EXPECT_DOUBLE_EQ(out[0], 7.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
}

TEST(MatrixTest, TransposeMultiplyVecMatchesTransposed) {
  Rng rng(3);
  Matrix a = Matrix::RandomGaussian(4, 6, 1.0, rng);
  Vector v = RandomVector(4, 1.0, rng);
  Vector direct = a.TransposeMultiplyVec(v);
  Vector via_t = a.Transposed().MultiplyVec(v);
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(direct[i], via_t[i], 1e-12);
}

TEST(MatrixTest, SymmetrizeMakesSymmetric) {
  Rng rng(5);
  Matrix m = Matrix::RandomGaussian(5, 5, 1.0, rng);
  m.SymmetrizeInPlace();
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(m(i, j), m(j, i));
    }
  }
}

TEST(MatrixTest, RandomSymmetricIsSymmetric) {
  Rng rng(7);
  Matrix m = Matrix::RandomSymmetric(6, 0.5, rng);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) EXPECT_DOUBLE_EQ(m(i, j), m(j, i));
  }
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(2, 2);
  m.SetRow(0, {3, 0});
  m.SetRow(1, {0, 4});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a(1, 3), b(1, 3);
  a.SetRow(0, {1, 2, 3});
  b.SetRow(0, {1, 2.5, 2});
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(a, b), 1.0);
}

TEST(VectorTest, DotAndNorm) {
  Vector a = {1, 2, 2};
  EXPECT_DOUBLE_EQ(Dot(a, a), 9.0);
  EXPECT_DOUBLE_EQ(Norm2(a), 3.0);
}

TEST(VectorTest, Axpy) {
  Vector a = {1, 1};
  Vector b = {2, 3};
  Axpy(2.0, b, a);
  EXPECT_EQ(a, (Vector{5.0, 7.0}));
}

TEST(VectorTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
}

TEST(VectorTest, CosineSimilarity) {
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {2, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {0, 5}), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {1, 1}), 0.0);
  EXPECT_NEAR(CosineSimilarity({1, 1}, {-1, -1}), -1.0, 1e-12);
}

/// Property sweep: (A B)^T v == B^T (A^T v) on random shapes.
class MatrixPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatrixPropertyTest, MultiplyAssociatesWithVec) {
  Rng rng(GetParam());
  const size_t m = 2 + rng.NextIndex(6);
  const size_t k = 2 + rng.NextIndex(6);
  const size_t n = 2 + rng.NextIndex(6);
  Matrix a = Matrix::RandomGaussian(m, k, 1.0, rng);
  Matrix b = Matrix::RandomGaussian(k, n, 1.0, rng);
  Vector v = RandomVector(n, 1.0, rng);
  Vector lhs = a.Multiply(b).MultiplyVec(v);
  Vector rhs = a.MultiplyVec(b.MultiplyVec(v));
  ASSERT_EQ(lhs.size(), rhs.size());
  for (size_t i = 0; i < lhs.size(); ++i) EXPECT_NEAR(lhs[i], rhs[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixPropertyTest,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace stedb::la

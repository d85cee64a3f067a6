#include "src/la/svd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tests/test_util.h"

namespace stedb::la {
namespace {

// ---- Byte-level reference ---------------------------------------------
// JacobiSvd, PseudoInverse and PinvSolve exactly as they were written
// before the rotations moved onto transposed working copies: the same
// code, walking the columns of the row-major W and V. The library must
// reproduce these bytes on every input.

Svd ReferenceJacobiSvd(const Matrix& a, int max_sweeps = 60,
                       double tol = 1e-12) {
  const bool transposed = a.rows() < a.cols();
  Matrix w = transposed ? a.Transposed() : a;
  const size_t m = w.rows();
  const size_t n = w.cols();

  Matrix v = Matrix::Identity(n);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (size_t i = 0; i < m; ++i) {
          const double wp = w(i, p);
          const double wq = w(i, q);
          alpha += wp * wp;
          beta += wq * wq;
          gamma += wp * wq;
        }
        if (alpha == 0.0 || beta == 0.0) continue;
        off = std::max(off, std::fabs(gamma) / std::sqrt(alpha * beta));
        if (std::fabs(gamma) <= tol * std::sqrt(alpha * beta)) continue;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (size_t i = 0; i < m; ++i) {
          const double wp = w(i, p);
          const double wq = w(i, q);
          w(i, p) = c * wp - s * wq;
          w(i, q) = s * wp + c * wq;
        }
        for (size_t i = 0; i < n; ++i) {
          const double vp = v(i, p);
          const double vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (off <= tol) break;
  }

  Vector sigma(n, 0.0);
  Matrix u(m, n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (size_t i = 0; i < m; ++i) norm += w(i, j) * w(i, j);
    norm = std::sqrt(norm);
    sigma[j] = norm;
    if (norm > 0.0) {
      for (size_t i = 0; i < m; ++i) u(i, j) = w(i, j) / norm;
    }
  }

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return sigma[x] > sigma[y]; });
  Matrix us(m, n), vs(n, n);
  Vector ss(n);
  for (size_t j = 0; j < n; ++j) {
    ss[j] = sigma[order[j]];
    for (size_t i = 0; i < m; ++i) us(i, j) = u(i, order[j]);
    for (size_t i = 0; i < n; ++i) vs(i, j) = v(i, order[j]);
  }

  Svd out;
  if (transposed) {
    out.u = std::move(vs);
    out.v = std::move(us);
  } else {
    out.u = std::move(us);
    out.v = std::move(vs);
  }
  out.sigma = std::move(ss);
  return out;
}

Matrix ReferencePseudoInverse(const Matrix& a, double rcond = 1e-10) {
  Svd svd = ReferenceJacobiSvd(a);
  const double cutoff =
      svd.sigma.empty() ? 0.0 : rcond * svd.sigma.front();
  const size_t r = svd.sigma.size();
  Matrix pinv(a.cols(), a.rows(), 0.0);
  for (size_t k = 0; k < r; ++k) {
    if (svd.sigma[k] <= cutoff || svd.sigma[k] == 0.0) continue;
    const double inv = 1.0 / svd.sigma[k];
    for (size_t i = 0; i < a.cols(); ++i) {
      const double vik = svd.v(i, k) * inv;
      if (vik == 0.0) continue;
      double* row = pinv.RowPtr(i);
      for (size_t j = 0; j < a.rows(); ++j) row[j] += vik * svd.u(j, k);
    }
  }
  return pinv;
}

Vector ReferencePinvSolve(const Matrix& a, const Vector& b,
                          double rcond = 1e-10) {
  Svd svd = ReferenceJacobiSvd(a);
  const double cutoff =
      svd.sigma.empty() ? 0.0 : rcond * svd.sigma.front();
  Vector x(a.cols(), 0.0);
  for (size_t k = 0; k < svd.sigma.size(); ++k) {
    if (svd.sigma[k] <= cutoff || svd.sigma[k] == 0.0) continue;
    double coeff = 0.0;
    for (size_t i = 0; i < a.rows(); ++i) coeff += svd.u(i, k) * b[i];
    coeff /= svd.sigma[k];
    for (size_t i = 0; i < a.cols(); ++i) x[i] += coeff * svd.v(i, k);
  }
  return x;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBytes(a.data(), b.data());
}

/// C^T C of `rows` random rows of width d, accumulated the way the FoRWaRD
/// extender builds its normal matrix (rows with a zero entry skip it).
Matrix NormalMatrix(size_t rows, size_t d, Rng& rng) {
  Matrix normal(d, d, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    const Vector c = RandomVector(d, 1.0, rng);
    for (size_t i = 0; i < d; ++i) {
      for (size_t k = 0; k < d; ++k) normal(i, k) += c[i] * c[k];
    }
  }
  return normal;
}

/// Tall, wide, square, rank-deficient (a low-rank product, and one with a
/// zero column and row), tiny and normal-matrix inputs.
std::vector<std::pair<std::string, Matrix>> PinnedInputs() {
  Rng rng(2718);
  std::vector<std::pair<std::string, Matrix>> in;
  in.emplace_back("tall 9x4", Matrix::RandomGaussian(9, 4, 1.0, rng));
  in.emplace_back("tall 40x7", Matrix::RandomGaussian(40, 7, 3.0, rng));
  in.emplace_back("wide 4x9", Matrix::RandomGaussian(4, 9, 1.0, rng));
  in.emplace_back("wide 7x33", Matrix::RandomGaussian(7, 33, 0.5, rng));
  in.emplace_back("square 6x6", Matrix::RandomGaussian(6, 6, 1.0, rng));
  in.emplace_back("square 17x17", Matrix::RandomGaussian(17, 17, 1.0, rng));
  in.emplace_back("1x1", Matrix::RandomGaussian(1, 1, 1.0, rng));
  in.emplace_back("1x5", Matrix::RandomGaussian(1, 5, 1.0, rng));
  in.emplace_back("identity 5", Matrix::Identity(5));
  {
    const Matrix l = Matrix::RandomGaussian(8, 2, 1.0, rng);
    const Matrix r = Matrix::RandomGaussian(2, 6, 1.0, rng);
    in.emplace_back("rank-2 8x6", l.Multiply(r));
    in.emplace_back("rank-2 6x8", r.Transposed().Multiply(l.Transposed()));
  }
  {
    Matrix z = Matrix::RandomGaussian(7, 5, 1.0, rng);
    for (size_t i = 0; i < z.rows(); ++i) z(i, 2) = 0.0;
    for (size_t j = 0; j < z.cols(); ++j) z(4, j) = 0.0;
    in.emplace_back("zero column 7x5", std::move(z));
  }
  in.emplace_back("C^T C 7x7", NormalMatrix(40, 7, rng));
  in.emplace_back("C^T C 32x32", NormalMatrix(200, 32, rng));
  in.emplace_back("C^T C rank-deficient 32x32", NormalMatrix(20, 32, rng));
  // The sweep runs pair (p, q) at step p + q, up to four pairs of a step
  // per lane group. 2x2 and 3x3 have one pair per step; 8x8 and 10x10
  // have widest steps of exactly four and of five pairs; 40x13 and 5x13
  // (13 columns after the wide input's swap) end their steps in partial
  // groups; the paper's d = 100 has steps up to 50 pairs wide.
  in.emplace_back("square 2x2", Matrix::RandomGaussian(2, 2, 1.0, rng));
  in.emplace_back("square 3x3", Matrix::RandomGaussian(3, 3, 1.0, rng));
  in.emplace_back("square 8x8", Matrix::RandomGaussian(8, 8, 1.0, rng));
  in.emplace_back("square 10x10", Matrix::RandomGaussian(10, 10, 1.0, rng));
  in.emplace_back("tall 40x13", Matrix::RandomGaussian(40, 13, 1.0, rng));
  in.emplace_back("wide 5x13", Matrix::RandomGaussian(5, 13, 1.0, rng));
  in.emplace_back("C^T C 100x100", NormalMatrix(300, 100, rng));
  {
    // A zero column gives alpha == 0 in a lane beside active ones.
    Matrix z = NormalMatrix(200, 32, rng);
    for (size_t i = 0; i < z.rows(); ++i) z(i, 13) = 0.0;
    for (size_t j = 0; j < z.cols(); ++j) z(13, j) = 0.0;
    in.emplace_back("C^T C 32x32 zero row and column", std::move(z));
  }
  {
    // The inf column meets every other column with a ratio of inf / inf,
    // a default NaN that off must not take, and never rotates: |gamma| =
    // inf <= tol * inf. Its U column is inf / inf. The -0.0 entries keep
    // their sign until a rotation touches them. No NaN input, and no NaN
    // gamma (kernels_test has those): where two NaNs meet, x86 keeps the
    // payload of whichever operand the compiler put first.
    Matrix s = Matrix::RandomGaussian(9, 6, 1.0, rng);
    s(0, 1) = -0.0;
    s(2, 0) = -0.0;
    s(2, 3) = std::numeric_limits<double>::infinity();
    s(6, 5) = -0.0;
    in.emplace_back("-0.0 and +inf 9x6", std::move(s));
  }
  return in;
}

/// Every SIMD path this machine can run: the sweep kernel is dispatched,
/// so each pin holds on the scalar and the AVX2 table alike.
std::vector<SimdPath> RunnablePaths() {
  std::vector<SimdPath> paths = {SimdPath::kScalar};
  if (stedb::testing::HasAvx2()) paths.push_back(SimdPath::kAvx2);
  return paths;
}

TEST(SvdPinTest, MatchesReferenceByteForByte) {
  stedb::testing::SimdPathGuard guard;
  const auto inputs = PinnedInputs();
  for (SimdPath path : RunnablePaths()) {
    internal::ForceSimdPathForTest(path);
    for (const auto& [name, a] : inputs) {
      SCOPED_TRACE(std::string(SimdPathName(path)) + " " + name);
      const Svd want = ReferenceJacobiSvd(a);
      auto got = JacobiSvd(a);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(SameBytes(got.value().u, want.u)) << "U";
      EXPECT_TRUE(SameBytes(got.value().sigma, want.sigma)) << "sigma";
      EXPECT_TRUE(SameBytes(got.value().v, want.v)) << "V";

      auto pinv = PseudoInverse(a);
      ASSERT_TRUE(pinv.ok()) << pinv.status();
      EXPECT_TRUE(SameBytes(pinv.value(), ReferencePseudoInverse(a))) << "A+";

      Rng rng(a.rows() * 131 + a.cols());
      const Vector b = RandomVector(a.rows(), 1.0, rng);
      auto x = PinvSolve(a, b);
      ASSERT_TRUE(x.ok()) << x.status();
      EXPECT_TRUE(SameBytes(x.value(), ReferencePinvSolve(a, b))) << "A+ b";
    }
  }
}

/// A sweep cap that stops the rotations before they converge must stop
/// them at the same point, and a loose tolerance must skip the same pairs.
TEST(SvdPinTest, SweepCapAndToleranceMatchReference) {
  stedb::testing::SimdPathGuard guard;
  Rng rng(31);
  const Matrix a = NormalMatrix(60, 12, rng);
  for (SimdPath path : RunnablePaths()) {
    internal::ForceSimdPathForTest(path);
    for (int sweeps : {1, 2, 3}) {
      for (double tol : {1e-12, 1e-3}) {
        SCOPED_TRACE(std::string(SimdPathName(path)) +
                     " sweeps=" + std::to_string(sweeps) +
                     " tol=" + std::to_string(tol));
        const Svd want = ReferenceJacobiSvd(a, sweeps, tol);
        auto got = JacobiSvd(a, sweeps, tol);
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(SameBytes(got.value().u, want.u));
        EXPECT_TRUE(SameBytes(got.value().sigma, want.sigma));
        EXPECT_TRUE(SameBytes(got.value().v, want.v));
      }
    }
  }
}

Matrix FromSvd(const Svd& svd) {
  // U diag(sigma) V^T
  Matrix us = svd.u;
  for (size_t i = 0; i < us.rows(); ++i) {
    for (size_t j = 0; j < us.cols(); ++j) us(i, j) *= svd.sigma[j];
  }
  return us.Multiply(svd.v.Transposed());
}

TEST(SvdTest, ReconstructsTall) {
  Rng rng(1);
  Matrix a = Matrix::RandomGaussian(8, 3, 1.0, rng);
  auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_LT(Matrix::MaxAbsDiff(a, FromSvd(svd.value())), 1e-8);
}

TEST(SvdTest, ReconstructsWide) {
  Rng rng(2);
  Matrix a = Matrix::RandomGaussian(3, 9, 1.0, rng);
  auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_LT(Matrix::MaxAbsDiff(a, FromSvd(svd.value())), 1e-8);
}

TEST(SvdTest, SingularValuesSortedNonNegative) {
  Rng rng(3);
  Matrix a = Matrix::RandomGaussian(6, 4, 2.0, rng);
  auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  const Vector& s = svd.value().sigma;
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s[i], 0.0);
    if (i > 0) {
      EXPECT_LE(s[i], s[i - 1]);
    }
  }
}

TEST(SvdTest, DiagonalMatrixSingularValues) {
  Matrix a(3, 3, 0.0);
  a(0, 0) = 1.0;
  a(1, 1) = 5.0;
  a(2, 2) = 3.0;
  auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd.value().sigma[0], 5.0, 1e-10);
  EXPECT_NEAR(svd.value().sigma[1], 3.0, 1e-10);
  EXPECT_NEAR(svd.value().sigma[2], 1.0, 1e-10);
}

TEST(SvdTest, OrthonormalColumns) {
  Rng rng(4);
  Matrix a = Matrix::RandomGaussian(7, 4, 1.0, rng);
  auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  Matrix utu = svd.value().u.Transposed().Multiply(svd.value().u);
  EXPECT_LT(Matrix::MaxAbsDiff(utu, Matrix::Identity(4)), 1e-8);
  Matrix vtv = svd.value().v.Transposed().Multiply(svd.value().v);
  EXPECT_LT(Matrix::MaxAbsDiff(vtv, Matrix::Identity(4)), 1e-8);
}

TEST(SvdTest, EmptyRejected) {
  EXPECT_FALSE(JacobiSvd(Matrix()).ok());
}

TEST(PinvTest, InverseOfInvertible) {
  Rng rng(5);
  Matrix a = Matrix::RandomGaussian(4, 4, 1.0, rng);
  for (size_t i = 0; i < 4; ++i) a(i, i) += 4.0;
  auto pinv = PseudoInverse(a);
  ASSERT_TRUE(pinv.ok());
  EXPECT_LT(Matrix::MaxAbsDiff(a.Multiply(pinv.value()), Matrix::Identity(4)),
            1e-8);
}

TEST(PinvTest, RankDeficientMinNorm) {
  // a = [1 0; 0 0]: pinv = a itself; x = A+ b has zero second coordinate.
  Matrix a(2, 2, 0.0);
  a(0, 0) = 1.0;
  auto pinv = PseudoInverse(a);
  ASSERT_TRUE(pinv.ok());
  EXPECT_NEAR(pinv.value()(0, 0), 1.0, 1e-10);
  EXPECT_NEAR(pinv.value()(1, 1), 0.0, 1e-10);
}

TEST(PinvSolveTest, MatchesPinvMultiply) {
  Rng rng(6);
  Matrix a = Matrix::RandomGaussian(8, 3, 1.0, rng);
  Vector b = RandomVector(8, 1.0, rng);
  auto x1 = PinvSolve(a, b);
  auto pinv = PseudoInverse(a);
  ASSERT_TRUE(x1.ok());
  ASSERT_TRUE(pinv.ok());
  Vector x2 = pinv.value().MultiplyVec(b);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(x1.value()[i], x2[i], 1e-8);
}

TEST(PinvSolveTest, DimensionMismatch) {
  Matrix a = Matrix::Identity(3);
  EXPECT_FALSE(PinvSolve(a, {1.0}).ok());
}

/// Moore-Penrose property sweep on random matrices: A A+ A = A and
/// A+ A A+ = A+, with A A+ and A+ A symmetric.
class PinvPropertyTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PinvPropertyTest, MoorePenroseConditions) {
  auto [rows, cols] = GetParam();
  Rng rng(static_cast<uint64_t>(rows * 100 + cols));
  Matrix a = Matrix::RandomGaussian(rows, cols, 1.0, rng);
  auto pr = PseudoInverse(a);
  ASSERT_TRUE(pr.ok());
  const Matrix& p = pr.value();
  // 1. A P A = A
  EXPECT_LT(Matrix::MaxAbsDiff(a.Multiply(p).Multiply(a), a), 1e-7);
  // 2. P A P = P
  EXPECT_LT(Matrix::MaxAbsDiff(p.Multiply(a).Multiply(p), p), 1e-7);
  // 3. (A P)^T = A P
  Matrix ap = a.Multiply(p);
  EXPECT_LT(Matrix::MaxAbsDiff(ap, ap.Transposed()), 1e-7);
  // 4. (P A)^T = P A
  Matrix pa = p.Multiply(a);
  EXPECT_LT(Matrix::MaxAbsDiff(pa, pa.Transposed()), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PinvPropertyTest,
    ::testing::Values(std::pair{3, 3}, std::pair{5, 2}, std::pair{2, 5},
                      std::pair{8, 4}, std::pair{4, 8}, std::pair{6, 6},
                      std::pair{10, 3}, std::pair{1, 4}));

}  // namespace
}  // namespace stedb::la

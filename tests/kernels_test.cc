#include "src/la/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/fwd/kernel.h"
#include "src/fwd/trainer.h"
#include "src/n2v/skipgram.h"
#include "src/n2v/vocab.h"
#include "tests/test_util.h"

namespace stedb::la {
namespace {

using stedb::testing::HasAvx2;
using stedb::testing::ReferenceAdamStep;
using stedb::testing::SimdPathGuard;

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Bitwise equality — EXPECT_EQ on doubles would conflate +0.0/-0.0 and
/// choke on NaN; the determinism contract is about bytes.
::testing::AssertionResult BitEq(double a, double b) {
  if (Bits(a) == Bits(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << Bits(a) << ") vs " << b << " (0x"
         << Bits(b) << ")";
}

::testing::AssertionResult BitEq(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (Bits(a[i]) != Bits(b[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << BitEq(a[i], b[i]).message();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Lengths that exercise every tail shape of the blocked reduction: below
/// one lane group, partial groups, exact block multiples, one past.
std::vector<size_t> FuzzLengths() {
  std::vector<size_t> lens;
  for (size_t n = 0; n <= 17; ++n) lens.push_back(n);
  for (size_t n : {31u, 32u, 33u, 63u, 64u, 65u, 127u, 128u, 129u, 255u,
                   511u, 512u, 513u}) {
    lens.push_back(n);
  }
  return lens;
}

/// A buffer of Gaussian doubles with `off` leading padding elements so the
/// payload pointer is deliberately misaligned relative to the allocation.
std::vector<double> RandomBuf(Rng& rng, size_t n, size_t off) {
  std::vector<double> buf(n + off);
  for (double& x : buf) x = rng.NextGaussian(0.0, 1.0);
  return buf;
}

TEST(KernelsDispatchTest, ActivePathIsCoherent) {
  const KernelOps& ops = Kernels();
  EXPECT_EQ(ops.path, ActiveSimdPath());
  EXPECT_STREQ(ops.name, ActiveSimdPathName());
  EXPECT_STREQ(SimdPathName(ops.path), ops.name);
  if (ops.path == SimdPath::kAvx2) {
    EXPECT_TRUE(HasAvx2());
  }
}

TEST(KernelsDispatchTest, ScalarOpsAlwaysAvailable) {
  const KernelOps& ops = internal::ScalarOps();
  EXPECT_EQ(ops.path, SimdPath::kScalar);
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(ops.dot(a, b, 3), 32.0);
}

TEST(KernelsDispatchTest, ParseSimdOverride) {
  SimdPath p;
  EXPECT_FALSE(internal::ParseSimdOverride(nullptr, &p));
  EXPECT_FALSE(internal::ParseSimdOverride("", &p));
  EXPECT_FALSE(internal::ParseSimdOverride("auto", &p));
  EXPECT_TRUE(internal::ParseSimdOverride("scalar", &p));
  EXPECT_EQ(p, SimdPath::kScalar);
  EXPECT_TRUE(internal::ParseSimdOverride("avx2", &p));
  EXPECT_EQ(p, SimdPath::kAvx2);
}

TEST(KernelsDispatchDeathTest, UnknownOverrideAborts) {
  SimdPath p;
  EXPECT_DEATH_IF_SUPPORTED(internal::ParseSimdOverride("sse9", &p),
                            "unknown STEDB_SIMD");
}

// ---- Scalar vs AVX2 bit-equality fuzz ---------------------------------
// The heart of the determinism contract: every kernel, every tail shape,
// every pointer misalignment, compared bit-for-bit between the two
// instantiations of the shared reduction template.

TEST(KernelsBitEqualityTest, ReductionsMatchScalarBitForBit) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 path not available on this machine";
  const KernelOps& sc = internal::OpsFor(SimdPath::kScalar);
  const KernelOps& vx = internal::OpsFor(SimdPath::kAvx2);
  Rng rng(1234);
  for (size_t n : FuzzLengths()) {
    for (size_t off = 0; off < 4; ++off) {
      std::vector<double> ab = RandomBuf(rng, n, off);
      std::vector<double> bb = RandomBuf(rng, n, off);
      const double* a = ab.data() + off;
      const double* b = bb.data() + off;
      EXPECT_TRUE(BitEq(sc.dot(a, b, n), vx.dot(a, b, n)))
          << "dot n=" << n << " off=" << off;
      EXPECT_TRUE(BitEq(sc.norm2sq(a, n), vx.norm2sq(a, n)))
          << "norm2sq n=" << n << " off=" << off;
      EXPECT_TRUE(BitEq(sc.dist2(a, b, n), vx.dist2(a, b, n)))
          << "dist2 n=" << n << " off=" << off;
    }
  }
}

TEST(KernelsBitEqualityTest, ElementwiseUpdatesMatchScalarBitForBit) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 path not available on this machine";
  const KernelOps& sc = internal::OpsFor(SimdPath::kScalar);
  const KernelOps& vx = internal::OpsFor(SimdPath::kAvx2);
  Rng rng(987);
  for (size_t n : FuzzLengths()) {
    for (size_t off = 0; off < 4; ++off) {
      const std::vector<double> src = RandomBuf(rng, n, off);
      const std::vector<double> src2 = RandomBuf(rng, n, off);
      const double s1 = rng.NextGaussian(0.0, 1.0);
      const double s2 = rng.NextGaussian(0.0, 1.0);

      std::vector<double> out_sc = RandomBuf(rng, n, off);
      std::vector<double> out_vx = out_sc;
      sc.axpy(s1, src.data() + off, out_sc.data() + off, n);
      vx.axpy(s1, src.data() + off, out_vx.data() + off, n);
      EXPECT_TRUE(BitEq(out_sc, out_vx)) << "axpy n=" << n << " off=" << off;

      sc.scale(out_sc.data() + off, s1, src.data() + off, n);
      vx.scale(out_vx.data() + off, s1, src.data() + off, n);
      EXPECT_TRUE(BitEq(out_sc, out_vx)) << "scale n=" << n << " off=" << off;

      sc.scale_add(out_sc.data() + off, s1, src.data() + off, s2,
                   src2.data() + off, n);
      vx.scale_add(out_vx.data() + off, s1, src.data() + off, s2,
                   src2.data() + off, n);
      EXPECT_TRUE(BitEq(out_sc, out_vx))
          << "scale_add n=" << n << " off=" << off;

      sc.copy_row(out_sc.data() + off, src.data() + off, n);
      vx.copy_row(out_vx.data() + off, src.data() + off, n);
      EXPECT_TRUE(BitEq(out_sc, out_vx))
          << "copy_row n=" << n << " off=" << off;
    }
  }
}

TEST(KernelsBitEqualityTest, MatrixKernelsMatchScalarBitForBit) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 path not available on this machine";
  const KernelOps& sc = internal::OpsFor(SimdPath::kScalar);
  const KernelOps& vx = internal::OpsFor(SimdPath::kAvx2);
  Rng rng(555);
  const size_t shapes[][2] = {{1, 1},  {1, 5},  {3, 5},   {5, 3},
                              {8, 8},  {7, 13}, {16, 16}, {4, 64},
                              {33, 17}};
  for (const auto& shape : shapes) {
    const size_t rows = shape[0], cols = shape[1];
    std::vector<double> m = RandomBuf(rng, rows * cols, 0);
    std::vector<double> y = RandomBuf(rng, cols, 0);

    std::vector<double> out_sc(rows), out_vx(rows);
    sc.matvec(m.data(), rows, cols, y.data(), out_sc.data());
    vx.matvec(m.data(), rows, cols, y.data(), out_vx.data());
    EXPECT_TRUE(BitEq(out_sc, out_vx))
        << "matvec " << rows << "x" << cols;
  }
}

TEST(KernelsBitEqualityTest, KahanStressSumsStayIdentical) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 path not available on this machine";
  // Wildly mixed magnitudes, where any reordering of the reduction tree
  // would change the rounded result — the sharpest available probe that
  // the two paths really run the same summation order.
  const KernelOps& sc = internal::OpsFor(SimdPath::kScalar);
  const KernelOps& vx = internal::OpsFor(SimdPath::kAvx2);
  Rng rng(42);
  for (size_t n : {64u, 255u, 513u}) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      const int exp10 = static_cast<int>(rng.NextUint(30)) - 15;
      a[i] = rng.NextGaussian(0.0, 1.0) * std::pow(10.0, exp10);
      b[i] = rng.NextGaussian(0.0, 1.0) * std::pow(10.0, -exp10);
    }
    EXPECT_TRUE(BitEq(sc.dot(a.data(), b.data(), n),
                      vx.dot(a.data(), b.data(), n)))
        << "stress dot n=" << n;
  }
}

/// ReferenceAdamStep with both moment updates contracted into fused
/// multiply-adds — what the AVX2 TU computes if it is compiled without
/// -ffp-contract=off. Used to prove the fuzz inputs can tell the two apart.
void ContractedAdam(const AdamCoeffs& c, double* p, double* m, double* v,
                    const double* g, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    m[i] = std::fma(c.beta1, m[i], (1.0 - c.beta1) * g[i]);
    v[i] = std::fma(c.beta2, v[i], ((1.0 - c.beta2) * g[i]) * g[i]);
    const double mhat = m[i] / c.bc1;
    const double vhat = v[i] / c.bc2;
    p[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

/// Adam state buffers of one fuzz case, each with its own misalignment.
struct AdamBufs {
  std::vector<double> p, m, v, g;
  size_t off[4] = {};
  double* P() { return p.data() + off[0]; }
  double* M() { return m.data() + off[1]; }
  double* V() { return v.data() + off[2]; }
  const double* G() const { return g.data() + off[3]; }
};

/// Gaussian values spread over 10^-8..10^8 (v kept non-negative, as
/// Adam's second moment always is): products and quotients round
/// differently across the whole range, so a fused multiply-add shows.
AdamBufs RandomAdamBufs(Rng& rng, size_t n, size_t off) {
  auto mixed = [&rng] {
    const int exp10 = static_cast<int>(rng.NextUint(17)) - 8;
    return rng.NextGaussian(0.0, 1.0) * std::pow(10.0, exp10);
  };
  AdamBufs b;
  for (size_t k = 0; k < 4; ++k) b.off[k] = (off + k) % 4;
  b.p.resize(n + b.off[0]);
  b.m.resize(n + b.off[1]);
  b.v.resize(n + b.off[2]);
  b.g.resize(n + b.off[3]);
  for (double& x : b.p) x = mixed();
  for (double& x : b.m) x = mixed();
  for (double& x : b.v) x = std::fabs(mixed());
  for (double& x : b.g) x = mixed();
  return b;
}

/// Every kernel table this machine can run: scalar, plus AVX2 if present.
std::vector<const KernelOps*> RunnableTables() {
  std::vector<const KernelOps*> tables = {&internal::ScalarOps()};
  if (HasAvx2()) tables.push_back(&internal::OpsFor(SimdPath::kAvx2));
  return tables;
}

/// Lengths 0-33 (every tail shape around the 4-lane groups) and 1024;
/// every start misalignment; bc1/bc2 each exactly 1.0 or not, so all four
/// kernel variants run; three consecutive steps per case so the moments
/// evolve. Scalar and AVX2 must agree with each other and with the
/// reference loop bit for bit.
TEST(KernelsBitEqualityTest, AdamMatchesReferenceOnBothPaths) {
  std::vector<size_t> lens;
  for (size_t n = 0; n <= 33; ++n) lens.push_back(n);
  lens.push_back(1024);
  const std::vector<const KernelOps*> tables = RunnableTables();
  const double bc1s[] = {1.0 - std::pow(0.9, 7.0), 1.0};
  const double bc2s[] = {1.0 - std::pow(0.999, 7.0), 1.0};
  Rng rng(2024);
  size_t contracted_diffs = 0;
  for (size_t n : lens) {
    for (size_t off = 0; off < 4; ++off) {
      for (double bc1 : bc1s) {
        for (double bc2 : bc2s) {
          const AdamCoeffs c = {rng.NextDouble(1e-4, 0.1), 0.9, 0.999, 1e-8,
                                bc1, bc2};
          const AdamBufs init = RandomAdamBufs(rng, n, off);
          AdamBufs ref = init;
          AdamBufs fused = init;
          std::vector<AdamBufs> got(tables.size(), init);
          for (int step = 0; step < 3; ++step) {
            ReferenceAdamStep(c, ref.P(), ref.M(), ref.V(), ref.G(), n);
            ContractedAdam(c, fused.P(), fused.M(), fused.V(), fused.G(), n);
            for (size_t k = 0; k < tables.size(); ++k) {
              tables[k]->adam(c, got[k].P(), got[k].M(), got[k].V(),
                              got[k].G(), n);
            }
          }
          for (size_t k = 0; k < tables.size(); ++k) {
            const char* name = tables[k]->name;
            EXPECT_TRUE(BitEq(got[k].p, ref.p))
                << name << " params n=" << n << " off=" << off
                << " bc1=" << bc1 << " bc2=" << bc2;
            EXPECT_TRUE(BitEq(got[k].m, ref.m))
                << name << " m n=" << n << " off=" << off;
            EXPECT_TRUE(BitEq(got[k].v, ref.v))
                << name << " v n=" << n << " off=" << off;
          }
          for (size_t i = 0; i < ref.p.size(); ++i) {
            contracted_diffs += Bits(ref.p[i]) != Bits(fused.p[i]);
          }
        }
      }
    }
  }
  // The inputs are sharp enough that contraction would have been caught.
  EXPECT_GT(contracted_diffs, 100u);
}

TEST(KernelsBitEqualityTest, AdamDividesByCorrectionsBelowOne) {
  // Only a correction of exactly 1.0 may skip its division: one ulp below
  // 1.0 changes these inputs' result, and both paths must still divide.
  const double below_one = std::nextafter(1.0, 0.0);
  const double g = 0.5;
  auto step = [&](const KernelOps* ops, double bc1, double bc2) {
    const AdamCoeffs c = {0.1, 0.9, 0.999, 1e-8, bc1, bc2};
    double p = 0.0, m = 3.0, v = 2.0;
    if (ops == nullptr) {
      ReferenceAdamStep(c, &p, &m, &v, &g, 1);
    } else {
      ops->adam(c, &p, &m, &v, &g, 1);
    }
    return p;
  };
  const double unit = step(nullptr, 1.0, 1.0);
  const double corrections[][2] = {{below_one, 1.0}, {1.0, below_one}};
  for (const auto& bc : corrections) {
    const double want = step(nullptr, bc[0], bc[1]);
    ASSERT_FALSE(BitEq(want, unit)) << "inputs too blunt for bc1=" << bc[0];
    for (const KernelOps* ops : RunnableTables()) {
      EXPECT_TRUE(BitEq(step(ops, bc[0], bc[1]), want))
          << ops->name << " bc1=" << bc[0] << " bc2=" << bc[1];
    }
  }
}

// ---- Reductions against the documented order -------------------------
// A plain loop spelling out the reduction contract of kernels_impl.h:
// element i, zero-padded up to the next multiple of 4, goes by one fma
// into lane i % 4 of accumulator (i / 4) % 4, and the 16 lanes combine in
// the fixed tree. Both paths must reproduce it bit for bit, however the
// kernels schedule their accumulators.

/// `term(i, acc)` folds element i (or a padding element, i >= n) into one
/// accumulator lane.
template <typename Term>
double ReferenceReduce(size_t n, const Term& term) {
  double acc[4][4] = {};
  const size_t padded = (n + 3) / 4 * 4;
  for (size_t i = 0; i < padded; ++i) {
    double& lane = acc[(i / 4) % 4][i % 4];
    lane = term(i, lane);
  }
  double v[4];
  for (size_t l = 0; l < 4; ++l) {
    v[l] = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
  }
  return (v[0] + v[2]) + (v[1] + v[3]);
}

double ReferenceDot(const double* a, const double* b, size_t n) {
  return ReferenceReduce(n, [&](size_t i, double acc) {
    return i < n ? std::fma(a[i], b[i], acc) : std::fma(0.0, 0.0, acc);
  });
}

double ReferenceDistSq(const double* a, const double* b, size_t n) {
  return ReferenceReduce(n, [&](size_t i, double acc) {
    const double d = i < n ? a[i] - b[i] : 0.0 - 0.0;
    return std::fma(d, d, acc);
  });
}

/// Gaussian values over 10^-150..10^150 with exact zeros of both signs:
/// any reordering of a sum shows, and tiny products of opposite signs
/// round to -0.0, so the padding lanes' fma(0, 0, -0.0) == +0.0 matters.
std::vector<double> SharpBuf(Rng& rng, size_t n, size_t off) {
  std::vector<double> buf(n + off);
  for (double& x : buf) {
    switch (rng.NextUint(8)) {
      case 0:
        x = 0.0;
        break;
      case 1:
        x = -0.0;
        break;
      case 2:
        x = (rng.NextUint(2) == 0 ? 1e-160 : -1e-160);
        break;
      default: {
        const int exp10 = static_cast<int>(rng.NextUint(31)) - 15;
        x = rng.NextGaussian(0.0, 1.0) * std::pow(10.0, exp10);
      }
    }
  }
  return buf;
}

TEST(KernelsReferenceTest, ReductionsFollowTheDocumentedOrder) {
  Rng rng(4096);
  size_t sequential_diffs = 0;
  for (size_t n = 0; n <= 70; ++n) {
    for (size_t off = 0; off < 4; ++off) {
      const std::vector<double> ab = SharpBuf(rng, n, off);
      const std::vector<double> bb = SharpBuf(rng, n, (off + 1) % 4);
      const double* a = ab.data() + off;
      const double* b = bb.data() + (off + 1) % 4;
      const double dot = ReferenceDot(a, b, n);
      const double norm = ReferenceDot(a, a, n);
      const double dist = ReferenceDistSq(a, b, n);
      double sequential = 0.0;
      for (size_t i = 0; i < n; ++i) {
        sequential = std::fma(a[i], b[i], sequential);
      }
      sequential_diffs += Bits(sequential) != Bits(dot);
      for (const KernelOps* ops : RunnableTables()) {
        EXPECT_TRUE(BitEq(ops->dot(a, b, n), dot))
            << ops->name << " dot n=" << n << " off=" << off;
        EXPECT_TRUE(BitEq(ops->norm2sq(a, n), norm))
            << ops->name << " norm2sq n=" << n << " off=" << off;
        EXPECT_TRUE(BitEq(ops->dist2(a, b, n), dist))
            << ops->name << " dist2 n=" << n << " off=" << off;
      }
    }
  }
  // The inputs are sharp enough that another summation order shows.
  EXPECT_GT(sequential_diffs, 50u);
}

TEST(KernelsReferenceTest, MatrixKernelsFollowTheDocumentedOrder) {
  Rng rng(8192);
  for (size_t rows = 1; rows <= 9; ++rows) {
    for (size_t cols = 0; cols <= 70; ++cols) {
      const size_t off = (rows + cols) % 4;
      const std::vector<double> mb = SharpBuf(rng, rows * cols, off);
      const std::vector<double> yb = SharpBuf(rng, cols, (off + 3) % 4);
      const double* m = mb.data() + off;
      const double* y = yb.data() + (off + 3) % 4;

      std::vector<double> want(rows);
      for (size_t r = 0; r < rows; ++r) {
        want[r] = ReferenceDot(m + r * cols, y, cols);
      }
      for (const KernelOps* ops : RunnableTables()) {
        std::vector<double> got(rows);
        ops->matvec(m, rows, cols, y, got.data());
        EXPECT_TRUE(BitEq(got, want))
            << ops->name << " matvec " << rows << "x" << cols;
      }
    }
  }
}

/// N += c c^T exactly as the FoRWaRD extender's solve wrote it before it
/// became la::AddOuter: rows with a zero coefficient skipped, the product
/// and the sum rounded separately.
void ReferenceAddOuter(double* m, size_t rows, size_t cols, const double* x,
                       const double* y) {
  for (size_t r = 0; r < rows; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    double* row = m + r * cols;
    for (size_t k = 0; k < cols; ++k) row[k] += xr * y[k];
  }
}

/// Every shape from 1x0 to 9x70, misaligned, with signed zeros in m and
/// zeros in x, for y != x and for the extender's y == x. Both paths must
/// match the old loop bit for bit; a fused multiply-add must not.
TEST(KernelsReferenceTest, AddOuterMatchesTheUnfusedLoop) {
  Rng rng(16384);
  size_t fused_diffs = 0;
  for (size_t rows = 1; rows <= 9; ++rows) {
    for (size_t cols = 0; cols <= 70; ++cols) {
      for (const bool square_of_x : {false, true}) {
        if (square_of_x && rows != cols) continue;
        const size_t off = (rows * 7 + cols) % 4;
        const std::vector<double> init = SharpBuf(rng, rows * cols, off);
        std::vector<double> x = SharpBuf(rng, rows, 0);
        x[rows / 2] = 0.0;
        const std::vector<double> yb = SharpBuf(rng, cols, (off + 2) % 4);
        const double* y = square_of_x ? x.data() : yb.data() + (off + 2) % 4;

        std::vector<double> want = init;
        ReferenceAddOuter(want.data() + off, rows, cols, x.data(), y);
        std::vector<double> fused = init;
        for (size_t r = 0; r < rows; ++r) {
          if (x[r] == 0.0) continue;
          for (size_t k = 0; k < cols; ++k) {
            double& e = fused[off + r * cols + k];
            e = std::fma(x[r], y[k], e);
          }
        }
        for (size_t i = 0; i < want.size(); ++i) {
          fused_diffs += Bits(want[i]) != Bits(fused[i]);
        }
        for (const KernelOps* ops : RunnableTables()) {
          std::vector<double> got = init;
          ops->add_outer(got.data() + off, rows, cols, x.data(), y);
          EXPECT_TRUE(BitEq(got, want))
              << ops->name << " add_outer " << rows << "x" << cols
              << (square_of_x ? " (y == x)" : "");
        }
      }
    }
  }
  EXPECT_GT(fused_diffs, 100u);
}

TEST(KernelsReferenceTest, AddOuterSkipsZeroCoefficientRows) {
  // Adding the +0.0 product to a -0.0 entry would flip its sign bit.
  const double x[] = {0.0, 2.0};
  const double y[] = {1.0, 3.0, 5.0};
  for (const KernelOps* ops : RunnableTables()) {
    std::vector<double> m(6, -0.0);
    ops->add_outer(m.data(), 2, 3, x, y);
    EXPECT_TRUE(BitEq(m, {-0.0, -0.0, -0.0, 2.0, 6.0, 10.0})) << ops->name;
  }
}

// ---- Jacobi sweep against the cyclic-by-rows loop ---------------------
// The sweep kernel runs its pairs in wavefront order, four to a vector;
// one pass of the plain p-then-q loop on the same working copies is the
// byte-level reference for W, V and off.

/// Element-major working copies as la::JacobiSweep takes them: element
/// (i, j) of W at w[kJacobiPad + i * ld + j] (of V likewise), with NaN
/// padding around every row, which no result may depend on and no store
/// may touch.
struct SweepCopies {
  size_t m, n, ld;
  std::vector<double> w, v;

  SweepCopies(size_t rows, size_t cols)
      : m(rows),
        n(cols),
        ld(cols + 2 * kJacobiPad),
        w(rows * ld, std::nan("")),
        v(cols * ld, std::nan("")) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) V()[i * ld + j] = i == j ? 1.0 : 0.0;
    }
  }
  double* W() { return w.data() + kJacobiPad; }
  double* V() { return v.data() + kJacobiPad; }
  double Sweep(const KernelOps& ops, double tol) {
    return ops.jacobi_sweep(W(), V(), m, n, ld, tol);
  }
};

/// What the reference sweep did with its pairs.
struct SweepCounts {
  size_t rotated = 0;
  size_t below_tol = 0;
  size_t nan_ratio = 0;
  size_t nan_gamma = 0;

  void Add(const SweepCounts& o) {
    rotated += o.rotated;
    below_tol += o.below_tol;
    nan_ratio += o.nan_ratio;
    nan_gamma += o.nan_gamma;
  }
};

/// One sweep of the loop JacobiSweep replaced, over the same copies.
double ReferenceSweep(SweepCopies& c, double tol, SweepCounts* counts) {
  double* w = c.W();
  double* v = c.V();
  double off = 0.0;
  for (size_t p = 0; p + 1 < c.n; ++p) {
    for (size_t q = p + 1; q < c.n; ++q) {
      double alpha = 0.0, beta = 0.0, gamma = 0.0;
      for (size_t i = 0; i < c.m; ++i) {
        const double wp = w[i * c.ld + p];
        const double wq = w[i * c.ld + q];
        alpha += wp * wp;
        beta += wq * wq;
        gamma += wp * wq;
      }
      if (alpha == 0.0 || beta == 0.0) continue;
      const double ratio = std::fabs(gamma) / std::sqrt(alpha * beta);
      counts->nan_ratio += std::isnan(ratio);
      counts->nan_gamma += std::isnan(gamma);
      off = std::max(off, ratio);
      if (std::fabs(gamma) <= tol * std::sqrt(alpha * beta)) {
        ++counts->below_tol;
        continue;
      }
      ++counts->rotated;
      const double zeta = (beta - alpha) / (2.0 * gamma);
      const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                       (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
      const double cs = 1.0 / std::sqrt(1.0 + t * t);
      const double sn = cs * t;
      auto rotate = [&](double* x, size_t rows) {
        for (size_t i = 0; i < rows; ++i) {
          const double xp = x[i * c.ld + p];
          const double xq = x[i * c.ld + q];
          x[i * c.ld + p] = cs * xp - sn * xq;
          x[i * c.ld + q] = sn * xp + cs * xq;
        }
      };
      rotate(w, c.m);
      rotate(v, c.n);
    }
  }
  return off;
}

/// The inputs of one sweep case.
enum class SweepInput { kRandom, kZeroColumns, kLooseTol, kInf, kInfTimesZero };

SweepCopies SweepCase(Rng& rng, size_t m, size_t n, SweepInput kind) {
  SweepCopies c(m, n);
  auto at = [&](size_t i, size_t j) -> double& {
    return c.W()[i * c.ld + j];
  };
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) at(i, j) = rng.NextGaussian(0.0, 1.0);
  }
  if (kind == SweepInput::kZeroColumns) {
    // Every third column, so zero lanes sit beside live ones in a group.
    for (size_t j = rng.NextUint(3); j < n; j += 3) {
      for (size_t i = 0; i < m; ++i) at(i, j) = 0.0;
    }
  } else if (kind == SweepInput::kInf || kind == SweepInput::kInfTimesZero) {
    // An inf column pairs with a ratio of inf / inf, a NaN that off must
    // not take, and stays put (inf <= tol * inf). A -0.0 in its row makes
    // gamma NaN instead: the NaN comparison rotates, and zeta is NaN.
    const size_t i = rng.NextUint(m);
    at(i, rng.NextUint(n)) = std::numeric_limits<double>::infinity();
    if (kind == SweepInput::kInfTimesZero) {
      at(i, rng.NextUint(n)) = -0.0;
      at(i, rng.NextUint(n)) = -0.0;
    }
  }
  return c;
}

/// memcmp equality of two buffers.
bool SameMemory(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Bitwise equality, except that any NaN matches any NaN.
::testing::AssertionResult BitEqUpToNaN(const std::vector<double>& a,
                                        const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (Bits(a[i]) != Bits(b[i]) && !(std::isnan(a[i]) && std::isnan(b[i]))) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << BitEq(a[i], b[i]).message();
    }
  }
  return ::testing::AssertionSuccess();
}

/// n and m from 1 to 40: steps from one pair up to 20, full and partial
/// groups, and partial groups whose p and q loads overlap. Both paths
/// must match the loop's W, V and off bit for bit, the NaN padding
/// included. One exception: a NaN zeta makes |zeta| + sqrt(1 + zeta^2)
/// add a NaN to a NaN of the other sign, and x86 keeps whichever operand
/// the compiler put first, so after an inf * -0.0 a NaN matches any NaN.
TEST(KernelsReferenceTest, JacobiSweepMatchesTheCyclicLoop) {
  Rng rng(65536);
  SweepCounts total[5];
  for (const SweepInput kind :
       {SweepInput::kRandom, SweepInput::kZeroColumns, SweepInput::kLooseTol,
        SweepInput::kInf, SweepInput::kInfTimesZero}) {
    // 0.3 sits inside the spread of |cos| between random columns, so a
    // group holds lanes that rotate beside lanes that skip.
    const double tol = kind == SweepInput::kLooseTol ? 0.3 : 1e-12;
    const bool any_nan = kind == SweepInput::kInfTimesZero;
    for (size_t n = 1; n <= 40; ++n) {
      for (size_t m = 1; m <= 40; ++m) {
        const SweepCopies init = SweepCase(rng, m, n, kind);
        SweepCopies want = init;
        SweepCounts counts;
        const double want_off = ReferenceSweep(want, tol, &counts);
        total[static_cast<int>(kind)].Add(counts);
        std::vector<SweepCopies> got;
        std::vector<double> got_off;
        for (const KernelOps* ops : RunnableTables()) {
          got.push_back(init);
          got_off.push_back(got.back().Sweep(*ops, tol));
          const std::string where = std::string(ops->name) + " kind " +
                                    std::to_string(static_cast<int>(kind)) +
                                    " " + std::to_string(m) + "x" +
                                    std::to_string(n);
          EXPECT_TRUE(BitEq(got_off.back(), want_off)) << where << " off";
          if (any_nan) {
            EXPECT_TRUE(BitEqUpToNaN(got.back().w, want.w)) << where << " W";
            EXPECT_TRUE(BitEqUpToNaN(got.back().v, want.v)) << where << " V";
          } else {
            EXPECT_TRUE(BitEq(got.back().w, want.w)) << where << " W";
            EXPECT_TRUE(BitEq(got.back().v, want.v)) << where << " V";
          }
        }
        // Scalar against AVX2 directly, byte for byte.
        for (size_t k = 1; k < got.size() && !any_nan; ++k) {
          EXPECT_TRUE(SameMemory(got[k].w, got[0].w));
          EXPECT_TRUE(SameMemory(got[k].v, got[0].v));
          EXPECT_EQ(std::memcmp(&got_off[k], &got_off[0], sizeof(double)), 0);
        }
      }
    }
  }
  // Each input kind reaches the case it is there for.
  const SweepCounts& loose = total[static_cast<int>(SweepInput::kLooseTol)];
  EXPECT_GT(loose.rotated, 1000u);
  EXPECT_GT(loose.below_tol, 1000u);
  EXPECT_GT(total[static_cast<int>(SweepInput::kInf)].nan_ratio, 1000u);
  EXPECT_GT(total[static_cast<int>(SweepInput::kInfTimesZero)].nan_gamma, 100u);
}

// ---- End-to-end training bit-equality ---------------------------------
// Train entire models with the dispatch forced to each path and require
// byte-identical parameters: the property that keeps persisted models,
// journal bytes and served vectors stable across heterogeneous machines.

fwd::ForwardConfig TinyForwardConfig() {
  fwd::ForwardConfig cfg;
  cfg.dim = 8;
  cfg.max_walk_len = 2;
  cfg.nsamples = 8;
  cfg.epochs = 3;
  cfg.lr = 0.01;
  cfg.seed = 77;
  return cfg;
}

TEST(KernelsEndToEndTest, ForwardTrainingBitIdenticalAcrossPaths) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 path not available on this machine";
  SimdPathGuard guard;
  db::Database database = stedb::testing::MovieDatabase();
  auto kernels = fwd::KernelRegistry::Defaults(database);

  auto train = [&](SimdPath path) {
    internal::ForceSimdPathForTest(path);
    fwd::ForwardTrainer trainer(&database, &kernels, TinyForwardConfig());
    auto model = trainer.Train(database.schema().RelationIndex("ACTORS"), {});
    EXPECT_TRUE(model.ok()) << model.status();
    return std::move(model).value();
  };
  fwd::ForwardModel scalar_model = train(SimdPath::kScalar);
  fwd::ForwardModel avx2_model = train(SimdPath::kAvx2);

  for (const auto& [f, v] : scalar_model.all_phi()) {
    EXPECT_TRUE(BitEq(v, avx2_model.phi(f))) << "phi of fact " << f;
  }
  for (size_t t = 0; t < scalar_model.targets().size(); ++t) {
    EXPECT_TRUE(BitEq(scalar_model.psi(t).data(), avx2_model.psi(t).data()))
        << "psi " << t;
  }
}

TEST(KernelsEndToEndTest, SkipGramTrainingBitIdenticalAcrossPaths) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 path not available on this machine";
  SimdPathGuard guard;

  auto train = [&](SimdPath path) {
    internal::ForceSimdPathForTest(path);
    Rng rng(9);
    n2v::SkipGramConfig cfg;
    cfg.dim = 12;
    cfg.window = 3;
    cfg.negatives = 4;
    n2v::SkipGramModel model(6, cfg, rng);
    std::vector<std::vector<graph::NodeId>> walks;
    for (int r = 0; r < 10; ++r) {
      walks.push_back({0, 1, 2, 0, 1, 2});
      walks.push_back({3, 4, 5, 3, 4, 5});
    }
    n2v::NodeVocab vocab(6);
    vocab.CountWalks(walks);
    vocab.BuildNoiseTable();
    model.Train(walks, vocab, 3, rng);
    return model;
  };
  n2v::SkipGramModel scalar_model = train(SimdPath::kScalar);
  n2v::SkipGramModel avx2_model = train(SimdPath::kAvx2);

  ASSERT_EQ(scalar_model.num_nodes(), avx2_model.num_nodes());
  EXPECT_TRUE(BitEq(scalar_model.embedding_matrix().data(),
                    avx2_model.embedding_matrix().data()));
}

}  // namespace
}  // namespace stedb::la

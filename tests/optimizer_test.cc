#include "src/la/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/la/kernels.h"
#include "src/la/matrix.h"
#include "tests/test_util.h"

namespace stedb::la {
namespace {

/// Minimize f(w) = 0.5 ||w - target||^2 with gradient w - target.
template <typename Opt>
double RunQuadratic(Opt& opt, int steps, size_t block = 0) {
  Vector w = {5.0, -3.0, 2.0};
  const Vector target = {1.0, 1.0, 1.0};
  Vector grad(3);
  for (int i = 0; i < steps; ++i) {
    for (size_t j = 0; j < 3; ++j) grad[j] = w[j] - target[j];
    opt.Step(block, w.data(), grad.data(), 3);
  }
  return Distance(w, target);
}

TEST(SgdTest, ConvergesOnQuadratic) {
  SgdOptimizer opt(0.1);
  EXPECT_LT(RunQuadratic(opt, 200), 1e-6);
}

TEST(SgdTest, LearningRateScale) {
  SgdOptimizer opt(0.1);
  opt.SetLearningRateScale(0.0);  // zero lr: nothing moves
  Vector w = {1.0};
  Vector g = {1.0};
  opt.Step(0, w.data(), g.data(), 1);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  AdamOptimizer opt(0.1);
  EXPECT_LT(RunQuadratic(opt, 400), 1e-4);
}

TEST(AdamTest, BlocksHaveIndependentState) {
  AdamOptimizer opt(0.1);
  // Drive block 0 hard, then a first step on block 5 must look like a
  // fresh Adam step (bias-corrected => step size ~ lr).
  Vector w0 = {0.0};
  Vector g = {1.0};
  for (int i = 0; i < 50; ++i) opt.Step(0, w0.data(), g.data(), 1);
  Vector w5 = {0.0};
  opt.Step(5, w5.data(), g.data(), 1);
  EXPECT_NEAR(w5[0], -0.1, 1e-6);  // first Adam step == -lr * sign(g)
}

TEST(AdamTest, FirstStepIsSignedLr) {
  AdamOptimizer opt(0.05);
  Vector w = {1.0, 1.0};
  Vector g = {3.0, -0.001};
  opt.Step(0, w.data(), g.data(), 2);
  EXPECT_NEAR(w[0], 1.0 - 0.05, 1e-6);
  EXPECT_NEAR(w[1], 1.0 + 0.05, 1e-4);
}

TEST(AdamTest, StateResizesWithBlockLength) {
  AdamOptimizer opt(0.1);
  Vector w2 = {0.0, 0.0};
  Vector g2 = {1.0, 1.0};
  opt.Step(0, w2.data(), g2.data(), 2);
  // Same block, different length: state must reset, not crash.
  Vector w3 = {0.0, 0.0, 0.0};
  Vector g3 = {1.0, 1.0, 1.0};
  opt.Step(0, w3.data(), g3.data(), 3);
  EXPECT_NEAR(w3[0], -0.1, 1e-6);
}

/// AdamOptimizer's per-block state and bias corrections around
/// ReferenceAdamStep, as AdamOptimizer::Step computed them before the
/// update moved into the kernel table.
struct ReferenceAdam {
  explicit ReferenceAdam(double base_lr) : lr(base_lr) {}

  double lr;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double scale = 1.0;
  std::vector<double> m;
  std::vector<double> v;
  long t = 0;

  void Step(double* params, const double* grad, size_t n) {
    if (m.size() != n) {
      m.assign(n, 0.0);
      v.assign(n, 0.0);
      t = 0;
    }
    ++t;
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    stedb::testing::ReferenceAdamStep({lr * scale, beta1, beta2, eps, bc1, bc2},
                                      params, m.data(), v.data(), grad, n);
  }
};

std::vector<SimdPath> RunnablePaths() {
  std::vector<SimdPath> paths = {SimdPath::kScalar};
  if (stedb::testing::HasAvx2()) paths.push_back(SimdPath::kAvx2);
  return paths;
}

/// Steps of the long-run pin below.
constexpr int kLongRunSteps = 40000;

TEST(AdamTest, LongRunCrossesBothBiasCorrectionThresholds) {
  // The kernel skips a bias-correction division once 1 - beta^t rounds to
  // exactly 1.0; the pin below must run through both switch points.
  EXPECT_LT(1.0 - std::pow(0.9, 300.0), 1.0);
  EXPECT_EQ(1.0 - std::pow(0.9, 400.0), 1.0);
  EXPECT_LT(1.0 - std::pow(0.999, 37000.0), 1.0);
  EXPECT_EQ(1.0 - std::pow(0.999, static_cast<double>(kLongRunSteps)), 1.0);
}

/// 40k steps of a seeded gradient stream through AdamOptimizer and through
/// the reference loop, parameters compared byte for byte after every step,
/// on every SIMD path this machine runs. Lengths 1, 5 and 32 cover a lone
/// partial group, a full group plus a tail, and whole groups only.
TEST(AdamTest, MatchesReferenceLoopByteForByte) {
  stedb::testing::SimdPathGuard guard;
  for (SimdPath path : RunnablePaths()) {
    internal::ForceSimdPathForTest(path);
    for (size_t n : {1u, 5u, 32u}) {
      Rng rng(1000 + n);
      AdamOptimizer opt(0.02);
      ReferenceAdam ref(0.02);
      std::vector<double> w(n);
      for (double& x : w) x = rng.NextGaussian(0.0, 0.1);
      std::vector<double> w_ref = w;
      std::vector<double> g(n);
      for (int step = 0; step < kLongRunSteps; ++step) {
        if (step % 5000 == 0) {
          // The trainer's per-epoch decay schedule.
          const double scale = 1.0 / (1.0 + 0.25 * (step / 5000));
          opt.SetLearningRateScale(scale);
          ref.scale = scale;
        }
        for (double& x : g) {
          // Mixed magnitudes with occasional exact zeros: the products
          // and quotients round differently across the whole range.
          const int exp10 = static_cast<int>(rng.NextUint(10)) - 6;
          x = rng.NextUint(16) == 0
                  ? 0.0
                  : rng.NextGaussian(0.0, 1.0) * std::pow(10.0, exp10);
        }
        opt.Step(3, w.data(), g.data(), n);
        ref.Step(w_ref.data(), g.data(), n);
        ASSERT_EQ(std::memcmp(w.data(), w_ref.data(), n * sizeof(double)), 0)
            << SimdPathName(path) << " n=" << n << " diverged at step "
            << step + 1;
      }
    }
  }
}

}  // namespace
}  // namespace stedb::la

#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace stedb {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint(1000), b.NextUint(1000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint(1000000) == b.NextUint(1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextUintInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextDoubleBounds) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    double d = rng.NextDouble(-3.0, 5.0);
    EXPECT_GE(d, -3.0);
    EXPECT_LT(d, 5.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian(2.0, 3.0);
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(RngTest, BoolProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextWeighted(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, WeightedAllZeroReturnsSize) {
  Rng rng(1);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_EQ(rng.NextWeighted(w), w.size());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIndependentButDeterministic) {
  Rng a(23);
  Rng a2(23);
  Rng fa = a.Fork();
  Rng fa2 = a2.Fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fa.NextUint(1 << 30), fa2.NextUint(1 << 30));
  }
}

/// A keyed child stream is Rng(MixSeed(seed, key)), however many values
/// the parent drew: fwd::DistCache forks Rng(s) by key and must see the
/// stream that Rng(Rng::MixSeed(s, key)) gives.
TEST(RngTest, KeyedForkIsTheMixedSeedStream) {
  Rng root(0x0DD1D157ull);
  root.NextUint(1 << 30);
  for (uint64_t key : {0ull, 7ull, 123456789ull}) {
    Rng forked = root.Fork(key);
    Rng mixed(Rng::MixSeed(0x0DD1D157ull, key));
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(forked.NextUint(1 << 30), mixed.NextUint(1 << 30));
    }
  }
}

}  // namespace
}  // namespace stedb

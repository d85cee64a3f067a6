#include <gtest/gtest.h>

#include <cstring>

#include "src/la/matrix.h"
#include "src/ml/dataset.h"
#include "src/ml/logistic.h"
#include "src/ml/metrics.h"
#include "src/ml/scaler.h"
#include "src/ml/svm.h"
#include "src/ml/topk.h"

namespace stedb::ml {
namespace {

/// Three well-separated Gaussian blobs in 2D.
FeatureDataset Blobs(int per_class, double spread, Rng& rng) {
  FeatureDataset data;
  const double centers[3][2] = {{0.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < per_class; ++i) {
      data.Add({rng.NextGaussian(centers[c][0], spread),
                rng.NextGaussian(centers[c][1], spread)},
               c);
    }
  }
  return data;
}

TEST(FeatureDatasetTest, AddTracksClasses) {
  FeatureDataset d;
  d.Add({1.0}, 0);
  d.Add({2.0}, 2);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.dim(), 1u);
  EXPECT_EQ(d.num_classes, 3);
}

TEST(FeatureDatasetTest, SubsetAndCounts) {
  FeatureDataset d;
  for (int i = 0; i < 6; ++i) d.Add({static_cast<double>(i)}, i % 2);
  FeatureDataset s = d.Subset({0, 2, 4});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.y, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(d.ClassCounts(), (std::vector<size_t>{3, 3}));
  EXPECT_DOUBLE_EQ(d.MajorityFraction(), 0.5);
}

TEST(LabelEncoderTest, StableIds) {
  LabelEncoder enc;
  EXPECT_EQ(enc.Encode("b"), 0);
  EXPECT_EQ(enc.Encode("a"), 1);
  EXPECT_EQ(enc.Encode("b"), 0);
  EXPECT_EQ(enc.Lookup("a"), 1);
  EXPECT_EQ(enc.Lookup("zzz"), -1);
  EXPECT_EQ(enc.Decode(0), "b");
  EXPECT_EQ(enc.num_classes(), 2);
}

TEST(ScalerTest, StandardizesFeatures) {
  StandardScaler scaler;
  std::vector<la::Vector> x = {{0.0, 100.0}, {10.0, 100.0}, {20.0, 100.0}};
  scaler.Fit(x);
  auto t = scaler.TransformAll(x);
  // Column 0: mean 10, population std ~8.165.
  EXPECT_NEAR(t[0][0] + t[2][0], 0.0, 1e-9);
  EXPECT_NEAR(t[1][0], 0.0, 1e-9);
  // Constant column: centered, not divided by ~0.
  EXPECT_NEAR(t[0][1], 0.0, 1e-9);
}

TEST(ScalerTest, EmptyFit) {
  StandardScaler scaler;
  scaler.Fit({});
  EXPECT_FALSE(scaler.fitted());
}

TEST(MetricsTest, Accuracy) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 3}, {1, 2, 0}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

TEST(MetricsTest, MeanStd) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 3.0}), 2.0);
  EXPECT_NEAR(StdDev({1.0, 3.0}), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(StdDev({5.0}), 0.0);
}

TEST(MetricsTest, ConfusionMatrix) {
  auto cm = ConfusionMatrix({0, 0, 1, 1}, {0, 1, 1, 1}, 2);
  EXPECT_EQ(cm[0][0], 1u);
  EXPECT_EQ(cm[0][1], 1u);
  EXPECT_EQ(cm[1][1], 2u);
  EXPECT_EQ(cm[1][0], 0u);
}

TEST(MetricsTest, MacroF1PerfectAndWorst) {
  EXPECT_DOUBLE_EQ(MacroF1({0, 1, 2}, {0, 1, 2}, 3), 1.0);
  EXPECT_DOUBLE_EQ(MacroF1({0, 0}, {1, 1}, 2), 0.0);
}

TEST(LogisticTest, LearnsBlobs) {
  Rng rng(1);
  FeatureDataset train = Blobs(40, 1.0, rng);
  FeatureDataset test = Blobs(20, 1.0, rng);
  LogisticClassifier clf;
  ASSERT_TRUE(clf.Fit(train).ok());
  EXPECT_GT(clf.Accuracy(test), 0.95);
}

TEST(LogisticTest, ProbabilitiesSumToOne) {
  Rng rng(2);
  FeatureDataset train = Blobs(30, 1.0, rng);
  LogisticClassifier clf;
  ASSERT_TRUE(clf.Fit(train).ok());
  la::Vector p = clf.PredictProba({1.0, 1.0});
  double sum = 0.0;
  for (double x : p) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(LogisticTest, EmptyTrainingRejected) {
  LogisticClassifier clf;
  EXPECT_FALSE(clf.Fit(FeatureDataset{}).ok());
}

TEST(LinearSvmTest, LearnsBlobs) {
  Rng rng(3);
  FeatureDataset train = Blobs(40, 1.0, rng);
  FeatureDataset test = Blobs(20, 1.0, rng);
  LinearSvmClassifier clf;
  ASSERT_TRUE(clf.Fit(train).ok());
  EXPECT_GT(clf.Accuracy(test), 0.9);
}

TEST(RbfSvmTest, LearnsBlobs) {
  Rng rng(4);
  FeatureDataset train = Blobs(30, 1.0, rng);
  FeatureDataset test = Blobs(15, 1.0, rng);
  RbfSvmClassifier clf;
  ASSERT_TRUE(clf.Fit(train).ok());
  EXPECT_GT(clf.Accuracy(test), 0.9);
}

TEST(RbfSvmTest, LearnsNonLinearBoundary) {
  // Ring vs center: linearly inseparable, RBF handles it.
  Rng rng(5);
  FeatureDataset train, test;
  for (int i = 0; i < 240; ++i) {
    const double angle = rng.NextDouble(0.0, 6.283);
    const bool ring = i % 2 == 0;
    const double r = ring ? rng.NextGaussian(4.0, 0.3)
                          : rng.NextGaussian(0.0, 0.7);
    la::Vector x = {r * std::cos(angle), r * std::sin(angle)};
    (i < 160 ? train : test).Add(std::move(x), ring ? 1 : 0);
  }
  RbfSvmClassifier rbf;
  ASSERT_TRUE(rbf.Fit(train).ok());
  EXPECT_GT(rbf.Accuracy(test), 0.85);
  LinearSvmClassifier linear;
  ASSERT_TRUE(linear.Fit(train).ok());
  EXPECT_GT(rbf.Accuracy(test), linear.Accuracy(test));
}

TEST(MakeClassifierTest, AllKindsConstructible) {
  for (ClassifierKind kind :
       {ClassifierKind::kLogistic, ClassifierKind::kLinearSvm,
        ClassifierKind::kRbfSvm}) {
    auto clf = MakeClassifier(kind, 1);
    ASSERT_NE(clf, nullptr);
    EXPECT_EQ(clf->Name(), ClassifierKindName(kind));
  }
}

uint64_t Bits(double x) {
  uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// The smallest hit type TopKHeap accepts.
struct Hit {
  int fact = 0;
  double score = 0.0;
};

TEST(TopKHeapTest, MatchesFullSortForAnyPushOrder) {
  Rng rng(77);
  std::vector<Hit> hits;
  for (int i = 0; i < 200; ++i) {
    // Coarse scores force plenty of ties to exercise the fact tie-break.
    hits.push_back({i, std::floor(rng.NextDouble(0.0, 8.0))});
  }
  std::vector<Hit> sorted = hits;
  std::sort(sorted.begin(), sorted.end(), HitBetter<Hit>());
  for (size_t k : {size_t{0}, size_t{1}, size_t{7}, size_t{200}, size_t{500}}) {
    TopKHeap<Hit> heap(k);
    for (const Hit& h : hits) heap.Push(h);
    const std::vector<Hit> got = std::move(heap).Take();
    ASSERT_EQ(got.size(), std::min(k, hits.size()));
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].fact, sorted[i].fact) << "k=" << k << " i=" << i;
      EXPECT_EQ(Bits(got[i].score), Bits(sorted[i].score));
    }
  }
}

}  // namespace
}  // namespace stedb::ml

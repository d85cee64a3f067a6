#include "src/fwd/trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/data/registry.h"
#include "src/fwd/forward.h"
#include "src/obs/metrics.h"
#include "src/store/format.h"
#include "tests/test_util.h"

namespace stedb::fwd {
namespace {

ForwardConfig TinyConfig() {
  ForwardConfig cfg;
  cfg.dim = 8;
  cfg.max_walk_len = 2;
  cfg.nsamples = 12;
  cfg.epochs = 6;
  cfg.lr = 0.01;
  cfg.seed = 21;
  return cfg;
}

TEST(ForwardTrainerTest, TrainsOnMovieDatabase) {
  db::Database database = stedb::testing::MovieDatabase();
  auto kernels = KernelRegistry::Defaults(database);
  ForwardTrainer trainer(&database, &kernels, TinyConfig());
  auto model = trainer.Train(database.schema().RelationIndex("ACTORS"), {});
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model.value().num_embedded(), 5u);
  EXPECT_EQ(model.value().dim(), 8u);
}

TEST(ForwardTrainerTest, RejectsBadRelation) {
  db::Database database = stedb::testing::MovieDatabase();
  auto kernels = KernelRegistry::Defaults(database);
  ForwardTrainer trainer(&database, &kernels, TinyConfig());
  EXPECT_EQ(trainer.Train(-1, {}).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(trainer.Train(99, {}).status().code(), StatusCode::kOutOfRange);
}

TEST(ForwardTrainerTest, RejectsTooFewFacts) {
  auto schema = std::make_shared<db::Schema>();
  ASSERT_TRUE(
      schema->AddRelation("T", {{"id", db::AttrType::kText}}, {"id"}).ok());
  db::Database database(schema);
  ASSERT_TRUE(database.Insert("T", {db::Value::Text("only")}).ok());
  auto kernels = KernelRegistry::Defaults(database);
  ForwardTrainer trainer(&database, &kernels, TinyConfig());
  EXPECT_EQ(trainer.Train(0, {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ForwardTrainerTest, TrainingReducesLoss) {
  data::GenConfig gen;
  gen.scale = 0.08;
  gen.seed = 5;
  auto ds = data::MakeGenes(gen);
  ASSERT_TRUE(ds.ok());
  AttrKeySet excluded;
  excluded.insert({ds.value().pred_rel, ds.value().pred_attr});
  auto kernels = KernelRegistry::Defaults(ds.value().database);

  ForwardConfig cfg = TinyConfig();
  cfg.dim = 16;
  cfg.epochs = 0;
  ForwardTrainer t0(&ds.value().database, &kernels, cfg);
  auto untrained = t0.Train(ds.value().pred_rel, excluded);
  ASSERT_TRUE(untrained.ok());
  Rng r0(1);
  const double loss0 = t0.EvaluateLoss(untrained.value(), 10, r0);

  cfg.epochs = 8;
  ForwardTrainer t1(&ds.value().database, &kernels, cfg);
  auto trained = t1.Train(ds.value().pred_rel, excluded);
  ASSERT_TRUE(trained.ok());
  Rng r1(1);
  const double loss1 = t1.EvaluateLoss(trained.value(), 10, r1);
  EXPECT_LT(loss1, loss0 * 0.8);
}

TEST(ForwardTrainerTest, DeterministicGivenSeed) {
  db::Database database = stedb::testing::MovieDatabase();
  auto kernels = KernelRegistry::Defaults(database);
  ForwardTrainer t1(&database, &kernels, TinyConfig());
  ForwardTrainer t2(&database, &kernels, TinyConfig());
  auto m1 = t1.Train(database.schema().RelationIndex("ACTORS"), {});
  auto m2 = t2.Train(database.schema().RelationIndex("ACTORS"), {});
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  for (const auto& [f, v] : m1.value().all_phi()) {
    EXPECT_EQ(v, m2.value().phi(f));
  }
}

TEST(ForwardTrainerTest, DistCacheStatsSurfaceThroughTrainer) {
  db::Database database = stedb::testing::MovieDatabase();
  auto kernels = KernelRegistry::Defaults(database);
  ForwardConfig cfg = TinyConfig();
  cfg.kd_estimator = KdEstimator::kExactCached;
  ForwardTrainer trainer(&database, &kernels, cfg);
  ASSERT_TRUE(trainer.stats().dist_cache.hits == 0 &&
              trainer.stats().dist_cache.misses == 0)
      << "stats must start empty";
  auto model = trainer.Train(database.schema().RelationIndex("ACTORS"), {});
  ASSERT_TRUE(model.ok()) << model.status();

  const DistCacheStats& s = trainer.stats().dist_cache;
  // Every (fact, target) distribution is computed exactly once per unique
  // key; everything else is a cache hit. With nsamples * epochs lookups
  // per pair the hit path must dominate.
  EXPECT_GT(s.misses, 0u);
  EXPECT_GT(s.hits, s.misses);
  // A computation only ever races another worker for the same key, so
  // discarded duplicates are bounded by the computations performed.
  EXPECT_LE(s.duplicate_computes, s.misses);
  EXPECT_GE(s.locked_lookups, s.misses);
}

TEST(ForwardTrainerTest, SamplingEstimatorBypassesDistCache) {
  db::Database database = stedb::testing::MovieDatabase();
  auto kernels = KernelRegistry::Defaults(database);
  ForwardConfig cfg = TinyConfig();
  cfg.kd_estimator = KdEstimator::kSingleSample;
  ForwardTrainer trainer(&database, &kernels, cfg);
  auto model = trainer.Train(database.schema().RelationIndex("ACTORS"), {});
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(trainer.stats().dist_cache.hits, 0u);
  EXPECT_EQ(trainer.stats().dist_cache.misses, 0u);
}

TEST(ForwardTrainerTest, PsiStaysSymmetric) {
  db::Database database = stedb::testing::MovieDatabase();
  auto kernels = KernelRegistry::Defaults(database);
  ForwardTrainer trainer(&database, &kernels, TinyConfig());
  auto model = trainer.Train(database.schema().RelationIndex("ACTORS"), {});
  ASSERT_TRUE(model.ok());
  for (size_t t = 0; t < model.value().targets().size(); ++t) {
    const la::Matrix& psi = model.value().psi(t);
    for (size_t i = 0; i < psi.rows(); ++i) {
      for (size_t j = i + 1; j < psi.cols(); ++j) {
        EXPECT_NEAR(psi(i, j), psi(j, i), 1e-9);
      }
    }
  }
}

TEST(ForwardTrainerTest, ExcludedAttrNeverTargeted) {
  data::GenConfig gen;
  gen.scale = 0.05;
  auto ds = data::MakeGenes(gen);
  ASSERT_TRUE(ds.ok());
  AttrKeySet excluded;
  excluded.insert({ds.value().pred_rel, ds.value().pred_attr});
  auto kernels = KernelRegistry::Defaults(ds.value().database);
  ForwardTrainer trainer(&ds.value().database, &kernels, TinyConfig());
  auto model = trainer.Train(ds.value().pred_rel, excluded);
  ASSERT_TRUE(model.ok());
  const db::Schema& schema = ds.value().database.schema();
  for (size_t t = 0; t < model.value().targets().size(); ++t) {
    db::RelationId end = model.value().scheme_of(t).End(schema);
    EXPECT_FALSE(end == ds.value().pred_rel &&
                 model.value().targets()[t].attr == ds.value().pred_attr)
        << "label attribute leaked into T(R, lmax)";
  }
}

/// The trainer's stage histograms split every epoch's critical path into
/// the gradient apply and the stall waiting on materialization: one
/// observation each per epoch, and together never more than the epoch.
TEST(ForwardTrainerTest, StageHistogramsSplitEachEpoch) {
  const obs::Registry& reg = obs::Registry::Global();
  const obs::Histogram* apply =
      reg.FindHistogram("stedb_train_stage_seconds", {{"stage", "apply"}});
  const obs::Histogram* stall =
      reg.FindHistogram("stedb_train_stage_seconds", {{"stage", "stall"}});
  const obs::Histogram* epoch = reg.FindHistogram("stedb_train_epoch_seconds");
  ASSERT_NE(apply, nullptr);
  ASSERT_NE(stall, nullptr);
  ASSERT_NE(epoch, nullptr);
  const uint64_t apply_n0 = apply->Count();
  const uint64_t stall_n0 = stall->Count();
  const double apply_s0 = apply->Sum();
  const double stall_s0 = stall->Sum();
  const double epoch_s0 = epoch->Sum();

  db::Database database = stedb::testing::MovieDatabase();
  auto kernels = KernelRegistry::Defaults(database);
  ForwardConfig cfg = TinyConfig();
  cfg.threads = 2;
  ForwardTrainer trainer(&database, &kernels, cfg);
  ASSERT_TRUE(
      trainer.Train(database.schema().RelationIndex("ACTORS"), {}).ok());

  const uint64_t epochs = static_cast<uint64_t>(cfg.epochs);
  EXPECT_EQ(apply->Count() - apply_n0, epochs);
  EXPECT_EQ(stall->Count() - stall_n0, epochs);
  const double apply_s = apply->Sum() - apply_s0;
  const double stall_s = stall->Sum() - stall_s0;
  EXPECT_GT(apply_s, 0.0);
  EXPECT_GE(stall_s, 0.0);
  EXPECT_LE(apply_s + stall_s, epoch->Sum() - epoch_s0);
}

/// The three KD estimators all train successfully end to end.
class KdEstimatorTest : public ::testing::TestWithParam<KdEstimator> {};

TEST_P(KdEstimatorTest, TrainsAndEmbeds) {
  db::Database database = stedb::testing::MovieDatabase();
  auto kernels = KernelRegistry::Defaults(database);
  ForwardConfig cfg = TinyConfig();
  cfg.kd_estimator = GetParam();
  ForwardTrainer trainer(&database, &kernels, cfg);
  auto model = trainer.Train(database.schema().RelationIndex("MOVIES"), {});
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model.value().num_embedded(), 6u);
  for (const auto& [f, v] : model.value().all_phi()) {
    for (double x : v) EXPECT_TRUE(std::isfinite(x));
  }
}

INSTANTIATE_TEST_SUITE_P(Estimators, KdEstimatorTest,
                         ::testing::Values(KdEstimator::kSingleSample,
                                           KdEstimator::kMultiSample,
                                           KdEstimator::kExactCached));

/// The parallel runtime contract: for a fixed seed the trained model is
/// bit-identical at any thread count, for every KD estimator.
class ThreadEquivalenceTest : public ::testing::TestWithParam<KdEstimator> {};

TEST_P(ThreadEquivalenceTest, BitIdenticalAtOneAndFourThreads) {
  data::GenConfig gen;
  gen.scale = 0.06;
  gen.seed = 9;
  auto ds = data::MakeGenes(gen);
  ASSERT_TRUE(ds.ok());
  AttrKeySet excluded;
  excluded.insert({ds.value().pred_rel, ds.value().pred_attr});
  auto kernels = KernelRegistry::Defaults(ds.value().database);

  auto train = [&](int threads) {
    ForwardConfig cfg = TinyConfig();
    cfg.kd_estimator = GetParam();
    cfg.threads = threads;
    ForwardTrainer trainer(&ds.value().database, &kernels, cfg);
    return trainer.Train(ds.value().pred_rel, excluded);
  };
  auto m1 = train(1);
  auto m4 = train(4);
  ASSERT_TRUE(m1.ok()) << m1.status();
  ASSERT_TRUE(m4.ok()) << m4.status();
  ASSERT_EQ(m1.value().num_embedded(), m4.value().num_embedded());
  for (const auto& [f, v] : m1.value().all_phi()) {
    EXPECT_EQ(v, m4.value().phi(f)) << "phi diverged for fact " << f;
  }
  ASSERT_EQ(m1.value().targets().size(), m4.value().targets().size());
  for (size_t t = 0; t < m1.value().targets().size(); ++t) {
    EXPECT_EQ(m1.value().psi(t).data(), m4.value().psi(t).data())
        << "psi diverged for target " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Estimators, ThreadEquivalenceTest,
                         ::testing::Values(KdEstimator::kSingleSample,
                                           KdEstimator::kMultiSample,
                                           KdEstimator::kExactCached));

/// CRC-32 of a model's parameter bytes: φ rows in ascending fact id, then
/// every ψ in target order.
uint32_t ParameterCrc(const ForwardModel& model) {
  std::vector<db::FactId> ids;
  for (const auto& [f, v] : model.all_phi()) ids.push_back(f);
  std::sort(ids.begin(), ids.end());
  uint32_t crc = 0;
  for (db::FactId f : ids) {
    const la::Vector& v = model.phi(f);
    crc = store::Crc32(v.data(), v.size() * sizeof(double), crc);
  }
  for (size_t t = 0; t < model.targets().size(); ++t) {
    const std::vector<double>& psi = model.psi(t).data();
    crc = store::Crc32(psi.data(), psi.size() * sizeof(double), crc);
  }
  return crc;
}

/// The trained bytes, pinned. The CRC was recorded before the Adam update
/// moved into the kernel table, so it holds that move (and any later
/// change to the training arithmetic) to the old bytes. dim 7 gives φ a
/// partial lane group and ψ (49 elements) one too; every ψ block takes
/// more than 356 Adam steps, so its first-moment bias correction reaches
/// exactly 1.0 and the kernel's division-skipping variant runs.
TEST(ForwardTrainerTest, TrainedBytesMatchPinnedCrc) {
  data::GenConfig gen;
  gen.scale = 0.06;
  gen.seed = 9;
  auto ds = data::MakeGenes(gen);
  ASSERT_TRUE(ds.ok());
  AttrKeySet excluded;
  excluded.insert({ds.value().pred_rel, ds.value().pred_attr});
  auto kernels = KernelRegistry::Defaults(ds.value().database);
  for (int threads = 1; threads <= 4; ++threads) {
    ForwardConfig cfg = TinyConfig();
    cfg.dim = 7;
    cfg.threads = threads;
    ForwardTrainer trainer(&ds.value().database, &kernels, cfg);
    auto model = trainer.Train(ds.value().pred_rel, excluded);
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_EQ(ParameterCrc(model.value()), 4008824903u)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace stedb::fwd

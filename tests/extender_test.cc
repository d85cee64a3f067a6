#include "src/fwd/extender.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>

#include "src/data/registry.h"
#include "src/db/cascade.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"
#include "src/store/embedding_store.h"
#include "src/store/format.h"
#include "tests/test_util.h"

namespace stedb::fwd {
namespace {

using stedb::testing::FindFact;
using stedb::testing::InsertC4;
using stedb::testing::MovieDatabase;

ForwardConfig TinyConfig() {
  ForwardConfig cfg;
  cfg.dim = 8;
  cfg.max_walk_len = 2;
  cfg.nsamples = 12;
  cfg.epochs = 6;
  cfg.lr = 0.01;
  cfg.new_samples = 16;
  cfg.seed = 33;
  return cfg;
}

TEST(ExtenderTest, ExtendsNewCollaboration) {
  db::Database database = MovieDatabase();
  auto emb = ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {},
      TinyConfig());
  ASSERT_TRUE(emb.ok()) << emb.status();
  ForwardEmbedder embedder = std::move(emb).value();

  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(embedder.ExtendToFacts({c4}).ok());
  auto v = embedder.Embed(c4);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().size(), 8u);
  for (double x : v.value()) EXPECT_TRUE(std::isfinite(x));
}

TEST(ExtenderTest, OldEmbeddingsBitIdentical) {
  db::Database database = MovieDatabase();
  auto emb = ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {},
      TinyConfig());
  ASSERT_TRUE(emb.ok());
  ForwardEmbedder embedder = std::move(emb).value();
  std::unordered_map<db::FactId, la::Vector> before;
  for (const auto& [f, v] : embedder.model().all_phi()) before[f] = v;

  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(embedder.ExtendToFacts({c4}).ok());
  for (const auto& [f, v] : before) {
    EXPECT_EQ(embedder.model().phi(f), v) << "fact " << f << " drifted";
  }
}

TEST(ExtenderTest, ErrorsOnWrongRelationOrDeadFact) {
  db::Database database = MovieDatabase();
  auto emb = ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {},
      TinyConfig());
  ASSERT_TRUE(emb.ok());
  ForwardModel model = emb.value().model();
  auto kernels = std::make_shared<KernelRegistry>(
      KernelRegistry::Defaults(database));
  ForwardExtender extender(&database, kernels.get(), TinyConfig());
  Rng rng(1);
  db::FactId m1 = FindFact(database, "MOVIES", {"m01"});
  EXPECT_EQ(extender.Extend(model, m1, rng).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(extender.Extend(model, 99999, rng).status().code(),
            StatusCode::kNotFound);
  // Already embedded fact rejected.
  db::FactId c1 =
      FindFact(database, "COLLABORATIONS", {"a01", "a02", "m03"});
  EXPECT_EQ(extender.Extend(model, c1, rng).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(ExtenderTest, NearDuplicateLandsNearTwin) {
  // Insert a near-duplicate of an existing molecule subtree; the extended
  // embedding must be closer to its twin than to the average fact.
  data::GenConfig gen;
  gen.scale = 0.08;
  gen.seed = 9;
  gen.null_rate = 0.0;
  auto ds = data::MakeMutagenesis(gen);
  ASSERT_TRUE(ds.ok());
  db::Database& database = ds.value().database;
  AttrKeySet excluded;
  excluded.insert({ds.value().pred_rel, ds.value().pred_attr});

  ForwardConfig cfg = TinyConfig();
  cfg.dim = 12;
  cfg.epochs = 10;
  cfg.nsamples = 24;
  auto emb = ForwardEmbedder::TrainStatic(&database, ds.value().pred_rel,
                                          excluded, cfg);
  ASSERT_TRUE(emb.ok()) << emb.status();
  ForwardEmbedder embedder = std::move(emb).value();

  // Twin: cascade-delete a molecule and re-insert it (identical content,
  // fresh ids), then extend.
  db::FactId victim = ds.value().Samples().front();
  la::Vector twin_vec = embedder.Embed(victim).value();
  auto cascade = db::CascadeDelete(database, victim);
  ASSERT_TRUE(cascade.ok());
  auto new_ids = db::ReinsertBatch(database, cascade.value());
  ASSERT_TRUE(new_ids.ok());
  db::FactId reborn = db::kNoFact;
  for (db::FactId f : new_ids.value()) {
    if (database.fact(f).rel == ds.value().pred_rel) reborn = f;
  }
  ASSERT_NE(reborn, db::kNoFact);
  ASSERT_TRUE(embedder.ExtendToFacts(new_ids.value()).ok());

  la::Vector reborn_vec = embedder.Embed(reborn).value();
  double twin_dist = la::Distance(reborn_vec, twin_vec);
  double avg_dist = 0.0;
  size_t n = 0;
  for (const auto& [f, v] : embedder.model().all_phi()) {
    if (f == reborn) continue;
    avg_dist += la::Distance(reborn_vec, v);
    ++n;
  }
  avg_dist /= static_cast<double>(n);
  EXPECT_LT(twin_dist, avg_dist);
}

TEST(ExtenderTest, PinvAndRidgeAgreeOnWellConditioned) {
  db::Database database = MovieDatabase();
  ForwardConfig base = TinyConfig();
  auto train = ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {},
      base);
  ASSERT_TRUE(train.ok());

  auto kernels = std::make_shared<KernelRegistry>(
      KernelRegistry::Defaults(database));
  db::FactId c4 = InsertC4(database);

  ForwardConfig pinv_cfg = base;
  pinv_cfg.use_pinv = true;
  ForwardConfig ridge_cfg = base;
  ridge_cfg.use_pinv = false;
  ridge_cfg.ridge = 1e-10;

  ForwardModel m1 = train.value().model();
  ForwardModel m2 = train.value().model();
  ForwardExtender e1(&database, kernels.get(), pinv_cfg);
  ForwardExtender e2(&database, kernels.get(), ridge_cfg);
  Rng r1(77), r2(77);
  auto v1 = e1.Extend(m1, c4, r1);
  auto v2 = e2.Extend(m2, c4, r2);
  ASSERT_TRUE(v1.ok()) << v1.status();
  ASSERT_TRUE(v2.ok()) << v2.status();
  for (size_t i = 0; i < v1.value().size(); ++i) {
    EXPECT_NEAR(v1.value()[i], v2.value()[i], 1e-3);
  }
}

/// Inserts a second new collaboration (a03, a05, m02) for multi-arrival
/// cache tests.
db::FactId InsertC5(db::Database& database) {
  auto r = database.Insert("COLLABORATIONS",
                           {db::Value::Text("a03"), db::Value::Text("a05"),
                            db::Value::Text("m02")});
  EXPECT_TRUE(r.ok()) << r.status();
  return r.value();
}

/// One-by-one mode (the default): old facts' destination distributions
/// are computed once and reused across arrivals — the cache only grows.
TEST(ExtenderCacheTest, OneByOneKeepsCacheAcrossArrivals) {
  db::Database database = MovieDatabase();
  auto train = ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {},
      TinyConfig());
  ASSERT_TRUE(train.ok());
  auto kernels = std::make_shared<KernelRegistry>(
      KernelRegistry::Defaults(database));
  ForwardExtender extender(&database, kernels.get(), TinyConfig());
  ForwardModel model = train.value().model();

  db::FactId c4 = InsertC4(database);
  Rng rng(5);
  ASSERT_TRUE(extender.Extend(model, c4, rng).ok());
  const size_t after_first = extender.cache_size();
  ASSERT_GT(after_first, 0u);

  db::FactId c5 = InsertC5(database);
  ASSERT_TRUE(extender.Extend(model, c5, rng).ok());
  // Reuse, not recomputation: nothing was dropped between arrivals.
  EXPECT_GE(extender.cache_size(), after_first);
}

/// All-at-once mode: InvalidateCache() before the batch drops every
/// cached distribution so the next Extend recomputes them against the
/// *grown* database (which now contains the earlier arrivals).
TEST(ExtenderCacheTest, InvalidateRecomputesAgainstGrownDatabase) {
  db::Database database = MovieDatabase();
  auto train = ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {},
      TinyConfig());
  ASSERT_TRUE(train.ok());
  auto kernels = std::make_shared<KernelRegistry>(
      KernelRegistry::Defaults(database));
  ForwardExtender extender(&database, kernels.get(), TinyConfig());
  ForwardModel model = train.value().model();

  db::FactId c4 = InsertC4(database);
  Rng rng(5);
  ASSERT_TRUE(extender.Extend(model, c4, rng).ok());
  ASSERT_GT(extender.cache_size(), 0u);

  db::FactId c5 = InsertC5(database);
  extender.InvalidateCache();
  ASSERT_EQ(extender.cache_size(), 0u);
  auto v = extender.Extend(model, c5, rng);
  ASSERT_TRUE(v.ok()) << v.status();
  // The batch repopulated the cache from the post-insert database.
  EXPECT_GT(extender.cache_size(), 0u);
  for (double x : v.value()) EXPECT_TRUE(std::isfinite(x));
}

/// Both cache regimes are deterministic (same seeds, bit-identical φ for
/// every new fact) and both honor the stability contract after a cache
/// drop: no old embedding moves.
TEST(ExtenderCacheTest, BothModesDeterministicAndStable) {
  for (const bool invalidate_between : {false, true}) {
    SCOPED_TRACE(invalidate_between ? "all-at-once" : "one-by-one");
    std::vector<la::Vector> phi_c4, phi_c5;
    for (int replica = 0; replica < 2; ++replica) {
      db::Database database = MovieDatabase();
      auto train = ForwardEmbedder::TrainStatic(
          &database, database.schema().RelationIndex("COLLABORATIONS"), {},
          TinyConfig());
      ASSERT_TRUE(train.ok());
      auto kernels = std::make_shared<KernelRegistry>(
          KernelRegistry::Defaults(database));
      ForwardExtender extender(&database, kernels.get(), TinyConfig());
      ForwardModel model = train.value().model();
      std::unordered_map<db::FactId, la::Vector> before;
      for (const auto& [f, v] : model.all_phi()) before[f] = v;

      db::FactId c4 = InsertC4(database);
      Rng r1(41);
      ASSERT_TRUE(extender.Extend(model, c4, r1).ok());
      db::FactId c5 = InsertC5(database);
      if (invalidate_between) extender.InvalidateCache();
      Rng r2(43);
      ASSERT_TRUE(extender.Extend(model, c5, r2).ok());

      phi_c4.push_back(model.phi(c4));
      phi_c5.push_back(model.phi(c5));
      for (const auto& [f, v] : before) {
        EXPECT_EQ(model.phi(f), v) << "old fact " << f << " drifted";
      }
    }
    EXPECT_EQ(phi_c4[0], phi_c4[1]);
    EXPECT_EQ(phi_c5[0], phi_c5[1]);
  }
}

/// The parallel dynamic path: one arrival batch's solves fan out over the
/// runner, and the embedded vectors AND the journal bytes must be
/// bit-identical at any thread count (threads ∈ {1, 4} here). This is the
/// extender-side half of the PR 4 guarantee that journal bytes are
/// extension-order-independent.
TEST(ExtenderParallelTest, ThreadCountInvariantVectorsAndJournalBytes) {
  std::vector<la::Vector> phi_c4, phi_c5;
  std::vector<std::string> journal_bytes;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    db::Database database = MovieDatabase();
    ForwardConfig cfg = TinyConfig();
    cfg.threads = threads;
    auto emb = ForwardEmbedder::TrainStatic(
        &database, database.schema().RelationIndex("COLLABORATIONS"), {},
        cfg);
    ASSERT_TRUE(emb.ok()) << emb.status();
    ForwardEmbedder embedder = std::move(emb).value();
    std::unordered_map<db::FactId, la::Vector> before;
    for (const auto& [f, v] : embedder.model().all_phi()) before[f] = v;

    const std::string dir = ::testing::TempDir() + "/stedb_par_ext_" +
                            std::to_string(threads);
    std::filesystem::remove_all(dir);
    auto created = CreateForwardStore(dir, embedder.model());
    ASSERT_TRUE(created.ok()) << created.status();
    store::EmbeddingStore store = std::move(created).value();
    embedder.set_extension_sink(store.MakeSink());

    // One batch with two arrivals: solved in parallel at threads=4,
    // inline at threads=1.
    db::FactId c4 = InsertC4(database);
    db::FactId c5 = InsertC5(database);
    ASSERT_TRUE(embedder.ExtendToFacts({c5, c4}).ok());
    ASSERT_TRUE(store.Sync().ok());
    phi_c4.push_back(embedder.model().phi(c4));
    phi_c5.push_back(embedder.model().phi(c5));
    std::string bytes;
    ASSERT_TRUE(store::ReadFileToString(
                    store::EmbeddingStore::WalPath(dir), &bytes)
                    .ok());
    journal_bytes.push_back(bytes);
    // Stability holds under the parallel solve too.
    for (const auto& [f, v] : before) {
      EXPECT_EQ(embedder.model().phi(f), v) << "old fact " << f << " drifted";
    }
  }
  EXPECT_EQ(phi_c4[0], phi_c4[1]);
  EXPECT_EQ(phi_c5[0], phi_c5[1]);
  EXPECT_EQ(journal_bytes[0], journal_bytes[1]);
}

/// Arrival order within one batch cannot perturb the result: the batch is
/// solved against the model as of batch entry and installed in fact-id
/// order.
TEST(ExtenderParallelTest, BatchResultIndependentOfArrivalOrder) {
  std::vector<la::Vector> phi_c4, phi_c5;
  for (const bool reversed : {false, true}) {
    db::Database database = MovieDatabase();
    auto emb = ForwardEmbedder::TrainStatic(
        &database, database.schema().RelationIndex("COLLABORATIONS"), {},
        TinyConfig());
    ASSERT_TRUE(emb.ok());
    ForwardEmbedder embedder = std::move(emb).value();
    db::FactId c4 = InsertC4(database);
    db::FactId c5 = InsertC5(database);
    std::vector<db::FactId> batch = {c4, c5};
    if (reversed) std::swap(batch[0], batch[1]);
    ASSERT_TRUE(embedder.ExtendToFacts(batch).ok());
    phi_c4.push_back(embedder.model().phi(c4));
    phi_c5.push_back(embedder.model().phi(c5));
  }
  EXPECT_EQ(phi_c4[0], phi_c4[1]);
  EXPECT_EQ(phi_c5[0], phi_c5[1]);
}

/// CRC-32 of every vector a one-by-one arrival stream extends, in arrival
/// order. The paper's protocol on genes at 0.12: 32 prediction facts are
/// cascade-deleted before training and re-inserted one cascade at a time
/// (reverse deletion order), each followed by ExtendToFacts. Later
/// arrivals sample the earlier ones as old facts, so the stream covers
/// the distribution cache across calls as well as every solve.
uint32_t ArrivalStreamCrc(size_t dim, int threads) {
  data::GenConfig gen;
  gen.scale = 0.12;
  gen.seed = 9;
  auto ds = data::MakeGenes(gen);
  EXPECT_TRUE(ds.ok()) << ds.status();
  db::Database& database = ds.value().database;
  const db::RelationId rel = ds.value().pred_rel;
  AttrKeySet excluded;
  excluded.insert({rel, ds.value().pred_attr});

  std::vector<db::CascadeResult> batches;
  const std::vector<db::FactId> facts = ds.value().Samples();
  for (size_t i = 0; i < facts.size() && batches.size() < 32; i += 2) {
    if (!database.IsLive(facts[i])) continue;
    auto cascade = db::CascadeDelete(database, facts[i]);
    EXPECT_TRUE(cascade.ok()) << cascade.status();
    batches.push_back(std::move(cascade).value());
  }
  EXPECT_EQ(batches.size(), 32u);

  ForwardConfig cfg = TinyConfig();
  cfg.dim = dim;
  cfg.threads = threads;
  auto emb = ForwardEmbedder::TrainStatic(&database, rel, excluded, cfg);
  EXPECT_TRUE(emb.ok()) << emb.status();
  ForwardEmbedder embedder = std::move(emb).value();

  uint32_t crc = 0;
  size_t extended = 0;
  for (size_t b = batches.size(); b > 0; --b) {
    auto ids = db::ReinsertBatch(database, batches[b - 1]);
    EXPECT_TRUE(ids.ok()) << ids.status();
    EXPECT_TRUE(embedder.ExtendToFacts(ids.value()).ok());
    std::vector<db::FactId> fresh;
    for (db::FactId f : ids.value()) {
      if (database.fact(f).rel == rel) fresh.push_back(f);
    }
    std::sort(fresh.begin(), fresh.end());
    for (db::FactId f : fresh) {
      const la::Vector& v = embedder.model().phi(f);
      crc = store::Crc32(v.data(), v.size() * sizeof(double), crc);
      ++extended;
    }
  }
  EXPECT_GE(extended, 32u);
  return crc;
}

/// The extended bytes, pinned. The CRC was recorded before the kernel
/// reductions, the Jacobi SVD's memory walk and the solve's row loop were
/// rewritten, so it holds every later change to the extension arithmetic
/// to those bytes — at any thread count and on every runnable SIMD path.
/// dim 7 runs every reduction as one lane group plus a partial one; dim 18
/// adds a full 16-element block before the partial group; dim 32, the
/// default scale's d, runs the Jacobi sweep's steps up to 16 pairs wide.
TEST(ExtenderParallelTest, ArrivalStreamBytesMatchPinnedCrc) {
  stedb::testing::SimdPathGuard guard;
  std::vector<la::SimdPath> paths = {la::SimdPath::kScalar};
  if (stedb::testing::HasAvx2()) paths.push_back(la::SimdPath::kAvx2);
  const struct {
    size_t dim;
    uint32_t crc;
  } pins[] = {{7, 2951757861u}, {18, 2620246205u}, {32, 3036213831u}};
  for (la::SimdPath path : paths) {
    la::internal::ForceSimdPathForTest(path);
    for (const auto& pin : pins) {
      for (int threads : {1, 4}) {
        EXPECT_EQ(ArrivalStreamCrc(pin.dim, threads), pin.crc)
            << la::SimdPathName(path) << " dim=" << pin.dim
            << " threads=" << threads;
      }
    }
  }
}

TEST(ExtenderTest, CacheGrowsInOneByOneMode) {
  db::Database database = MovieDatabase();
  auto train = ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {},
      TinyConfig());
  ASSERT_TRUE(train.ok());
  auto kernels = std::make_shared<KernelRegistry>(
      KernelRegistry::Defaults(database));
  ForwardExtender extender(&database, kernels.get(), TinyConfig());
  ForwardModel model = train.value().model();
  db::FactId c4 = InsertC4(database);
  Rng rng(5);
  ASSERT_TRUE(extender.Extend(model, c4, rng).ok());
  EXPECT_GT(extender.cache_size(), 0u);
  extender.InvalidateCache();
  EXPECT_EQ(extender.cache_size(), 0u);
}

}  // namespace
}  // namespace stedb::fwd

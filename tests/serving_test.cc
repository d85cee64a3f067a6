// The serving path: zero-copy mmap snapshot reads, WAL tailing via
// ServingSession::Poll, and the headline guarantee — every vector served
// from the store directory is bit-identical to the trainer's in-memory
// model, including after extension batches and a Compact().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "src/api/serving.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"
#include "src/fwd/trainer.h"
#include "src/fwd/walk_scheme.h"
#include "src/la/kernels.h"
#include "src/ml/topk.h"
#include "src/n2v/codec.h"
#include "src/n2v/node2vec.h"
#include "src/obs/metrics.h"
#include "src/store/embedding_store.h"
#include "src/store/format.h"
#include "src/store/mmap_snapshot.h"
#include "src/store/stored_model.h"
#include "tests/test_util.h"

namespace stedb {
namespace {

using stedb::testing::InsertC4;
using stedb::testing::MovieDatabase;
using stedb::testing::ReferenceBilinearForm;

fwd::ForwardConfig SmallConfig() {
  fwd::ForwardConfig cfg;
  cfg.dim = 6;
  cfg.max_walk_len = 2;
  cfg.nsamples = 8;
  cfg.epochs = 3;
  cfg.seed = 9;
  return cfg;
}

fwd::ForwardModel TrainSmall() {
  static db::Database database = MovieDatabase();
  auto kernels = fwd::KernelRegistry::Defaults(database);
  fwd::ForwardConfig cfg = SmallConfig();
  fwd::ForwardTrainer trainer(&database, &kernels, cfg);
  return std::move(
             trainer.Train(database.schema().RelationIndex("ACTORS"), {}))
      .value();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

la::Vector TestVector(size_t dim, int tag) {
  la::Vector v(dim);
  for (size_t i = 0; i < dim; ++i) {
    v[i] = 0.125 * static_cast<double>(tag) + static_cast<double>(i) / 7.0;
  }
  return v;
}

/// Bit-exact comparison of a served span against a model vector.
void ExpectSameBits(Span<const double> served, const la::Vector& expected) {
  ASSERT_EQ(served.size(), expected.size());
  EXPECT_EQ(std::memcmp(served.data(), expected.data(),
                        expected.size() * sizeof(double)),
            0);
}

// ---- MmapSnapshot ------------------------------------------------------

TEST(MmapSnapshotTest, ServesEveryVectorBitIdentically) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("mmap_snapshot_basic");
  const std::string path = dir + "/model.snap";
  ASSERT_TRUE(
      store::AtomicWriteFile(path, fwd::EncodeForwardSnapshot(model)).ok());

  auto snap = store::MmapSnapshot::Open(path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap.value().dim(), model.dim());
  EXPECT_EQ(snap.value().relation(), model.relation());
  EXPECT_EQ(snap.value().num_embedded(), model.num_embedded());
  EXPECT_EQ(snap.value().mapped_bytes(),
            std::filesystem::file_size(path));
  for (const auto& [f, v] : model.all_phi()) {
    ExpectSameBits(snap.value().phi(f), v);
  }
  // fact_at enumerates ascending.
  for (size_t i = 1; i < snap.value().num_embedded(); ++i) {
    EXPECT_LT(snap.value().fact_at(i - 1), snap.value().fact_at(i));
  }
  EXPECT_TRUE(snap.value().phi(987654).empty());
}

TEST(MmapSnapshotTest, AgreesWithCopyingParser) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("mmap_snapshot_vs_copy");
  const std::string path = dir + "/model.snap";
  ASSERT_TRUE(
      store::AtomicWriteFile(path, fwd::EncodeForwardSnapshot(model)).ok());
  std::string bytes;
  ASSERT_TRUE(store::ReadFileToString(path, &bytes).ok());
  auto copied = fwd::DecodeForwardSnapshot(bytes);
  auto mapped = store::MmapSnapshot::Open(path);
  ASSERT_TRUE(copied.ok());
  ASSERT_TRUE(mapped.ok());
  ASSERT_EQ(copied.value().num_embedded(), mapped.value().num_embedded());
  for (const auto& [f, v] : copied.value().all_phi()) {
    ExpectSameBits(mapped.value().phi(f), v);
  }
}

TEST(MmapSnapshotTest, RejectsCorruption) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("mmap_snapshot_corrupt");
  const std::string path = dir + "/model.snap";
  ASSERT_TRUE(
      store::AtomicWriteFile(path, fwd::EncodeForwardSnapshot(model)).ok());

  std::string bytes;
  ASSERT_TRUE(store::ReadFileToString(path, &bytes).ok());
  // Flip one byte late in the file (inside the PHI payload).
  std::string flipped = bytes;
  flipped[flipped.size() - 9] ^= 0x40;
  ASSERT_TRUE(store::AtomicWriteFile(path, flipped).ok());
  EXPECT_FALSE(store::MmapSnapshot::Open(path).ok());

  // Truncation is rejected too.
  ASSERT_TRUE(
      store::AtomicWriteFile(path, bytes.substr(0, bytes.size() / 2)).ok());
  EXPECT_FALSE(store::MmapSnapshot::Open(path).ok());

  // And a missing file.
  EXPECT_FALSE(store::MmapSnapshot::Open(dir + "/nope.snap").ok());
}

TEST(MmapSnapshotTest, ServesPsiMatricesZeroCopy) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("mmap_snapshot_psi");
  const std::string path = dir + "/model.snap";
  ASSERT_TRUE(
      store::AtomicWriteFile(path, fwd::EncodeForwardSnapshot(model)).ok());

  auto snap = store::MmapSnapshot::Open(path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap.value().method_tag(), fwd::kForwardMethodTag);
  ASSERT_EQ(snap.value().num_psi(), model.targets().size());
  for (size_t t = 0; t < model.targets().size(); ++t) {
    Span<const double> view = snap.value().psi(t);
    const la::Matrix& expected = model.psi(t);
    ASSERT_EQ(view.size(), expected.rows() * expected.cols());
    // Bit-exact, row-major, straight off the mapping — the layout a
    // serving-side φᵀψφ scorer would consume.
    EXPECT_EQ(std::memcmp(view.data(), expected.data().data(),
                          view.size() * sizeof(double)),
              0)
        << "psi " << t;
  }
  // Out-of-range target: empty view, not UB.
  EXPECT_TRUE(snap.value().psi(model.targets().size()).empty());
  EXPECT_TRUE(snap.value().psi(model.targets().size() + 7).empty());
}

TEST(MmapSnapshotTest, Node2VecSnapshotHasNoPsiAndStillServes) {
  const size_t dim = 6;
  auto model = std::make_unique<store::VectorSetModel>(dim, -1);
  for (int i = 0; i < 5; ++i) model->set_phi(10 + i, TestVector(dim, i));
  const std::string dir = FreshDir("mmap_snapshot_n2v");
  auto created = store::EmbeddingStore::Create(dir, n2v::kNode2VecMethodTag,
                                               std::move(model));
  ASSERT_TRUE(created.ok()) << created.status();

  auto snap = store::MmapSnapshot::Open(
      store::EmbeddingStore::SnapshotPath(dir));
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap.value().num_psi(), 0u);
  EXPECT_TRUE(snap.value().psi(0).empty());
  EXPECT_EQ(snap.value().dim(), dim);
  EXPECT_EQ(snap.value().num_embedded(), 5u);
  for (int i = 0; i < 5; ++i) {
    ExpectSameBits(snap.value().phi(10 + i), TestVector(dim, i));
  }
}

// ---- ServingSession ----------------------------------------------------

TEST(ServingSessionTest, ColdOpenServesTrainedModelBitIdentically) {
  db::Database database = MovieDatabase();
  auto emb = fwd::ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {},
      SmallConfig());
  ASSERT_TRUE(emb.ok());
  const std::string dir = FreshDir("serving_cold");
  auto st = fwd::CreateForwardStore(dir, emb.value().model());
  ASSERT_TRUE(st.ok());

  auto session = api::ServingSession::Open(dir);
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ(session.value().dim(), emb.value().dim());
  EXPECT_EQ(session.value().num_embedded(),
            emb.value().model().num_embedded());
  for (const auto& [f, v] : emb.value().model().all_phi()) {
    ExpectSameBits(session.value().Embed(f).value(), v);
  }
  EXPECT_EQ(session.value().Embed(424242).status().code(),
            StatusCode::kNotFound);
}

TEST(ServingSessionTest, PollPicksUpLiveExtensions) {
  // Trainer process: train, journal, extend. Reader process: open cold
  // BEFORE the extension, Poll after it, serve the new fact bit-exactly.
  db::Database database = MovieDatabase();
  auto emb = fwd::ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {},
      SmallConfig());
  ASSERT_TRUE(emb.ok());
  const std::string dir = FreshDir("serving_poll");
  auto created = fwd::CreateForwardStore(dir, emb.value().model());
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  emb.value().set_extension_sink(store.MakeSink());

  auto session_result = api::ServingSession::Open(dir);
  ASSERT_TRUE(session_result.ok());
  api::ServingSession session = std::move(session_result).value();

  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(emb.value().ExtendToFacts({c4}).ok());
  ASSERT_TRUE(store.Sync().ok());

  // Before Poll the new fact is invisible; after, bit-identical.
  EXPECT_EQ(session.Embed(c4).status().code(), StatusCode::kNotFound);
  auto polled = session.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status();
  EXPECT_EQ(polled.value(), 1u);
  EXPECT_FALSE(session.reopened());
  ExpectSameBits(session.Embed(c4).value(), emb.value().model().phi(c4));
  // Idempotent: nothing new on a second Poll.
  EXPECT_EQ(session.Poll().value(), 0u);

  // The whole model — snapshot residents and the tailed fact — in one
  // batch read, bit-identical to the in-memory embedder.
  std::vector<db::FactId> facts;
  for (const auto& [f, v] : emb.value().model().all_phi()) {
    facts.push_back(f);
  }
  la::Matrix served(facts.size(), session.dim());
  ASSERT_TRUE(session.EmbedBatch(facts, served).ok());
  la::Matrix live(facts.size(), emb.value().dim());
  ASSERT_TRUE(emb.value().EmbedBatch(facts, live).ok());
  EXPECT_EQ(served.data(), live.data());
}

TEST(ServingSessionTest, MultipleExtensionBatchesAndCompact) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_compact");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  const size_t dim = model.dim();

  auto session_result = api::ServingSession::Open(dir);
  ASSERT_TRUE(session_result.ok());
  api::ServingSession session = std::move(session_result).value();
  EXPECT_FALSE(session.Pending().value());

  // Batch 1.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Append(1000 + i, TestVector(dim, i)).ok());
  }
  ASSERT_TRUE(store.Sync().ok());
  EXPECT_TRUE(session.Pending().value());
  EXPECT_EQ(session.Poll().value(), 5u);
  const obs::Gauge* lag =
      obs::Registry::Global().FindGauge("stedb_serving_wal_lag_records");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->Value(), 5.0);
  // Caught up: the check alone zeroes the lag, as an empty Poll did.
  EXPECT_FALSE(session.Pending().value());
  EXPECT_EQ(lag->Value(), 0.0);
  // Batch 2.
  for (int i = 5; i < 8; ++i) {
    ASSERT_TRUE(store.Append(1000 + i, TestVector(dim, i)).ok());
  }
  ASSERT_TRUE(store.Sync().ok());
  EXPECT_EQ(session.Poll().value(), 3u);
  for (int i = 0; i < 8; ++i) {
    ExpectSameBits(session.Embed(1000 + i).value(), TestVector(dim, i));
  }

  // Writer compacts: journal folds into a fresh snapshot. The session
  // notices the new snapshot identity, reopens, and serves the exact same
  // vectors (nothing new arrived).
  ASSERT_TRUE(store.Compact().ok());
  EXPECT_TRUE(session.Pending().value());  // the snapshot's identity moved
  auto polled = session.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status();
  EXPECT_TRUE(session.reopened());
  EXPECT_EQ(polled.value(), 0u);
  EXPECT_FALSE(session.Pending().value());
  EXPECT_EQ(session.wal_records(), 0u);  // everything snapshot-resident now
  for (int i = 0; i < 8; ++i) {
    ExpectSameBits(session.Embed(1000 + i).value(), TestVector(dim, i));
  }
  store.model().ForEachPhi([&](db::FactId f, const la::Vector& v) {
    ExpectSameBits(session.Embed(f).value(), v);
  });

  // Appends after the compaction flow through the fresh journal.
  ASSERT_TRUE(store.Append(2000, TestVector(dim, 99)).ok());
  ASSERT_TRUE(store.Sync().ok());
  EXPECT_TRUE(session.Pending().value());
  EXPECT_EQ(session.Poll().value(), 1u);
  EXPECT_FALSE(session.reopened());
  ExpectSameBits(session.Embed(2000).value(), TestVector(dim, 99));

  // Without its snapshot the store cannot be checked: an error, while the
  // mapping keeps serving what it has.
  std::filesystem::remove(store::EmbeddingStore::SnapshotPath(dir));
  EXPECT_EQ(session.Pending().status().code(), StatusCode::kIOError);
  ExpectSameBits(session.Embed(2000).value(), TestVector(dim, 99));
}

TEST(ServingSessionTest, OverlappingWalRecordCountsOnce) {
  // The compaction crash window can leave a journal record for a fact the
  // snapshot already holds. The overlay must win for reads and the fact
  // must count once in num_embedded().
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_overlap");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();

  auto session_result = api::ServingSession::Open(dir);
  ASSERT_TRUE(session_result.ok());
  api::ServingSession session = std::move(session_result).value();
  const size_t baseline = session.num_embedded();
  ASSERT_EQ(baseline, model.num_embedded());

  const db::FactId existing = model.all_phi().begin()->first;
  const la::Vector replacement = TestVector(model.dim(), 55);
  ASSERT_TRUE(store.Append(existing, replacement).ok());
  ASSERT_TRUE(store.Sync().ok());
  EXPECT_EQ(session.Poll().value(), 1u);
  EXPECT_EQ(session.num_embedded(), baseline);  // same fact set
  ExpectSameBits(session.Embed(existing).value(), replacement);
}

TEST(ServingSessionTest, TornTailIsPendingDataNotCorruption) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_torn");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  ASSERT_TRUE(store.Close().ok());
  const size_t dim = model.dim();

  auto session_result = api::ServingSession::Open(dir);
  ASSERT_TRUE(session_result.ok());
  api::ServingSession session = std::move(session_result).value();

  // Hand-craft one full WAL record, then append it in two halves to
  // simulate racing a writer mid-append.
  const la::Vector phi = TestVector(dim, 3);
  std::string payload;
  store::AppendI64(payload, 777);
  for (double x : phi) store::AppendDouble(payload, x);
  std::string record;
  store::AppendU32(record, static_cast<uint32_t>(payload.size()));
  store::AppendU32(record, store::Crc32(payload.data(), payload.size()));
  record += payload;

  const std::string wal_path = store::EmbeddingStore::WalPath(dir);
  {
    std::ofstream wal(wal_path, std::ios::binary | std::ios::app);
    wal.write(record.data(),
              static_cast<std::streamsize>(record.size() / 2));
  }
  // Half a record on disk: Poll sees pending data, applies nothing, and
  // does not error or advance past it.
  auto polled = session.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status();
  EXPECT_EQ(polled.value(), 0u);
  EXPECT_EQ(session.Embed(777).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(session.Pending().value());  // until the writer completes it

  {
    std::ofstream wal(wal_path, std::ios::binary | std::ios::app);
    wal.write(record.data() + record.size() / 2,
              static_cast<std::streamsize>(record.size() -
                                           record.size() / 2));
  }
  // The record completed: the very next Poll serves it.
  EXPECT_EQ(session.Poll().value(), 1u);
  ExpectSameBits(session.Embed(777).value(), phi);
  EXPECT_FALSE(session.Pending().value());
}

TEST(ServingSessionTest, BatchShapeAndMissingFactErrors) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_errors");
  ASSERT_TRUE(fwd::CreateForwardStore(dir, model).ok());
  auto session = api::ServingSession::Open(dir);
  ASSERT_TRUE(session.ok());

  std::vector<db::FactId> facts = {model.all_phi().begin()->first};
  la::Matrix wrong(facts.size(), model.dim() + 1);
  EXPECT_EQ(session.value().EmbedBatch(facts, wrong).code(),
            StatusCode::kInvalidArgument);
  facts.push_back(999999);
  la::Matrix out(facts.size(), model.dim());
  EXPECT_EQ(session.value().EmbedBatch(facts, out).code(),
            StatusCode::kNotFound);
}

TEST(ServingSessionTest, OpenFailsWithoutStore) {
  const std::string dir = FreshDir("serving_missing");
  EXPECT_FALSE(api::ServingSession::Open(dir).ok());
}

// ---- Serving any method ------------------------------------------------

TEST(ServingSessionTest, Node2VecTrainSnapshotExtendPollRoundTrip) {
  // The acceptance scenario for method-agnostic serving: a Node2Vec store
  // directory opens in a ServingSession and serves vectors bit-identical
  // to the live model — cold after the snapshot, and through Poll() for
  // extensions journaled later.
  db::Database database = MovieDatabase();
  n2v::Node2VecConfig cfg;
  cfg.sg.dim = 8;
  cfg.sg.epochs = 2;
  cfg.walk.walks_per_node = 4;
  cfg.walk.walk_length = 6;
  cfg.dynamic_epochs = 2;
  cfg.seed = 17;
  auto emb = n2v::Node2VecEmbedding::TrainStatic(&database, cfg);
  ASSERT_TRUE(emb.ok()) << emb.status();
  n2v::Node2VecEmbedding embedding = std::move(emb).value();

  const std::string dir = FreshDir("serving_n2v");
  auto created = store::EmbeddingStore::Create(
      dir, n2v::kNode2VecMethodTag, n2v::SnapshotVectors(embedding));
  ASSERT_TRUE(created.ok()) << created.status();
  store::EmbeddingStore store = std::move(created).value();
  embedding.set_extension_sink(store.MakeSink());

  auto session_result = api::ServingSession::Open(dir);
  ASSERT_TRUE(session_result.ok()) << session_result.status();
  api::ServingSession session = std::move(session_result).value();
  EXPECT_EQ(session.dim(), embedding.dim());
  const std::vector<db::FactId> trained = embedding.EmbeddedFacts();
  EXPECT_EQ(session.num_embedded(), trained.size());
  for (db::FactId f : trained) {
    ExpectSameBits(session.Embed(f).value(), embedding.Embed(f).value());
  }

  // Extend: the new fact's final vector goes through the sink into the
  // WAL; a Poll() catches the reader up, bit-identically.
  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(embedding.ExtendToFacts({c4}).ok());
  ASSERT_TRUE(store.Sync().ok());
  EXPECT_EQ(session.Embed(c4).status().code(), StatusCode::kNotFound);
  auto polled = session.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status();
  EXPECT_EQ(polled.value(), 1u);
  ExpectSameBits(session.Embed(c4).value(), embedding.Embed(c4).value());

  // Batch read across snapshot residents + the tailed extension.
  std::vector<db::FactId> all = embedding.EmbeddedFacts();
  la::Matrix served(all.size(), session.dim());
  ASSERT_TRUE(session.EmbedBatch(all, served).ok());
  la::Matrix live(all.size(), embedding.dim());
  ASSERT_TRUE(embedding.EmbedBatch(all, live).ok());
  EXPECT_EQ(served.data(), live.data());

  // And the writer-side compaction folds through the Node2Vec codec with
  // the session transparently reopening.
  ASSERT_TRUE(store.Compact().ok());
  ASSERT_TRUE(session.Poll().ok());
  EXPECT_TRUE(session.reopened());
  ExpectSameBits(session.Embed(c4).value(), embedding.Embed(c4).value());
}

// ---- Serving-side scoring (φᵀψφ off the mapping) -----------------------

using Ranking = std::vector<api::ServingSession::Scored>;

/// ψᵀx through la::LeftProject — the projection every scorer shares.
la::Vector Project(Span<const double> x, const la::Matrix& psi) {
  la::Vector u(psi.cols());
  la::LeftProject(x.data(), psi.data().data(), psi.rows(), psi.cols(),
                  u.data());
  return u;
}

/// A FoRWaRD model over the movie schema (walks of length 1: two targets)
/// with `n` facts (ids 3i + 1), Gaussian φ and one Gaussian — not
/// symmetric — ψ per target, all drawn from `seed`. A non-symmetric ψ
/// tells ψᵀφ from ψφ.
fwd::ForwardModel SyntheticModel(size_t n, size_t dim, uint64_t seed) {
  const std::shared_ptr<const db::Schema> movies = testing::MovieSchema();
  const db::Schema& schema = *movies;
  const db::RelationId actors = schema.RelationIndex("ACTORS");
  auto schemes = fwd::EnumerateWalkSchemes(schema, actors, 1);
  auto targets = fwd::BuildTargets(schema, schemes, {});
  fwd::ForwardModel model(actors, dim, std::move(schemes),
                          std::move(targets));
  Rng rng(seed);
  for (size_t t = 0; t < model.targets().size(); ++t) {
    *model.mutable_psi(t) = la::Matrix::RandomGaussian(dim, dim, 1.0, rng);
  }
  for (size_t i = 0; i < n; ++i) {
    model.set_phi(static_cast<db::FactId>(3 * i + 1),
                  la::RandomVector(dim, 1.0, rng));
  }
  return model;
}

TEST(ServingScoreTest, ScoreIsBitEqualToTrainerKernel) {
  // The /topk acceptance bar: the serving-side scorer reads ψ straight
  // off the mmap'd snapshot and must produce the exact double the trainer
  // computes in memory — same LeftProject-then-Dot formula, same
  // operation order, same bytes, so equality is ==, not near.
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_score");
  ASSERT_TRUE(fwd::CreateForwardStore(dir, model).ok());
  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const api::ServingSession& session = opened.value();
  ASSERT_EQ(session.num_psi(), model.targets().size());

  std::vector<db::FactId> facts;
  for (const auto& [f, v] : model.all_phi()) facts.push_back(f);
  std::sort(facts.begin(), facts.end());
  ASSERT_GE(facts.size(), 2u);
  for (size_t t = 0; t < model.targets().size(); ++t) {
    for (size_t i = 0; i + 1 < facts.size(); i += 2) {
      auto served = session.Score(facts[i], facts[i + 1], t);
      ASSERT_TRUE(served.ok()) << served.status();
      EXPECT_EQ(served.value(), model.Score(facts[i], facts[i + 1], t))
          << "target " << t << " pair " << facts[i] << "," << facts[i + 1];
    }
  }
}

TEST(ServingScoreTest, ScoreCoversWalResidentFacts) {
  // A fact that only lives in the journal tail scores against snapshot
  // residents — the overlay feeds the same projection and dot as the
  // mapping.
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_score_wal");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  const la::Vector phi = TestVector(model.dim(), 4);
  ASSERT_TRUE(store.Append(7777, phi).ok());
  ASSERT_TRUE(store.Sync().ok());

  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok());
  const db::FactId resident = model.all_phi().begin()->first;
  auto served = opened.value().Score(7777, resident, 0);
  ASSERT_TRUE(served.ok()) << served.status();
  // Trainer-side reference: the identical operations on the same inputs.
  EXPECT_EQ(served.value(),
            la::Dot(Project(phi, model.psi(0)), model.phi(resident)));
}

TEST(ServingScoreTest, TopKMatchesBruteForceAndBreaksTiesByFactId) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_topk");
  ASSERT_TRUE(fwd::CreateForwardStore(dir, model).ok());
  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok());
  const api::ServingSession& session = opened.value();

  std::vector<db::FactId> facts = session.ServedFacts();
  const db::FactId query = facts.front();
  const size_t k = 5;
  auto top = session.TopK(query, k, 0);
  ASSERT_TRUE(top.ok()) << top.status();
  ASSERT_EQ(top.value().size(), std::min(k, facts.size()));

  // Reference ranking from the trainer-side kernel.
  std::vector<api::ServingSession::Scored> expected;
  for (db::FactId g : facts) {
    expected.push_back({g, model.Score(query, g, 0)});
  }
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.fact < b.fact;
            });
  for (size_t i = 0; i < top.value().size(); ++i) {
    EXPECT_EQ(top.value()[i].fact, expected[i].fact) << "rank " << i;
    EXPECT_EQ(top.value()[i].score, expected[i].score) << "rank " << i;
  }

  // k larger than the store: everything, still sorted.
  auto all = session.TopK(query, facts.size() + 100, 0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), facts.size());
}

/// TopK over every served fact, for each target, against the brute-force
/// ranking of Embed(g) under the same formula: each fact exactly once,
/// same order, same doubles; k = 0 and a k-prefix cut the same list.
void ExpectTopKMatchesBruteForce(const api::ServingSession& session,
                                 const fwd::ForwardModel& model,
                                 db::FactId query) {
  const std::vector<db::FactId> served = session.ServedFacts();
  for (size_t t = 0; t < model.targets().size(); ++t) {
    SCOPED_TRACE("query " + std::to_string(query) + " target " +
                 std::to_string(t));
    const la::Vector u = Project(session.Embed(query).value(), model.psi(t));
    Ranking expected;
    for (db::FactId g : served) {
      const Span<const double> v = session.Embed(g).value();
      expected.push_back({g, la::Dot(u.data(), v.data(), u.size())});
    }
    std::sort(expected.begin(), expected.end(),
              ml::HitBetter<api::ServingSession::Scored>());
    auto all = session.TopK(query, served.size() + 3, t);
    ASSERT_TRUE(all.ok()) << all.status();
    ASSERT_EQ(all.value().size(), served.size());
    std::vector<db::FactId> ranked;
    for (const auto& hit : all.value()) ranked.push_back(hit.fact);
    std::sort(ranked.begin(), ranked.end());
    EXPECT_EQ(ranked, served) << "every served fact ranked exactly once";
    for (size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(all.value()[r].fact, expected[r].fact) << "rank " << r;
      EXPECT_EQ(all.value()[r].score, expected[r].score) << "rank " << r;
    }
    auto top = session.TopK(query, 3, t);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top.value().size(), std::min<size_t>(3, served.size()));
    for (size_t r = 0; r < top.value().size(); ++r) {
      EXPECT_EQ(top.value()[r].fact, expected[r].fact) << "rank " << r;
    }
    auto none = session.TopK(query, 0, t);
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(none.value().empty());
  }
}

TEST(ServingScoreTest, TopKCoversTheJournalOverlay) {
  // The scan reads snapshot rows in place and then the journal overlay.
  // A journal-only fact must be ranked, and a journal record that
  // overwrites a snapshot-resident fact must replace that row — ranked
  // once, with its journal vector — at Open, after Poll, and after a
  // Compact reopen folds both into the snapshot.
  fwd::ForwardModel model = TrainSmall();
  const size_t dim = model.dim();
  const std::string dir = FreshDir("serving_topk_wal");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  const std::vector<db::FactId> residents = model.SortedFacts();
  ASSERT_GE(residents.size(), 3u);
  const db::FactId overwritten = residents[1];
  const la::Vector rewrite = TestVector(dim, -3);
  ASSERT_TRUE(store.Append(7777, TestVector(dim, 4)).ok());
  ASSERT_TRUE(store.Append(overwritten, rewrite).ok());
  ASSERT_TRUE(store.Sync().ok());

  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  api::ServingSession session = std::move(opened).value();
  ASSERT_EQ(session.wal_records(), 2u);

  const auto check = [&](const std::string& stage) {
    SCOPED_TRACE(stage);
    for (db::FactId query : {residents[0], db::FactId{7777}, overwritten}) {
      ExpectTopKMatchesBruteForce(session, model, query);
    }
    const la::Vector u =
        Project(session.Embed(residents[0]).value(), model.psi(0));
    auto all = session.TopK(residents[0], session.num_embedded(), 0);
    ASSERT_TRUE(all.ok());
    const auto hit =
        std::find_if(all.value().begin(), all.value().end(),
                     [&](const auto& h) { return h.fact == overwritten; });
    ASSERT_NE(hit, all.value().end());
    EXPECT_EQ(hit->score, la::Dot(u, rewrite))
        << "the overwritten fact is scored with its journal vector";
  };
  check("open");

  // One more record of each kind, tailed by Poll.
  ASSERT_TRUE(store.Append(7778, TestVector(dim, 5)).ok());
  ASSERT_TRUE(store.Append(residents[2], TestVector(dim, -6)).ok());
  ASSERT_TRUE(store.Sync().ok());
  auto polled = session.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status();
  EXPECT_EQ(polled.value(), 2u);
  check("poll");

  ASSERT_TRUE(store.Compact().ok());
  ASSERT_TRUE(session.Poll().ok());
  ASSERT_TRUE(session.reopened());
  EXPECT_EQ(session.wal_records(), 0u);
  check("compact");
}

TEST(ServingScoreTest, TopKIsBitIdenticalAcrossSimdPaths) {
  // The projection is Axpy chains and each candidate one Dot, both fixed
  // operation orders in la::kernels: every path ranks the same facts
  // with the same doubles. d = 32 runs full 16-element blocks; the
  // journal rows run through the overlay branch of the scan.
  fwd::ForwardModel model = SyntheticModel(300, 32, 0x70C);
  const std::string dir = FreshDir("serving_topk_simd");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  ASSERT_TRUE(store.Append(9001, TestVector(32, 7)).ok());
  ASSERT_TRUE(store.Append(4, TestVector(32, -2)).ok());  // shadows fact 4
  ASSERT_TRUE(store.Sync().ok());
  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const api::ServingSession& session = opened.value();
  const std::vector<db::FactId> served = session.ServedFacts();

  testing::SimdPathGuard guard;
  std::vector<la::SimdPath> paths = {la::SimdPath::kScalar};
  if (testing::HasAvx2()) paths.push_back(la::SimdPath::kAvx2);
  std::vector<std::vector<Ranking>> per_path;
  for (la::SimdPath path : paths) {
    la::internal::ForceSimdPathForTest(path);
    std::vector<Ranking> lists;
    for (size_t q = 0; q < served.size(); q += 15) {
      for (size_t t = 0; t < session.num_psi(); ++t) {
        auto top = session.TopK(served[q], 10, t);
        ASSERT_TRUE(top.ok()) << top.status();
        lists.push_back(std::move(top).value());
      }
    }
    per_path.push_back(std::move(lists));
  }
  for (size_t p = 1; p < per_path.size(); ++p) {
    ASSERT_EQ(per_path[p].size(), per_path[0].size());
    for (size_t l = 0; l < per_path[0].size(); ++l) {
      const Ranking& a = per_path[0][l];
      const Ranking& b = per_path[p][l];
      ASSERT_EQ(a.size(), b.size());
      for (size_t r = 0; r < a.size(); ++r) {
        EXPECT_EQ(a[r].fact, b[r].fact) << "list " << l << " rank " << r;
        EXPECT_EQ(std::memcmp(&a[r].score, &b[r].score, sizeof(double)), 0)
            << la::SimdPathName(paths[p]) << " list " << l << " rank " << r;
      }
    }
  }
}

TEST(ServingScoreTest, TopKStaysWithinRoundingOfTheBilinearForm) {
  // TopK sums φ(q)ᵀψφ(g) as Σⱼ (Σᵢ φ(q)ᵢψᵢⱼ) φ(g)ⱼ, where
  // ReferenceBilinearForm sums Σᵢ φ(q)ᵢ (Σⱼ ψᵢⱼφ(g)ⱼ): the same value,
  // associated differently.
  // Every term passes through at most 2d roundings either way, so each
  // result lies within γ(2d)·S ≈ 2d·u·S of the exact value, with
  // S = Σᵢⱼ|φ(q)ᵢψᵢⱼφ(g)ⱼ| and u = DBL_EPSILON / 2 the unit roundoff.
  // The two scores thus differ by at most 2d·DBL_EPSILON·S; the test
  // allows τ = 4d·DBL_EPSILON·S. Each rank of a sorted list moves by at
  // most the largest score change, so where the two rankings hold
  // different facts at a rank, their old scores lie within twice that
  // change, i.e. within the list's largest τ.
  struct Case {
    std::string name;
    fwd::ForwardModel model;
    size_t journal_facts;  ///< random-φ facts appended to the journal
  };
  // TrainSmall's store holds 5 facts: 20 journal facts give it 20+
  // queries and run the overlay half of the scan.
  std::vector<Case> cases;
  cases.push_back({"train_small", TrainSmall(), 20});
  cases.push_back(
      {"synthetic_2000x32", SyntheticModel(2000, 32, 0x5EED), 0});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = FreshDir("serving_topk_tau_" + c.name);
    auto created = fwd::CreateForwardStore(dir, c.model);
    ASSERT_TRUE(created.ok());
    Rng rng(0x7A0);
    for (size_t i = 0; i < c.journal_facts; ++i) {
      ASSERT_TRUE(created.value()
                      .Append(static_cast<db::FactId>(50000 + i),
                              la::RandomVector(c.model.dim(), 1.0, rng))
                      .ok());
    }
    ASSERT_TRUE(created.value().Sync().ok());
    auto opened = api::ServingSession::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status();
    const api::ServingSession& session = opened.value();
    const std::vector<db::FactId> served = session.ServedFacts();
    const size_t n = served.size(), dim = session.dim();
    // 20+ queries spread over the store.
    const size_t stride = std::max<size_t>(1, n / 24);
    std::vector<db::FactId> queries;
    for (size_t q = 0; q < n; q += stride) queries.push_back(served[q]);
    ASSERT_GE(queries.size(), 20u);
    const auto index_of = [&](db::FactId g) {
      return static_cast<size_t>(
          std::lower_bound(served.begin(), served.end(), g) -
          served.begin());
    };
    size_t moved = 0;
    for (size_t t = 0; t < session.num_psi(); ++t) {
      const la::Matrix& psi = c.model.psi(t);
      for (db::FactId q : queries) {
        SCOPED_TRACE("query " + std::to_string(q) + " target " +
                     std::to_string(t));
        const Span<const double> x = session.Embed(q).value();
        // w = |ψ|ᵀ|x|, so that S(q, g) = Σⱼ wⱼ|φ(g)ⱼ|.
        la::Vector w(dim, 0.0);
        for (size_t i = 0; i < dim; ++i) {
          for (size_t j = 0; j < dim; ++j) {
            w[j] += std::fabs(x[i]) * std::fabs(psi(i, j));
          }
        }
        std::vector<double> old_score(n), tau(n);
        Ranking old_list(n);
        double tau_max = 0.0;
        for (size_t g = 0; g < n; ++g) {
          const Span<const double> y = session.Embed(served[g]).value();
          old_score[g] = ReferenceBilinearForm(x.data(), psi.data().data(),
                                               y.data(), dim, dim);
          double abs_sum = 0.0;
          for (size_t j = 0; j < dim; ++j) abs_sum += w[j] * std::fabs(y[j]);
          tau[g] = 4.0 * static_cast<double>(dim) * DBL_EPSILON * abs_sum;
          tau_max = std::max(tau_max, tau[g]);
          old_list[g] = {served[g], old_score[g]};
        }
        std::sort(old_list.begin(), old_list.end(),
                  ml::HitBetter<api::ServingSession::Scored>());
        auto fresh = session.TopK(q, n, t);
        ASSERT_TRUE(fresh.ok()) << fresh.status();
        const Ranking& new_list = fresh.value();
        ASSERT_EQ(new_list.size(), n);
        for (size_t r = 0; r < n; ++r) {
          const size_t g = index_of(new_list[r].fact);
          ASSERT_LT(g, n);
          EXPECT_LE(std::fabs(new_list[r].score - old_score[g]), tau[g])
              << "fact " << served[g];
          if (new_list[r].fact != old_list[r].fact) {
            EXPECT_LE(std::fabs(old_score[g] - old_list[r].score), tau_max)
                << "rank " << r;
          }
          moved += new_list[r].score != old_score[g];
        }
      }
    }
    // The bound is exercised, not vacuous: some scores did move.
    EXPECT_GT(moved, 0u);
  }
}

TEST(ServingScoreTest, ScoreErrorCases) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_score_errors");
  ASSERT_TRUE(fwd::CreateForwardStore(dir, model).ok());
  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok());
  const db::FactId f = model.all_phi().begin()->first;
  EXPECT_EQ(opened.value().Score(f, 999999, 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      opened.value().Score(f, f, model.targets().size()).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(opened.value().TopK(999999, 3, 0).status().code(),
            StatusCode::kNotFound);
}

TEST(ServingScoreTest, MethodsWithoutPsiFailPrecondition) {
  // Node2Vec persists no ψ sections; scoring must say so, not crash.
  const size_t dim = 6;
  auto vectors = std::make_unique<store::VectorSetModel>(dim, -1);
  for (int i = 0; i < 4; ++i) vectors->set_phi(10 + i, TestVector(dim, i));
  const std::string dir = FreshDir("serving_score_n2v");
  ASSERT_TRUE(
      store::EmbeddingStore::Create(dir, n2v::kNode2VecMethodTag,
                                    std::move(vectors))
          .ok());
  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().num_psi(), 0u);
  EXPECT_EQ(opened.value().Score(10, 11, 0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(opened.value().TopK(10, 3, 0).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---- Writer/reader stress ----------------------------------------------

TEST(ServingStressTest, ConcurrentWriterAndPollingReaderLoseNothing) {
  // One thread appends (and periodically compacts) while another Polls and
  // reads. The two processes share only the store directory — exactly the
  // deployment the serve layer runs. The reader must never see a torn or
  // wrong vector, and after the writer finishes, one final Poll must serve
  // every appended fact bit-exactly.
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_stress");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  const size_t dim = model.dim();
  constexpr int kFacts = 200;
  constexpr db::FactId kBase = 50000;

  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok());
  api::ServingSession session = std::move(opened).value();

  std::atomic<bool> writer_done{false};
  std::atomic<int> write_failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kFacts; ++i) {
      if (!store.Append(kBase + i, TestVector(dim, i)).ok() ||
          !store.Sync().ok()) {
        write_failures.fetch_add(1);
        break;
      }
      if (i % 64 == 63 && !store.Compact().ok()) {
        write_failures.fetch_add(1);
        break;
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Reader: Poll and verify whatever is visible so far. Every served
  // vector must already be bit-correct — a fact is either absent or
  // exactly right, never torn.
  int verified = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    auto polled = session.Poll();
    ASSERT_TRUE(polled.ok()) << polled.status();
    for (int i = 0; i < kFacts; ++i) {
      auto v = session.Embed(kBase + i);
      if (!v.ok()) {
        EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
        continue;
      }
      ExpectSameBits(v.value(), TestVector(dim, i));
      ++verified;
    }
  }
  writer.join();
  ASSERT_EQ(write_failures.load(), 0);

  // Catch-up: after the writer is done, every fact is served bit-exactly.
  // (Two Polls: the first may consume a pre-compaction tail + reopen.)
  ASSERT_TRUE(session.Poll().ok());
  ASSERT_TRUE(session.Poll().ok());
  EXPECT_EQ(session.num_embedded(), model.num_embedded() + kFacts);
  for (int i = 0; i < kFacts; ++i) {
    ExpectSameBits(session.Embed(kBase + i).value(), TestVector(dim, i));
  }
  // The loop did real interleaved verification, not just the epilogue.
  EXPECT_GT(verified, 0);
}

}  // namespace
}  // namespace stedb

// The durability layer: snapshot round-trips, WAL replay, torn-write
// recovery, compaction crash-windows, and the extension-sink wiring into
// both embedding methods.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "src/ann/hnsw.h"
#include "src/common/rng.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"
#include "src/n2v/codec.h"
#include "src/n2v/node2vec.h"
#include "src/obs/metrics.h"
#include "src/store/embedding_store.h"
#include "src/store/model_codec.h"
#include "src/store/format.h"
#include "src/store/wal.h"
#include "tests/test_util.h"

namespace stedb::store {
namespace {

using fwd::ModelMaxAbsDiff;
using stedb::testing::InsertC4;
using stedb::testing::MovieDatabase;

fwd::ForwardModel TrainSmall() {
  static db::Database database = stedb::testing::MovieDatabase();
  auto kernels = fwd::KernelRegistry::Defaults(database);
  fwd::ForwardConfig cfg;
  cfg.dim = 6;
  cfg.max_walk_len = 2;
  cfg.nsamples = 8;
  cfg.epochs = 3;
  cfg.seed = 9;
  fwd::ForwardTrainer trainer(&database, &kernels, cfg);
  return std::move(trainer.Train(database.schema().RelationIndex("ACTORS"), {}))
      .value();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

size_t FileSize(const std::string& path) {
  return static_cast<size_t>(std::filesystem::file_size(path));
}

void TruncateFile(const std::string& path, size_t new_size) {
  std::filesystem::resize_file(path, new_size);
}

la::Vector TestVector(size_t dim, int tag) {
  la::Vector v(dim);
  for (size_t i = 0; i < dim; ++i) {
    v[i] = 0.125 * static_cast<double>(tag) + static_cast<double>(i) / 7.0;
  }
  return v;
}

// ---- Snapshot ----------------------------------------------------------

TEST(SnapshotTest, RoundTripIsBitExact) {
  fwd::ForwardModel model = TrainSmall();
  const std::string bytes = fwd::EncodeForwardSnapshot(model);
  auto parsed = fwd::DecodeForwardSnapshot(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(ModelMaxAbsDiff(parsed.value(), model), 0.0);
}

TEST(SnapshotTest, BytesAreDeterministic) {
  fwd::ForwardModel model = TrainSmall();
  // φ lives in an unordered_map; the sorted PHI section must still make
  // byte-identical snapshots out of equal models.
  auto reparsed = fwd::DecodeForwardSnapshot(fwd::EncodeForwardSnapshot(model));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(fwd::EncodeForwardSnapshot(model),
            fwd::EncodeForwardSnapshot(reparsed.value()));
}

TEST(SnapshotTest, FileRoundTripAndAtomicReplace) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("snap_file");
  const std::string path = dir + "/model.snap";
  const std::string bytes = fwd::EncodeForwardSnapshot(model);
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());  // replace in place
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::string read;
  ASSERT_TRUE(ReadFileToString(path, &read).ok());
  auto loaded = fwd::DecodeForwardSnapshot(read);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(ModelMaxAbsDiff(loaded.value(), model), 0.0);
}

TEST(SnapshotTest, DetectsCorruptionEverywhere) {
  fwd::ForwardModel model = TrainSmall();
  const std::string good = fwd::EncodeForwardSnapshot(model);
  ASSERT_TRUE(fwd::DecodeForwardSnapshot(good).ok());

  // A flip of any single byte must be rejected (header checks or section
  // CRC) or — only for bytes in the zero padding — parse to the same
  // model. Never a crash, never silent corruption.
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    auto parsed = fwd::DecodeForwardSnapshot(bad);
    if (parsed.ok()) {
      EXPECT_EQ(ModelMaxAbsDiff(parsed.value(), model), 0.0)
          << "undetected corruption at byte " << i;
    }
  }
}

TEST(SnapshotTest, RejectsTruncation) {
  const std::string good = fwd::EncodeForwardSnapshot(TrainSmall());
  for (size_t cut : {size_t{0}, size_t{4}, size_t{15}, size_t{17},
                     good.size() / 2, good.size() - 1}) {
    EXPECT_FALSE(fwd::DecodeForwardSnapshot(good.substr(0, cut)).ok())
        << "accepted a snapshot cut to " << cut << " bytes";
  }
}

TEST(SnapshotTest, RejectsTrailingGarbage) {
  std::string bytes = fwd::EncodeForwardSnapshot(TrainSmall());
  bytes += "excess bytes";
  EXPECT_FALSE(fwd::DecodeForwardSnapshot(bytes).ok());
}

// ---- Recovery diff -----------------------------------------------------
//
// The experiments report these diffs as `journal_drift` and require it to
// be exactly 0, so a diff that answered 0 for unequal models would gate
// nothing. Pin every branch: 0 only for equal bits, the exact deviation
// otherwise, +inf for NaN-valued differences and structural mismatches.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// ModelMaxAbsDiff(x, y) through all three overloads, which must agree.
double ForwardDiff(const fwd::ForwardModel& x, const fwd::ForwardModel& y) {
  const double d = ModelMaxAbsDiff(x, y);
  const fwd::ForwardStoredModel sx(x), sy(y);
  EXPECT_EQ(ModelMaxAbsDiff(sx, y), d);
  EXPECT_EQ(ModelMaxAbsDiff(sx, sy), d);
  return d;
}

/// `model` under other schemes and equally many other targets, with the
/// same φ and ψ.
fwd::ForwardModel Reshaped(const fwd::ForwardModel& model,
                           std::vector<fwd::WalkScheme> schemes,
                           std::vector<fwd::SchemeTarget> targets) {
  fwd::ForwardModel out(model.relation(), model.dim(), std::move(schemes),
                        std::move(targets));
  for (const auto& [f, v] : model.all_phi()) out.set_phi(f, v);
  for (size_t t = 0; t < model.targets().size(); ++t) {
    *out.mutable_psi(t) = model.psi(t);
  }
  return out;
}

TEST(RecoveryDiffTest, ForwardDiffIsExactAndGuardsNaNAndStructure) {
  fwd::ForwardModel a = TrainSmall();
  ASSERT_FALSE(a.targets().empty());
  const db::FactId f = a.SortedFacts().front();
  (*a.mutable_phi(f))[0] = kNaN;
  (*a.mutable_phi(f))[1] = 0.5;
  EXPECT_EQ(ForwardDiff(a, a), 0.0);  // a NaN with equal bits is equal
  EXPECT_EQ(ForwardDiff(a, Reshaped(a, a.schemes(), a.targets())), 0.0);

  fwd::ForwardModel b = a;
  (*b.mutable_phi(f))[1] = 0.75;
  EXPECT_EQ(ForwardDiff(a, b), 0.25);
  EXPECT_EQ(ForwardDiff(b, a), 0.25);
  (*b.mutable_phi(f))[1] = kNaN;
  EXPECT_EQ(ForwardDiff(a, b), kInf);
  b = a;
  b.mutable_psi(0)->data()[0] = kNaN;
  EXPECT_EQ(ForwardDiff(a, b), kInf);

  // Equal fact counts over different fact sets, then one fact more.
  fwd::ForwardModel with_x = a, with_y = a;
  with_x.set_phi(900001, a.phi(f));
  with_y.set_phi(900002, a.phi(f));
  EXPECT_EQ(ForwardDiff(with_x, with_y), kInf);
  EXPECT_EQ(ForwardDiff(a, with_x), kInf);

  EXPECT_EQ(ForwardDiff(a, fwd::ForwardModel(a.relation(), a.dim() + 1,
                                             a.schemes(), a.targets())),
            kInf);
  std::vector<fwd::WalkScheme> schemes = a.schemes();
  schemes.push_back(schemes.front());
  EXPECT_EQ(ForwardDiff(a, Reshaped(a, schemes, a.targets())), kInf);
  std::vector<fwd::SchemeTarget> targets = a.targets();
  targets.front().attr += 1;
  EXPECT_EQ(ForwardDiff(a, Reshaped(a, a.schemes(), targets)), kInf);

  // A Node2Vec-style model on a FoRWaRD overload.
  VectorSetModel vectors(a.dim(), a.relation());
  for (const auto& [g, v] : a.all_phi()) vectors.set_phi(g, v);
  const fwd::ForwardStoredModel stored(a);
  EXPECT_EQ(ModelMaxAbsDiff(vectors, a), kInf);
  EXPECT_EQ(ModelMaxAbsDiff(vectors, stored), kInf);
  EXPECT_EQ(ModelMaxAbsDiff(stored, vectors), kInf);
}

TEST(RecoveryDiffTest, StoredDiffIsExactAndGuardsNaNAndStructure) {
  // Facts 10..14 plus `last`, whose φ is (NaN, x1, ...).
  const auto make = [](size_t dim, db::RelationId relation, db::FactId last,
                       double x1) {
    VectorSetModel m(dim, relation);
    for (int i = 0; i < 5; ++i) m.set_phi(10 + i, TestVector(dim, i));
    la::Vector v = TestVector(dim, 9);
    v[0] = kNaN;
    v[1] = x1;
    m.set_phi(last, v);
    return m;
  };
  const VectorSetModel a = make(4, 3, 20, 0.5);
  EXPECT_EQ(StoredModelMaxAbsDiff(a, a), 0.0);
  EXPECT_EQ(StoredModelMaxAbsDiff(a, make(4, 3, 20, 0.75)), 0.25);
  EXPECT_EQ(StoredModelMaxAbsDiff(make(4, 3, 20, 0.75), a), 0.25);
  EXPECT_EQ(StoredModelMaxAbsDiff(a, make(4, 3, 20, kNaN)), kInf);
  EXPECT_EQ(StoredModelMaxAbsDiff(a, make(4, 3, 21, 0.5)), kInf);
  EXPECT_EQ(StoredModelMaxAbsDiff(a, make(5, 3, 20, 0.5)), kInf);
  EXPECT_EQ(StoredModelMaxAbsDiff(a, make(4, 4, 20, 0.5)), kInf);
}

// ---- WAL ---------------------------------------------------------------

TEST(WalTest, AppendReplayRoundTrip) {
  const std::string dir = FreshDir("wal_roundtrip");
  const std::string path = dir + "/extend.wal";
  const size_t dim = 5;
  {
    auto writer = WalWriter::Open(path, dim);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(writer.value().Append(100 + i, TestVector(dim, i)).ok());
    }
    ASSERT_TRUE(writer.value().Close().ok());
  }
  auto replay = ReplayWal(path, static_cast<int>(dim));
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_FALSE(replay.value().torn_tail);
  ASSERT_EQ(replay.value().records.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(replay.value().records[i].fact, 100 + i);
    EXPECT_EQ(replay.value().records[i].phi, TestVector(dim, i));
  }
  EXPECT_EQ(replay.value().valid_bytes, FileSize(path));
}

TEST(WalTest, ReopenAppends) {
  const std::string dir = FreshDir("wal_reopen");
  const std::string path = dir + "/extend.wal";
  const size_t dim = 4;
  for (int round = 0; round < 3; ++round) {
    auto writer = WalWriter::Open(path, dim);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Append(round, TestVector(dim, round)).ok());
  }
  auto replay = ReplayWal(path, static_cast<int>(dim));
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(), 3u);
}

TEST(WalTest, TornTailIsReportedNotFatal) {
  const std::string dir = FreshDir("wal_torn");
  const std::string path = dir + "/extend.wal";
  const size_t dim = 5;
  {
    auto writer = WalWriter::Open(path, dim);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(writer.value().Append(i, TestVector(dim, i)).ok());
    }
    ASSERT_TRUE(writer.value().Close().ok());
  }
  const size_t full = FileSize(path);
  TruncateFile(path, full - 3);  // crash mid-payload of the last record
  auto replay = ReplayWal(path, static_cast<int>(dim));
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay.value().torn_tail);
  EXPECT_EQ(replay.value().records.size(), 3u);
  const size_t record_bytes = 8 + 8 + dim * 8;
  EXPECT_EQ(replay.value().valid_bytes, full - record_bytes);
}

TEST(WalTest, DimensionMismatchWithSnapshotFails) {
  const std::string dir = FreshDir("wal_dim");
  const std::string path = dir + "/extend.wal";
  {
    auto writer = WalWriter::Open(path, 5);
    ASSERT_TRUE(writer.ok());
  }
  EXPECT_FALSE(ReplayWal(path, 9).ok());
  EXPECT_TRUE(ReplayWal(path, -1).ok());  // -1 = accept the header's dim
}

TEST(WalTest, OpenRejectsExistingJournalWithOtherDimension) {
  const std::string dir = FreshDir("wal_open_dim");
  const std::string path = dir + "/extend.wal";
  {
    auto writer = WalWriter::Open(path, 5);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Append(1, TestVector(5, 1)).ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  // Appending dim-6 records into a dim-5 journal would read back as a
  // torn tail and be truncated away; the open must refuse instead.
  EXPECT_EQ(WalWriter::Open(path, 6).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(WalWriter::Open(path, 5).ok());
}

TEST(WalTest, AppendRejectsWrongDimension) {
  const std::string dir = FreshDir("wal_badvec");
  auto writer = WalWriter::Open(dir + "/extend.wal", 5);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(writer.value().Append(1, TestVector(4, 1)).code(),
            StatusCode::kInvalidArgument);
}

// ---- EmbeddingStore ----------------------------------------------------

TEST(EmbeddingStoreTest, CreateOpenRoundTrip) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_roundtrip");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok()) << created.status();
  auto opened = EmbeddingStore::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(ModelMaxAbsDiff(opened.value().model(), model), 0.0);
  EXPECT_EQ(opened.value().wal_records(), 0u);
  EXPECT_FALSE(opened.value().recovered_torn_tail());
}

TEST(EmbeddingStoreTest, OpenMissingDirectoryFails) {
  EXPECT_EQ(EmbeddingStore::Open("/nonexistent/stedb_store").status().code(),
            StatusCode::kIOError);
}

TEST(EmbeddingStoreTest, AppendsRecoverAcrossOpen) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_appends");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  EmbeddingStore st = std::move(created).value();
  const size_t dim = model.dim();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(st.Append(9000 + i, TestVector(dim, i)).ok());
  }
  ASSERT_TRUE(st.Sync().ok());

  auto reopened = EmbeddingStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value().wal_records(), 5u);
  EXPECT_EQ(ModelMaxAbsDiff(reopened.value().model(), st.model()), 0.0);
}

/// The acceptance scenario: N appended extensions, a crash tears the last
/// record in half, and Open() recovers exactly the N-1 durable embeddings
/// bit-identical to the in-memory model as of append N-1.
TEST(EmbeddingStoreTest, TornWriteRecoversDurablePrefix) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_torn");
  const size_t dim = model.dim();
  constexpr int kAppends = 8;

  fwd::ForwardModel expect_after_n_minus_1;
  {
    auto created = fwd::CreateForwardStore(dir, model);
    ASSERT_TRUE(created.ok());
    EmbeddingStore st = std::move(created).value();
    for (int i = 0; i < kAppends - 1; ++i) {
      ASSERT_TRUE(st.Append(9000 + i, TestVector(dim, i)).ok());
    }
    expect_after_n_minus_1 = *fwd::AsForwardModel(st.model());
    ASSERT_TRUE(st.Append(9000 + kAppends - 1,
                          TestVector(dim, kAppends - 1)).ok());
    // No Close(): simulate the process dying with the file as-is.
  }
  const std::string wal = EmbeddingStore::WalPath(dir);
  TruncateFile(wal, FileSize(wal) - 11);  // tear the last record

  auto recovered = EmbeddingStore::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered.value().recovered_torn_tail());
  EXPECT_EQ(recovered.value().wal_records(),
            static_cast<size_t>(kAppends - 1));
  EXPECT_EQ(
      ModelMaxAbsDiff(recovered.value().model(), expect_after_n_minus_1),
      0.0);

  // The tail was truncated away: appends work again and a second Open
  // sees a clean journal.
  {
    auto st = EmbeddingStore::Open(dir);
    ASSERT_TRUE(st.ok());
    EXPECT_FALSE(st.value().recovered_torn_tail());
    ASSERT_TRUE(st.value().Append(9999, TestVector(dim, 42)).ok());
    ASSERT_TRUE(st.value().Close().ok());
  }
  auto final_open = EmbeddingStore::Open(dir);
  ASSERT_TRUE(final_open.ok());
  EXPECT_EQ(final_open.value().wal_records(),
            static_cast<size_t>(kAppends));
}

TEST(EmbeddingStoreTest, GarbageAppendedToJournalIsDropped) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_garbage");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  EmbeddingStore st = std::move(created).value();
  ASSERT_TRUE(st.Append(9000, TestVector(model.dim(), 1)).ok());
  ASSERT_TRUE(st.Close().ok());
  {
    std::ofstream f(EmbeddingStore::WalPath(dir),
                    std::ios::binary | std::ios::app);
    f << "not a record at all";
  }
  auto recovered = EmbeddingStore::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered.value().recovered_torn_tail());
  EXPECT_EQ(recovered.value().wal_records(), 1u);
  EXPECT_EQ(ModelMaxAbsDiff(recovered.value().model(), st.model()), 0.0);
}

TEST(EmbeddingStoreTest, CompactFoldsJournalIntoSnapshot) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_compact");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  EmbeddingStore st = std::move(created).value();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(st.Append(9100 + i, TestVector(model.dim(), i)).ok());
  }
  ASSERT_TRUE(st.Compact().ok());
  EXPECT_EQ(st.wal_records(), 0u);
  // The journal is empty again but the snapshot holds everything.
  auto replay = ReplayWal(EmbeddingStore::WalPath(dir), -1);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().records.empty());
  auto reopened = EmbeddingStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(ModelMaxAbsDiff(reopened.value().model(), st.model()), 0.0);
  // And the store still accepts appends after compaction.
  ASSERT_TRUE(st.Append(9999, TestVector(model.dim(), 9)).ok());
}

TEST(EmbeddingStoreTest, AutoCompactAtThreshold) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_autocompact");
  StoreOptions options;
  options.compact_every = 3;
  auto created = fwd::CreateForwardStore(dir, model, options);
  ASSERT_TRUE(created.ok());
  EmbeddingStore st = std::move(created).value();
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(st.Append(9200 + i, TestVector(model.dim(), i)).ok());
  }
  // 7 appends with compaction every 3: only 7 % 3 = 1 left journaled.
  EXPECT_EQ(st.wal_records(), 1u);
  auto reopened = EmbeddingStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(ModelMaxAbsDiff(reopened.value().model(), st.model()), 0.0);
}

/// Compact()'s crash window: the new snapshot has landed (atomic rename)
/// but the journal was not reset yet. Replaying those records over the
/// new snapshot rewrites identical vectors — recovery is idempotent.
TEST(EmbeddingStoreTest, StaleJournalOverFreshSnapshotIsIdempotent) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_stale_wal");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  EmbeddingStore st = std::move(created).value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(st.Append(9300 + i, TestVector(model.dim(), i)).ok());
  }
  // Simulate the crash: snapshot the journaled state in place, keep the
  // journal file untouched (Compact would have reset it next).
  ASSERT_TRUE(AtomicWriteFile(EmbeddingStore::SnapshotPath(dir),
                              fwd::EncodeForwardSnapshot(
                                  *fwd::AsForwardModel(st.model())))
                  .ok());
  auto recovered = EmbeddingStore::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().wal_records(), 4u);
  EXPECT_EQ(ModelMaxAbsDiff(recovered.value().model(), st.model()), 0.0);
}

TEST(EmbeddingStoreTest, AppendRejectsWrongDimension) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_badvec");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value()
                .Append(1, TestVector(model.dim() + 1, 0))
                .code(),
            StatusCode::kInvalidArgument);
}

// ---- Extension-sink wiring ---------------------------------------------

TEST(SinkTest, ForwardExtensionsAreJournaledAndRecovered) {
  db::Database database = MovieDatabase();
  fwd::ForwardConfig cfg;
  cfg.dim = 8;
  cfg.max_walk_len = 2;
  cfg.nsamples = 12;
  cfg.epochs = 4;
  cfg.new_samples = 16;
  cfg.seed = 33;
  auto emb = fwd::ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {}, cfg);
  ASSERT_TRUE(emb.ok()) << emb.status();
  fwd::ForwardEmbedder embedder = std::move(emb).value();

  const std::string dir = FreshDir("store_fwd_sink");
  auto created = fwd::CreateForwardStore(dir, embedder.model());
  ASSERT_TRUE(created.ok());
  EmbeddingStore st = std::move(created).value();
  embedder.set_extension_sink(st.MakeSink());

  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(embedder.ExtendToFacts({c4}).ok());
  EXPECT_EQ(st.wal_records(), 1u);

  // Kill-and-recover: a cold Open must see the extension bit-exactly.
  ASSERT_TRUE(st.Sync().ok());
  auto recovered = EmbeddingStore::Open(dir);
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(recovered.value().model().HasEmbedding(c4));
  EXPECT_EQ(recovered.value().model().phi(c4), embedder.model().phi(c4));
  EXPECT_EQ(ModelMaxAbsDiff(recovered.value().model(), embedder.model()),
            0.0);
}

TEST(SinkTest, FailingSinkAbortsExtension) {
  db::Database database = MovieDatabase();
  fwd::ForwardConfig cfg;
  cfg.dim = 6;
  cfg.max_walk_len = 2;
  cfg.nsamples = 8;
  cfg.epochs = 3;
  cfg.new_samples = 12;
  cfg.seed = 5;
  auto emb = fwd::ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {}, cfg);
  ASSERT_TRUE(emb.ok());
  fwd::ForwardEmbedder embedder = std::move(emb).value();
  embedder.set_extension_sink([](db::FactId, const la::Vector&) {
    return Status::IOError("disk full");
  });
  db::FactId c4 = InsertC4(database);
  EXPECT_EQ(embedder.ExtendToFacts({c4}).code(), StatusCode::kIOError);
}

TEST(SinkTest, RejectedAppendsAreRetriedNextCall) {
  // A sink failure must not strand an embedded fact outside the journal
  // forever: the fact is already in the model (so a re-extend skips it),
  // and the journal would silently diverge from what the model serves.
  // Rejected appends stay queued and flush on the next ExtendToFacts.
  db::Database database = MovieDatabase();
  fwd::ForwardConfig cfg;
  cfg.dim = 6;
  cfg.max_walk_len = 2;
  cfg.nsamples = 8;
  cfg.epochs = 3;
  cfg.new_samples = 12;
  cfg.seed = 5;
  auto emb = fwd::ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {}, cfg);
  ASSERT_TRUE(emb.ok());
  fwd::ForwardEmbedder embedder = std::move(emb).value();

  std::vector<db::FactId> sunk;
  int failures_left = 1;  // the store recovers after one failed append
  embedder.set_extension_sink(
      [&](db::FactId f, const la::Vector& phi) -> Status {
        (void)phi;
        if (failures_left > 0) {
          --failures_left;
          return Status::IOError("disk full");
        }
        sunk.push_back(f);
        return Status::OK();
      });
  db::FactId c4 = InsertC4(database);
  EXPECT_EQ(embedder.ExtendToFacts({c4}).code(), StatusCode::kIOError);
  EXPECT_TRUE(sunk.empty());
  ASSERT_TRUE(embedder.Embed(c4).ok());  // embedded despite the sink error

  // Next call (even with nothing new) flushes the queued append.
  ASSERT_TRUE(embedder.ExtendToFacts({}).ok());
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(sunk[0], c4);
  // And exactly once: nothing left queued.
  ASSERT_TRUE(embedder.ExtendToFacts({}).ok());
  EXPECT_EQ(sunk.size(), 1u);
}

TEST(SinkTest, Node2VecRejectedAppendsAreRetriedNextCall) {
  // The same retry contract as FoRWaRD, including the empty-batch call as
  // the natural retry after a sink outage.
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

  std::vector<db::FactId> sunk;
  int failures_left = 1;
  embedding.set_extension_sink(
      [&](db::FactId f, const la::Vector& phi) -> Status {
        (void)phi;
        if (failures_left > 0) {
          --failures_left;
          return Status::IOError("disk full");
        }
        sunk.push_back(f);
        return Status::OK();
      });
  db::FactId c4 = InsertC4(database);
  EXPECT_EQ(embedding.ExtendToFacts({c4}).code(), StatusCode::kIOError);
  EXPECT_TRUE(sunk.empty());
  ASSERT_TRUE(embedding.Embed(c4).ok());  // embedded despite the sink error

  ASSERT_TRUE(embedding.ExtendToFacts({}).ok());
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(sunk[0], c4);
  ASSERT_TRUE(embedding.ExtendToFacts({}).ok());
  EXPECT_EQ(sunk.size(), 1u);
}

TEST(SinkTest, Node2VecExtensionsHitTheSink) {
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

  std::vector<db::FactId> sunk;
  embedding.set_extension_sink(
      [&sunk](db::FactId f, const la::Vector& phi) {
        EXPECT_EQ(phi.size(), 8u);
        sunk.push_back(f);
        return Status::OK();
      });
  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(embedding.ExtendToFacts({c4}).ok());
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(sunk[0], c4);
  // The journaled vector is the final (frozen) one.
  EXPECT_EQ(embedding.Embed(c4).value().size(), 8u);
}

// ---- Codecs + method-agnostic store -------------------------------------

TEST(ModelCodecTest, CodecByTagKnowsBothMethods) {
  auto forward = CodecByTag(fwd::kForwardMethodTag);
  ASSERT_TRUE(forward.ok()) << forward.status();
  EXPECT_EQ(forward.value()->method(), "forward");
  auto node2vec = CodecByTag(n2v::kNode2VecMethodTag);
  ASSERT_TRUE(node2vec.ok()) << node2vec.status();
  EXPECT_EQ(node2vec.value()->method(), "node2vec");
  auto unknown = CodecByTag(FourCc('X', 'Y', 'Z', '?'));
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("forward, node2vec"),
            std::string::npos)
      << unknown.status();
}

TEST(ModelCodecTest, SnapshotHeaderCarriesMethodTag) {
  fwd::ForwardModel model = TrainSmall();
  const std::string bytes = fwd::EncodeForwardSnapshot(model);
  auto parsed = ParseSnapshotContainer(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().header.method_tag, fwd::kForwardMethodTag);
  EXPECT_EQ(parsed.value().header.dim, model.dim());
  EXPECT_EQ(parsed.value().header.relation, model.relation());
  ASSERT_NE(parsed.value().Find(kPhiSectionTag), nullptr);
  ASSERT_NE(parsed.value().Find(kPsiSectionTag), nullptr);
}

TEST(ModelCodecTest, VersionSkewIsAClearErrorNotACrcFailure) {
  fwd::ForwardModel model = TrainSmall();
  std::string bytes = fwd::EncodeForwardSnapshot(model);
  // Container version sits at offset 8 (little-endian u32).
  std::string old_version = bytes;
  old_version[8] = 1;
  auto old_parsed = fwd::DecodeForwardSnapshot(old_version);
  ASSERT_FALSE(old_parsed.ok());
  EXPECT_EQ(old_parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(old_parsed.status().message().find("older binary"),
            std::string::npos)
      << old_parsed.status();

  std::string new_version = bytes;
  new_version[8] = 3;
  auto new_parsed = fwd::DecodeForwardSnapshot(new_version);
  ASSERT_FALSE(new_parsed.ok());
  EXPECT_NE(new_parsed.status().message().find("newer binary"),
            std::string::npos)
      << new_parsed.status();
}

TEST(ModelCodecTest, UnknownMethodTagFailsOpenWithClearError) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_unknown_tag");
  ASSERT_TRUE(fwd::CreateForwardStore(dir, model).ok());
  std::string bytes;
  ASSERT_TRUE(
      ReadFileToString(EmbeddingStore::SnapshotPath(dir), &bytes).ok());
  // Method tag sits at offset 12; stamp an unregistered fourcc.
  bytes[12] = 'X';
  bytes[13] = 'Y';
  bytes[14] = 'Z';
  bytes[15] = '?';
  ASSERT_TRUE(
      AtomicWriteFile(EmbeddingStore::SnapshotPath(dir), bytes).ok());
  auto opened = EmbeddingStore::Open(dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
  EXPECT_NE(opened.status().message().find("XYZ?"), std::string::npos)
      << opened.status();
}

TEST(ModelCodecTest, Node2VecStoreRoundTripsThroughOpen) {
  const size_t dim = 7;
  auto model = std::make_unique<VectorSetModel>(dim, /*relation=*/-1);
  for (int i = 0; i < 9; ++i) {
    model->set_phi(40 + 3 * i, TestVector(dim, i));
  }
  const VectorSetModel reference = *model;

  const std::string dir = FreshDir("store_n2v_roundtrip");
  auto created =
      EmbeddingStore::Create(dir, n2v::kNode2VecMethodTag, std::move(model));
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(created.value().method(), "node2vec");
  EmbeddingStore st = std::move(created).value();
  ASSERT_TRUE(st.Append(9001, TestVector(dim, 77)).ok());
  ASSERT_TRUE(st.Sync().ok());

  // Open resolves the codec from the snapshot's method tag alone.
  auto reopened = EmbeddingStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value().method(), "node2vec");
  EXPECT_EQ(reopened.value().wal_records(), 1u);
  EXPECT_EQ(StoredModelMaxAbsDiff(reopened.value().model(), st.model()),
            0.0);
  EXPECT_TRUE(reopened.value().model().HasEmbedding(9001));

  // Compact folds the journal through the codec and stays openable.
  ASSERT_TRUE(st.Compact().ok());
  auto compacted = EmbeddingStore::Open(dir);
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  EXPECT_EQ(compacted.value().wal_records(), 0u);
  EXPECT_EQ(compacted.value().model().num_embedded(),
            reference.num_embedded() + 1);
  EXPECT_EQ(
      StoredModelMaxAbsDiff(compacted.value().model(), st.model()), 0.0);
}

TEST(ModelCodecTest, ForwardSnapshotKeepsFullModelFidelity) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_fwd_fidelity");
  ASSERT_TRUE(fwd::CreateForwardStore(dir, model).ok());
  auto opened = EmbeddingStore::Open(dir);
  ASSERT_TRUE(opened.ok());
  // The generic handle still carries the full typed model (schemes, ψ).
  const fwd::ForwardModel* typed =
      fwd::AsForwardModel(opened.value().model());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(ModelMaxAbsDiff(*typed, model), 0.0);
  // And the generic diff agrees on the φ side.
  EXPECT_EQ(StoredModelMaxAbsDiff(opened.value().model(),
                                  fwd::ForwardStoredModel(model)),
            0.0);
}

// ---- Group commit ------------------------------------------------------

TEST(GroupCommitTest, ByteWindowBatchesFsyncsAtEqualDurability) {
  fwd::ForwardModel model = TrainSmall();
  const size_t dim = model.dim();
  const size_t record_bytes = WalWriter::RecordBytes(dim);
  constexpr int kAppends = 32;

  // Reference: per-record fsync.
  const std::string dir_sync = FreshDir("store_gc_sync");
  StoreOptions per_record;
  per_record.sync_every_append = true;
  auto created = fwd::CreateForwardStore(dir_sync, model, per_record);
  ASSERT_TRUE(created.ok());
  EmbeddingStore sync_store = std::move(created).value();
  for (int i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(sync_store.Append(9000 + i, TestVector(dim, i)).ok());
  }
  ASSERT_TRUE(sync_store.Sync().ok());
  EXPECT_GE(sync_store.fsync_count(), static_cast<uint64_t>(kAppends));

  // Group commit: fsync once per 8 records' worth of bytes.
  const std::string dir_group = FreshDir("store_gc_group");
  StoreOptions grouped = per_record;
  grouped.group_commit_bytes = 8 * record_bytes;
  auto created_group = fwd::CreateForwardStore(dir_group, model, grouped);
  ASSERT_TRUE(created_group.ok());
  EmbeddingStore group_store = std::move(created_group).value();
  for (int i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(group_store.Append(9000 + i, TestVector(dim, i)).ok());
  }
  ASSERT_TRUE(group_store.Sync().ok());
  // ~kAppends/8 window flushes plus the final Sync — far below per-record.
  EXPECT_LE(group_store.fsync_count(), sync_store.fsync_count() / 2);
  EXPECT_GE(group_store.fsync_count(), static_cast<uint64_t>(kAppends) / 8);

  // Equal durability at the batch boundary: both stores recover the
  // identical model.
  auto rec_sync = EmbeddingStore::Open(dir_sync);
  auto rec_group = EmbeddingStore::Open(dir_group);
  ASSERT_TRUE(rec_sync.ok());
  ASSERT_TRUE(rec_group.ok());
  EXPECT_EQ(rec_group.value().wal_records(), rec_sync.value().wal_records());
  EXPECT_EQ(StoredModelMaxAbsDiff(rec_group.value().model(),
                                  rec_sync.value().model()),
            0.0);
}

TEST(GroupCommitTest, TimeWindowForcesLaggingSync) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_gc_time");
  StoreOptions options;
  options.sync_every_append = true;
  options.group_commit_bytes = 1 << 30;  // byte window never triggers
  options.group_commit_usec = 1;         // ...but age always does
  auto created = fwd::CreateForwardStore(dir, model, options);
  ASSERT_TRUE(created.ok());
  EmbeddingStore st = std::move(created).value();
  const uint64_t base = st.fsync_count();
  // The first append opens the window and may already find it expired.
  // If it did not sync, the second append — a millisecond later — finds
  // the window long expired and must. The byte window never triggers,
  // so any sync past the baseline is the time window's.
  ASSERT_TRUE(st.Append(9000, TestVector(model.dim(), 0)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(st.Append(9001, TestVector(model.dim(), 1)).ok());
  EXPECT_GT(st.fsync_count(), base);
}

TEST(GroupCommitTest, KillSafetyIsUnchangedInsideTheWindow) {
  // Records inside an unflushed group-commit window are still kill-safe:
  // they reached the OS on Append, so a reader (or a recovery after a
  // process kill, which keeps the page cache) sees them without any
  // fsync having happened.
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_gc_killsafe");
  StoreOptions options;
  options.sync_every_append = true;
  options.group_commit_bytes = 1 << 30;
  auto created = fwd::CreateForwardStore(dir, model, options);
  ASSERT_TRUE(created.ok());
  EmbeddingStore st = std::move(created).value();
  const uint64_t base = st.fsync_count();
  ASSERT_TRUE(st.Append(9000, TestVector(model.dim(), 5)).ok());
  EXPECT_EQ(st.fsync_count(), base);  // window open, no flush yet
  auto replay = ReplayWal(EmbeddingStore::WalPath(dir), -1);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 1u);
  EXPECT_EQ(replay.value().records[0].fact, 9000);
}

TEST(GroupCommitTest, SyncIfDueFlushesAnIdleWritersTail) {
  // The bug this guards against: the time window is only evaluated inside
  // Append, so a writer that appends once and then goes idle leaves its
  // tail unsynced indefinitely — the group_commit_usec promise silently
  // becomes "until the next Append". SyncIfDue() is the ticker-callable
  // fix: once the oldest pending record has waited out the window, it
  // flushes without any further Append arriving.
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_gc_idle");
  StoreOptions options;
  options.sync_every_append = true;
  options.group_commit_bytes = 1 << 30;  // byte window never triggers
  options.group_commit_usec = 1000;      // 1ms
  auto created = fwd::CreateForwardStore(dir, model, options);
  ASSERT_TRUE(created.ok());
  EmbeddingStore st = std::move(created).value();

  const uint64_t base = st.fsync_count();
  ASSERT_TRUE(st.Append(9000, TestVector(model.dim(), 1)).ok());
  ASSERT_EQ(st.fsync_count(), base);  // inside the window, nothing due yet

  // Wait out the window with NO further Append, then tick. The tail must
  // become durable within the promised deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(st.SyncIfDue().ok());
  EXPECT_GT(st.fsync_count(), base);

  // Idempotent: nothing pending, ticking again is a no-op.
  const uint64_t after = st.fsync_count();
  ASSERT_TRUE(st.SyncIfDue().ok());
  EXPECT_EQ(st.fsync_count(), after);

  // A fresh append re-opens the window; an immediate tick (deadline not
  // reached) must NOT flush early.
  ASSERT_TRUE(st.Append(9001, TestVector(model.dim(), 2)).ok());
  ASSERT_TRUE(st.SyncIfDue().ok());
  EXPECT_EQ(st.fsync_count(), after);
}

TEST(GroupCommitTest, SyncIfDueIsANoOpWithoutGroupCommit) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("store_gc_idle_off");
  auto created = fwd::CreateForwardStore(dir, model);  // defaults: no sync
  ASSERT_TRUE(created.ok());
  EmbeddingStore st = std::move(created).value();
  const uint64_t base = st.fsync_count();
  ASSERT_TRUE(st.Append(9000, TestVector(model.dim(), 1)).ok());
  ASSERT_TRUE(st.SyncIfDue().ok());
  EXPECT_EQ(st.fsync_count(), base);
}

// ---- Atomic writes -----------------------------------------------------

// ---- The ANN index across compactions ------------------------------------

constexpr size_t kIndexDim = 8;

/// A deterministic vector for `fact`: counter-based, so every run and
/// every build sees the same bytes.
la::Vector IndexedVector(db::FactId fact, uint64_t salt = 0) {
  Rng rng = Rng(0x1DE5 + salt).Fork(static_cast<uint64_t>(fact));
  la::Vector v(kIndexDim);
  for (double& x : v) x = rng.NextDouble(-1.0, 1.0);
  return v;
}

/// `n` facts 3, 6, 9, ... with IndexedVector vectors.
std::unique_ptr<VectorSetModel> IndexedModel(size_t n) {
  auto model = std::make_unique<VectorSetModel>(kIndexDim, -1);
  for (size_t i = 1; i <= n; ++i) {
    const auto fact = static_cast<db::FactId>(3 * i);
    model->set_phi(fact, IndexedVector(fact));
  }
  return model;
}

StoreOptions IndexedOptions() {
  StoreOptions options;
  options.build_ann_index = true;
  return options;
}

/// A snapshot file's index payload with the facts and vectors of its PHI
/// records, in record order.
struct SnapshotIndex {
  std::string ann;  ///< empty when the file has no 'ANN ' section
  std::vector<db::FactId> facts;
  std::vector<double> rows;
};

SnapshotIndex ReadIndex(const std::string& dir) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(EmbeddingStore::SnapshotPath(dir), &bytes).ok());
  auto parsed = ParseSnapshotContainer(bytes.data(), bytes.size());
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  SnapshotIndex index;
  if (!parsed.ok()) return index;
  if (const SnapshotSection* ann = parsed.value().Find(kAnnSectionTag)) {
    index.ann.assign(ann->data, ann->size);
  }
  VectorSetModel phi(kIndexDim, -1);
  EXPECT_TRUE(DecodePhiPayload(*parsed.value().Find(kPhiSectionTag),
                               kIndexDim, &phi)
                  .ok());
  phi.ForEachPhi([&index](db::FactId f, const la::Vector& v) {
    index.facts.push_back(f);
    index.rows.insert(index.rows.end(), v.begin(), v.end());
  });
  return index;
}

/// The index BuildHnsw gives over `now`'s records: extending `before`'s
/// index, or from scratch when `before` is null.
std::string BuildIndex(const SnapshotIndex& now, const SnapshotIndex* before,
                       const ann::HnswConfig& config) {
  std::vector<uint64_t> words;
  ann::HnswBase base;
  if (before != nullptr) {
    words.resize((before->ann.size() + 7) / 8);
    std::memcpy(words.data(), before->ann.data(), before->ann.size());
    auto view = ann::HnswView::Open(reinterpret_cast<const char*>(words.data()),
                                    before->ann.size(), before->facts.size(),
                                    kIndexDim);
    EXPECT_TRUE(view.ok()) << view.status();
    if (!view.ok()) return "";
    base = ann::HnswBase{view.value(), before->facts};
  }
  auto payload = ann::BuildHnsw(
      config, now.facts, ann::VectorSource::Dense(now.rows.data(), kIndexDim),
      kIndexDim, before != nullptr ? &base : nullptr);
  EXPECT_TRUE(payload.ok()) << payload.status();
  return payload.ok() ? payload.value() : "";
}

/// Creates an indexed store of `n` facts in a fresh `name` directory.
EmbeddingStore CreateIndexedStore(const std::string& name, size_t n,
                                  StoreOptions options = IndexedOptions()) {
  auto created = EmbeddingStore::Create(FreshDir(name), n2v::kNode2VecMethodTag,
                                        IndexedModel(n), options);
  EXPECT_TRUE(created.ok()) << created.status();
  return std::move(created).value();
}

/// Appends facts past every fact IndexedModel(n) holds.
void AppendNewFacts(EmbeddingStore& st, size_t count, db::FactId first) {
  for (size_t i = 0; i < count; ++i) {
    const auto fact = first + static_cast<db::FactId>(3 * i + 1);
    ASSERT_TRUE(st.Append(fact, IndexedVector(fact)).ok());
  }
}

TEST(AnnCompactTest, CompactExtendsTheReplacedIndex) {
  EmbeddingStore st = CreateIndexedStore("ann_compact_extend", 600);
  const SnapshotIndex created = ReadIndex(st.dir());
  ASSERT_FALSE(created.ann.empty());
  EXPECT_EQ(created.ann, BuildIndex(created, nullptr, ann::HnswConfig()));

  // Journaled facts both between and past the indexed ones.
  AppendNewFacts(st, 40, 0);
  AppendNewFacts(st, 20, 5'000);
  ASSERT_TRUE(st.Compact().ok());
  const SnapshotIndex compacted = ReadIndex(st.dir());
  ASSERT_EQ(compacted.facts.size(), 660u);
  EXPECT_EQ(compacted.ann, BuildIndex(compacted, &created, ann::HnswConfig()));
  // Which is not what a rebuild gives: the test tells the two apart.
  EXPECT_NE(compacted.ann, BuildIndex(compacted, nullptr, ann::HnswConfig()));

  // A second Compact extends the first one's index, and one with nothing
  // journaled rewrites the same index.
  AppendNewFacts(st, 10, 9'000);
  ASSERT_TRUE(st.Compact().ok());
  const SnapshotIndex again = ReadIndex(st.dir());
  EXPECT_EQ(again.ann, BuildIndex(again, &compacted, ann::HnswConfig()));
  ASSERT_TRUE(st.Compact().ok());
  EXPECT_EQ(ReadIndex(st.dir()).ann, again.ann);
}

TEST(AnnCompactTest, OverwrittenIndexedFactRebuildsFromScratch) {
  EmbeddingStore st = CreateIndexedStore("ann_compact_overwrite", 600);
  const SnapshotIndex created = ReadIndex(st.dir());
  AppendNewFacts(st, 10, 0);
  // Fact 300 is indexed; an Append gives it other bytes.
  ASSERT_TRUE(st.Append(300, IndexedVector(300, /*salt=*/1)).ok());
  ASSERT_TRUE(st.Compact().ok());
  const SnapshotIndex compacted = ReadIndex(st.dir());
  EXPECT_EQ(compacted.ann, BuildIndex(compacted, nullptr, ann::HnswConfig()));
  EXPECT_NE(compacted.ann, BuildIndex(compacted, &created, ann::HnswConfig()));
}

TEST(AnnCompactTest, ChangedConfigRebuildsUnderTheNewConfig) {
  // Created under the default config, or with no index at all: either
  // way, a store opened with another config builds its index afresh.
  for (const bool created_with_index : {true, false}) {
    SCOPED_TRACE(created_with_index ? "default index" : "no index");
    StoreOptions created_options;
    created_options.build_ann_index = created_with_index;
    std::string dir;
    {
      EmbeddingStore st =
          CreateIndexedStore("ann_compact_config", 400, created_options);
      dir = st.dir();
      ASSERT_TRUE(st.Close().ok());
    }
    ASSERT_EQ(ReadIndex(dir).ann.empty(), !created_with_index);
    StoreOptions options = IndexedOptions();
    options.ann.m = 8;
    options.ann.ef_construction = 64;
    auto opened = EmbeddingStore::Open(dir, options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    AppendNewFacts(opened.value(), 10, 0);
    ASSERT_TRUE(opened.value().Compact().ok());
    const SnapshotIndex compacted = ReadIndex(dir);
    EXPECT_EQ(compacted.ann, BuildIndex(compacted, nullptr, options.ann));
    std::vector<uint64_t> words((compacted.ann.size() + 7) / 8);
    std::memcpy(words.data(), compacted.ann.data(), compacted.ann.size());
    auto view = ann::HnswView::Open(
        reinterpret_cast<const char*>(words.data()), compacted.ann.size(),
        compacted.facts.size(), kIndexDim);
    ASSERT_TRUE(view.ok()) << view.status();
    EXPECT_EQ(view.value().m(), 8u);
    EXPECT_EQ(view.value().ef_construction(), 64u);
  }
}

TEST(AnnCompactTest, CorruptIndexSectionOnDiskStillCompacts) {
  EmbeddingStore st = CreateIndexedStore("ann_compact_corrupt", 400);
  // Flip one byte inside the on-disk 'ANN ' payload; the open store
  // still holds every vector.
  const std::string path = EmbeddingStore::SnapshotPath(st.dir());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  {
    auto parsed = ParseSnapshotContainer(bytes.data(), bytes.size());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const SnapshotSection* ann = parsed.value().Find(kAnnSectionTag);
    ASSERT_NE(ann, nullptr);
    bytes[static_cast<size_t>(ann->data - bytes.data()) + ann->size / 2] ^= 0x10;
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  ASSERT_FALSE(ParseSnapshotContainer(bytes.data(), bytes.size()).ok());

  AppendNewFacts(st, 10, 0);
  ASSERT_TRUE(st.Compact().ok());
  const SnapshotIndex compacted = ReadIndex(st.dir());
  EXPECT_EQ(compacted.ann, BuildIndex(compacted, nullptr, ann::HnswConfig()));
}

TEST(AnnCompactTest, CrashWindowReplayStillExtends) {
  std::string dir;
  std::string stale_journal;
  SnapshotIndex compacted;
  {
    EmbeddingStore st = CreateIndexedStore("ann_compact_crash", 400);
    dir = st.dir();
    AppendNewFacts(st, 20, 0);
    ASSERT_TRUE(st.Sync().ok());
    ASSERT_TRUE(
        ReadFileToString(EmbeddingStore::WalPath(dir), &stale_journal).ok());
    ASSERT_TRUE(st.Compact().ok());
    compacted = ReadIndex(dir);
    ASSERT_TRUE(st.Close().ok());
  }
  // A crash between the snapshot's rename and the journal reset leaves
  // the old journal: recovery replays records the snapshot already holds,
  // with the same bytes, so the next Compact may still extend.
  std::ofstream(EmbeddingStore::WalPath(dir),
                std::ios::binary | std::ios::trunc)
      << stale_journal;
  auto opened = EmbeddingStore::Open(dir, IndexedOptions());
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened.value().wal_records(), 20u);
  AppendNewFacts(opened.value(), 10, 2'000);
  ASSERT_TRUE(opened.value().Compact().ok());
  const SnapshotIndex next = ReadIndex(dir);
  EXPECT_EQ(next.ann, BuildIndex(next, &compacted, ann::HnswConfig()));
  EXPECT_NE(next.ann, BuildIndex(next, nullptr, ann::HnswConfig()));
}

// Create's snapshot bytes, recorded before Compact learned to extend the
// index: the in-place index over the encoded PHI records must build the
// graph the copied rows did, for either codec's section layout.
TEST(AnnCompactTest, CreatedSnapshotBytesArePinned) {
  {
    EmbeddingStore st = CreateIndexedStore("ann_create_pin_n2v", 500);
    std::string bytes;
    ASSERT_TRUE(
        ReadFileToString(EmbeddingStore::SnapshotPath(st.dir()), &bytes).ok());
    EXPECT_EQ(bytes.size(), 99'192u);
    EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 1620483785u);
  }
  {
    const std::string dir = FreshDir("ann_create_pin_fwd");
    ASSERT_TRUE(fwd::CreateForwardStore(dir, TrainSmall(), IndexedOptions())
                    .ok());
    std::string bytes;
    ASSERT_TRUE(
        ReadFileToString(EmbeddingStore::SnapshotPath(dir), &bytes).ok());
    EXPECT_EQ(bytes.size(), 5'920u);
    EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 2320893819u);
  }
}

TEST(AnnCompactTest, EachCompactStageIsObservedOnceAndTheyAddUp) {
  EmbeddingStore st = CreateIndexedStore("ann_compact_stages", 400);
  AppendNewFacts(st, 10, 0);
  const obs::Registry& reg = obs::Registry::Global();
  auto hist = [&reg](const char* name, obs::Labels labels = {}) {
    const obs::Histogram* h = reg.FindHistogram(name, labels);
    EXPECT_NE(h, nullptr) << name;
    return h;
  };
  const obs::Histogram* total = hist("stedb_store_compact_seconds");
  const obs::Histogram* index = hist("stedb_store_ann_build_seconds");
  std::vector<const obs::Histogram*> stages;
  for (const char* stage : {"sync", "encode", "write", "reset_wal"}) {
    stages.push_back(
        hist("stedb_store_compact_stage_seconds", {{"stage", stage}}));
  }
  ASSERT_NE(total, nullptr);
  ASSERT_NE(index, nullptr);
  std::vector<uint64_t> counts;
  double parts_before = index->Sum();
  for (const obs::Histogram* h : stages) {
    ASSERT_NE(h, nullptr);
    counts.push_back(h->Count());
    parts_before += h->Sum();
  }
  const uint64_t total_count = total->Count();
  const uint64_t index_count = index->Count();
  const double total_before = total->Sum();

  ASSERT_TRUE(st.Compact().ok());
  EXPECT_EQ(total->Count(), total_count + 1);
  EXPECT_EQ(index->Count(), index_count + 1);
  double parts_after = index->Sum();
  for (size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(stages[i]->Count(), counts[i] + 1) << "stage " << i;
    parts_after += stages[i]->Sum();
  }
  EXPECT_LE(parts_after - parts_before, total->Sum() - total_before);
  EXPECT_GT(parts_after - parts_before, 0.0);
}

TEST(AtomicWriteTest, ReplacesAtomicallyAndCleansUp) {
  const std::string dir = FreshDir("atomic_write");
  const std::string path = dir + "/file.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "second");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicWriteTest, MissingDirectoryFailsCleanly) {
  EXPECT_EQ(AtomicWriteFile("/nonexistent/stedb/file.bin", "x").code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace stedb::store

#include "src/store/embedding_store.h"

#include <filesystem>
#include <utility>
#include <vector>

#include "src/ann/hnsw.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/store/format.h"

namespace stedb::store {

namespace {

/// Registry series of the store layer, registered once per process.
/// Shared across store instances: a process that owns several stores
/// (tests, the dynamic experiment) aggregates — per-store breakdowns
/// would key series on directory paths, an unbounded label set.
struct StoreMetrics {
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter& appends = reg.GetCounter(
      "stedb_store_appends_total", "Extension records journaled");
  obs::Counter& wal_bytes = reg.GetCounter(
      "stedb_store_wal_bytes_total", "Journal bytes appended");
  obs::Counter& fsyncs = reg.GetCounter(
      "stedb_store_fsyncs_total", "Disk-cache flushes issued by the store");
  obs::Counter& compactions = reg.GetCounter(
      "stedb_store_compactions_total", "Journal-into-snapshot compactions");
  obs::Histogram& append_seconds = reg.GetHistogram(
      "stedb_store_append_seconds",
      "Append latency incl. group-commit fsyncs and auto-compaction",
      obs::Buckets::Latency());
  obs::Histogram& fsync_seconds = reg.GetHistogram(
      "stedb_store_fsync_seconds", "Journal fsync latency",
      obs::Buckets::Latency());
  obs::Histogram& sync_if_due_seconds = reg.GetHistogram(
      "stedb_store_sync_if_due_seconds",
      "Latency of SyncIfDue calls that flushed an expired group-commit "
      "window (the idle-writer tail-durability path)",
      obs::Buckets::Latency());
  obs::Histogram& compact_seconds = reg.GetHistogram(
      "stedb_store_compact_seconds", "Compact latency",
      obs::Buckets::Latency());
  obs::Histogram& ann_build_seconds = reg.GetHistogram(
      "stedb_store_ann_build_seconds",
      "HNSW index construction latency inside snapshot writes "
      "(StoreOptions::build_ann_index)",
      obs::Buckets::Latency());
  obs::Histogram& group_commit_batch = reg.GetHistogram(
      "stedb_store_group_commit_batch_records",
      "Records made durable per fsync", obs::Buckets::PowersOfTwo());
  obs::Gauge& journal_offset = reg.GetGauge(
      "stedb_store_journal_offset_bytes",
      "Journal byte offset (header + records) of the most recently "
      "written store");
};

StoreMetrics& Metrics() {
  static StoreMetrics m;
  return m;
}

// Eager registration: a process that only reads (stedb_serve) still
// exports the store families, at zero, so scrapes see a stable schema.
[[maybe_unused]] const StoreMetrics& g_eager_metrics = Metrics();

/// Encodes `model` through its codec and, when the options ask for it,
/// appends the 'ANN ' index section built over the model's φ vectors.
/// Shared by Create() and WriteSnapshotFile() so every snapshot write —
/// initial persist and each Compact — carries the same sections.
Result<std::string> EncodeSnapshotBytes(const ModelCodec& codec,
                                        const StoredModel& model,
                                        const StoreOptions& options) {
  STEDB_ASSIGN_OR_RETURN(std::string bytes, codec.Encode(model));
  if (!options.build_ann_index || model.num_embedded() == 0) return bytes;
  obs::ScopedTimer timer(Metrics().ann_build_seconds);
  // Gather the φ rows in PHI order (ForEachPhi ascends fact ids) so ANN
  // node i is exactly PHI record i — the identity MmapSnapshot's
  // zero-copy serving path relies on.
  const size_t dim = model.dim();
  std::vector<db::FactId> facts;
  std::vector<double> rows;
  facts.reserve(model.num_embedded());
  rows.reserve(model.num_embedded() * dim);
  model.ForEachPhi([&facts, &rows](db::FactId f, const la::Vector& v) {
    facts.push_back(f);
    rows.insert(rows.end(), v.begin(), v.end());
  });
  STEDB_ASSIGN_OR_RETURN(
      std::string payload,
      ann::BuildHnsw(options.ann, facts,
                     ann::VectorSource::Dense(rows.data(), dim), dim));
  STEDB_RETURN_IF_ERROR(
      AppendSnapshotSection(&bytes, kAnnSectionTag, payload));
  return bytes;
}

}  // namespace

void TouchStoreMetrics() { Metrics(); }

std::string EmbeddingStore::SnapshotPath(const std::string& dir) {
  return dir + "/model.snap";
}

std::string EmbeddingStore::WalPath(const std::string& dir) {
  return dir + "/extend.wal";
}

EmbeddingStore::EmbeddingStore(std::string dir, StoreOptions options,
                               const ModelCodec* codec,
                               std::unique_ptr<StoredModel> model,
                               WalWriter wal, size_t wal_records, bool torn)
    : dir_(std::move(dir)),
      options_(options),
      codec_(codec),
      model_(std::move(model)),
      wal_(std::move(wal)),
      wal_records_(wal_records),
      recovered_torn_tail_(torn) {}

Status EmbeddingStore::WriteSnapshotFile() const {
  STEDB_ASSIGN_OR_RETURN(std::string bytes,
                         EncodeSnapshotBytes(*codec_, *model_, options_));
  return AtomicWriteFile(SnapshotPath(dir_), bytes);
}

Result<EmbeddingStore> EmbeddingStore::Create(
    const std::string& dir, uint32_t method_tag,
    std::unique_ptr<StoredModel> model, StoreOptions options) {
  if (model == nullptr) {
    return Status::InvalidArgument("store: model must not be null");
  }
  if (model->dim() == 0) {
    return Status::InvalidArgument("store: model has dimension 0");
  }
  STEDB_ASSIGN_OR_RETURN(const ModelCodec* codec, CodecByTag(method_tag));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("store: cannot create directory " + dir);
  }
  {
    STEDB_ASSIGN_OR_RETURN(std::string bytes,
                           EncodeSnapshotBytes(*codec, *model, options));
    STEDB_RETURN_IF_ERROR(AtomicWriteFile(SnapshotPath(dir), bytes));
  }
  STEDB_RETURN_IF_ERROR(ResetWal(WalPath(dir), model->dim()));
  STEDB_ASSIGN_OR_RETURN(WalWriter wal,
                         WalWriter::Open(WalPath(dir), model->dim()));
  EmbeddingStore store(dir, options, codec, std::move(model), std::move(wal),
                       /*wal_records=*/0, /*torn=*/false);
  store.journal_bytes_ = kWalHeaderBytes;
  return store;
}

Result<EmbeddingStore> EmbeddingStore::Open(const std::string& dir,
                                            StoreOptions options) {
  std::string bytes;
  STEDB_RETURN_IF_ERROR(ReadFileToString(SnapshotPath(dir), &bytes));
  STEDB_ASSIGN_OR_RETURN(ParsedSnapshot snap,
                         ParseSnapshotContainer(bytes.data(), bytes.size()));
  STEDB_ASSIGN_OR_RETURN(const ModelCodec* codec,
                         CodecByTag(snap.header.method_tag));
  STEDB_ASSIGN_OR_RETURN(std::unique_ptr<StoredModel> model,
                         codec->Decode(snap));
  STEDB_ASSIGN_OR_RETURN(
      WalReplay replay,
      ReplayWal(WalPath(dir), static_cast<int>(model->dim())));
  if (replay.torn_tail) {
    STEDB_RETURN_IF_ERROR(TruncateWal(WalPath(dir), replay.valid_bytes));
  }
  // Replay in append order; re-appends of a fact already snapshotted (a
  // crash between Compact's snapshot rename and journal reset) simply
  // rewrite the identical vector, so recovery is idempotent.
  for (WalRecord& rec : replay.records) {
    model->set_phi(rec.fact, std::move(rec.phi));
  }
  STEDB_ASSIGN_OR_RETURN(WalWriter wal,
                         WalWriter::Open(WalPath(dir), model->dim()));
  EmbeddingStore store(dir, options, codec, std::move(model), std::move(wal),
                       replay.records.size(), replay.torn_tail);
  store.journal_bytes_ = replay.valid_bytes;
  return store;
}

bool EmbeddingStore::GroupWindowExpired() const {
  if (options_.group_commit_usec == 0) return false;
  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - oldest_unsynced_);
  return static_cast<uint64_t>(waited.count()) >= options_.group_commit_usec;
}

Status EmbeddingStore::MaybeGroupSync(size_t record_bytes) {
  // The group-commit window only relaxes sync_every_append; without that
  // knob appends stay buffered (fsync on Sync/Close alone) and the window
  // knobs are inert, exactly as StoreOptions documents.
  if (!options_.sync_every_append) return Status::OK();
  const bool group_mode =
      options_.group_commit_bytes > 0 || options_.group_commit_usec > 0;
  if (!group_mode) return Sync();  // classic per-record fsync

  if (unsynced_bytes_ == 0) {
    oldest_unsynced_ = std::chrono::steady_clock::now();
  }
  unsynced_bytes_ += record_bytes;
  const bool due = (options_.group_commit_bytes > 0 &&
                    unsynced_bytes_ >= options_.group_commit_bytes) ||
                   GroupWindowExpired();
  return due ? Sync() : Status::OK();
}

Status EmbeddingStore::SyncIfDue() {
  if (unsynced_bytes_ == 0 || !options_.sync_every_append) {
    return Status::OK();
  }
  if (!GroupWindowExpired()) return Status::OK();
  // Only flushes are observed: the histogram measures how expensive the
  // idle-writer durability path is when it actually hits the disk, not
  // how often a ticker polled a quiet window.
  obs::ScopedTimer timer(Metrics().sync_if_due_seconds);
  return Sync();
}

Status EmbeddingStore::Append(db::FactId fact, const la::Vector& phi) {
  if (phi.size() != model_->dim()) {
    return Status::InvalidArgument("store: vector dimension mismatch");
  }
  obs::ScopedTimer timer(Metrics().append_seconds);
  STEDB_RETURN_IF_ERROR(wal_.Append(fact, phi));
  const size_t record_bytes = WalWriter::RecordBytes(phi.size());
  ++unsynced_records_;
  journal_bytes_ += record_bytes;
  StoreMetrics& m = Metrics();
  m.appends.Inc();
  m.wal_bytes.Inc(record_bytes);
  m.journal_offset.Set(static_cast<double>(journal_bytes_));
  STEDB_RETURN_IF_ERROR(MaybeGroupSync(record_bytes));
  model_->set_phi(fact, phi);
  ++wal_records_;
  if (options_.compact_every > 0 && wal_records_ >= options_.compact_every) {
    return Compact();
  }
  return Status::OK();
}

Status EmbeddingStore::Sync() {
  if (unsynced_records_ > 0) {
    Metrics().group_commit_batch.Observe(
        static_cast<double>(unsynced_records_));
  }
  {
    obs::ScopedTimer timer(Metrics().fsync_seconds);
    STEDB_RETURN_IF_ERROR(wal_.Sync());
  }
  Metrics().fsyncs.Inc();
  unsynced_bytes_ = 0;
  unsynced_records_ = 0;
  return Status::OK();
}

Status EmbeddingStore::Compact() {
  obs::Span span("store.compact", Metrics().compact_seconds,
                 /*slow_log_sec=*/1.0);
  STEDB_RETURN_IF_ERROR(Sync());
  // Order matters for crash safety: (1) the new snapshot lands atomically
  // (old snapshot + full journal remain valid until the rename), (2) the
  // journal is reset. A crash between (1) and (2) leaves journal records
  // that are already in the snapshot — harmless, see Open().
  STEDB_RETURN_IF_ERROR(WriteSnapshotFile());
  STEDB_RETURN_IF_ERROR(wal_.Close());
  Metrics().fsyncs.Inc();  // Close() forces the old journal's tail
  folded_fsyncs_ += wal_.sync_count();
  STEDB_RETURN_IF_ERROR(ResetWal(WalPath(dir_), model_->dim()));
  STEDB_ASSIGN_OR_RETURN(WalWriter wal,
                         WalWriter::Open(WalPath(dir_), model_->dim()));
  wal_ = std::move(wal);
  wal_records_ = 0;
  unsynced_bytes_ = 0;
  unsynced_records_ = 0;
  journal_bytes_ = kWalHeaderBytes;
  StoreMetrics& m = Metrics();
  m.compactions.Inc();
  m.journal_offset.Set(static_cast<double>(journal_bytes_));
  return Status::OK();
}

Status EmbeddingStore::Close() {
  const Status st = wal_.Close();  // flushes and fsyncs the tail
  if (st.ok()) {
    if (unsynced_records_ > 0) {
      Metrics().group_commit_batch.Observe(
          static_cast<double>(unsynced_records_));
    }
    Metrics().fsyncs.Inc();
    unsynced_bytes_ = 0;
    unsynced_records_ = 0;
  }
  return st;
}

EmbeddingSink EmbeddingStore::MakeSink() {
  return [this](db::FactId fact, const la::Vector& phi) {
    return Append(fact, phi);
  };
}

}  // namespace stedb::store

#include "src/store/embedding_store.h"

#include <cstring>
#include <filesystem>
#include <optional>
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
  /// Compact's stages apart from the index build (ann_build_seconds):
  /// together they add up to compact_seconds, less the gaps between the
  /// timers. One observation each per Compact that reaches the stage.
  obs::Histogram& compact_sync = CompactStage("sync");
  obs::Histogram& compact_encode = CompactStage("encode");
  obs::Histogram& compact_write = CompactStage("write");
  obs::Histogram& compact_reset_wal = CompactStage("reset_wal");
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

  obs::Histogram& CompactStage(const char* stage) {
    return reg.GetHistogram(
        "stedb_store_compact_stage_seconds",
        "Compact latency by stage: sync (the journal fsync), encode (the "
        "codec), write (snapshot write, fsync and rename), reset_wal; the "
        "index build is stedb_store_ann_build_seconds",
        obs::Buckets::Latency(), {{"stage", stage}});
  }
};

StoreMetrics& Metrics() {
  static StoreMetrics m;
  return m;
}

// Eager registration: a process that only reads (stedb_serve) still
// exports the store families, at zero, so scrapes see a stable schema.
[[maybe_unused]] const StoreMetrics& g_eager_metrics = Metrics();

/// Records read from the replaced snapshot per chunk while checking it
/// against the new one: ~260 KiB at d = 32, so the old PHI section never
/// sits in memory whole.
constexpr size_t kPhiChunkRecords = 1024;

/// The index of the snapshot a Compact replaces, as the base to extend
/// (ann::HnswBase): its 'ANN ' payload and the facts of its nodes.
struct AnnBase {
  std::vector<uint64_t> payload;  ///< 8-aligned, HnswView-ready
  std::vector<db::FactId> facts;
  ann::HnswBase base;
};

/// Reads the base from the snapshot at `path` for an index over `facts`
/// and `vectors` (the PHI records just encoded, in order), or nothing
/// when it cannot be one: the file, its 'ANN ' or PHI section is missing
/// or fails its CRC, the index was built under another config than
/// `config`, or an indexed fact is no longer embedded with the same
/// bytes (an Append overwrote it). None of these is an error — the index
/// is then built from scratch.
std::optional<AnnBase> ReadAnnBase(const std::string& path,
                                   const ann::HnswConfig& config,
                                   const std::vector<db::FactId>& facts,
                                   const ann::VectorSource& vectors,
                                   size_t dim) {
  Result<SnapshotFileReader> reader = SnapshotFileReader::Open(path);
  if (!reader.ok() || reader.value().header().dim != dim) return std::nullopt;
  AnnBase out;
  size_t payload_size = 0;
  if (!reader.value()
           .ReadSection(kAnnSectionTag, &out.payload, &payload_size)
           .ok()) {
    return std::nullopt;
  }
  size_t next = 0;  // cursor into the new records; both lists ascend
  const Status streamed = reader.value().StreamPhiRecords(
      kPhiChunkRecords, [&](const char* records, size_t count) {
        for (size_t i = 0; i < count; ++i) {
          const char* record = records + i * PhiRecordBytes(dim);
          int64_t fact = 0;
          std::memcpy(&fact, record, sizeof(fact));
          while (next < facts.size() && facts[next] < fact) ++next;
          if (next == facts.size() || facts[next] != fact ||
              std::memcmp(record + sizeof(fact), vectors.Row(next),
                          dim * sizeof(double)) != 0) {
            return Status::FailedPrecondition("indexed fact changed");
          }
          out.facts.push_back(facts[next]);
        }
        return Status::OK();
      });
  if (!streamed.ok()) return std::nullopt;
  Result<ann::HnswView> view =
      ann::HnswView::Open(reinterpret_cast<const char*>(out.payload.data()),
                          payload_size, out.facts.size(), dim);
  if (!view.ok() || !view.value().BuiltWith(config)) return std::nullopt;
  // The view and the span point into the two vectors' heap buffers, which
  // moving `out` into the optional keeps in place.
  out.base = ann::HnswBase{view.value(), out.facts};
  return out;
}

/// Appends the 'ANN ' index section to `bytes`, a container the codec has
/// just encoded, when the options ask for one. Node i is PHI record i,
/// the identity MmapSnapshot's zero-copy serving path relies on, and the
/// builder reads the vectors in place from the encoded records. The
/// index extends the one in the snapshot at `previous` when ReadAnnBase
/// finds it fit, and is built from scratch otherwise (and at Create,
/// where `previous` is empty). Timed whole, base read included, by
/// stedb_store_ann_build_seconds.
Status AppendAnnSection(std::string* bytes, const StoreOptions& options,
                        const std::string& previous) {
  if (!options.build_ann_index) return Status::OK();
  STEDB_ASSIGN_OR_RETURN(
      ParsedSnapshot snap,
      ParseSnapshotContainer(bytes->data(), bytes->size(),
                             /*verify_crcs=*/false));
  const auto dim = static_cast<size_t>(snap.header.dim);
  ByteReader phi = snap.Find(kPhiSectionTag)->reader();
  uint64_t count = 0;
  if (!phi.ReadU64(&count)) {
    return Status::Internal("store: encoded PHI section has no count");
  }
  if (count == 0) return Status::OK();
  obs::ScopedTimer timer(Metrics().ann_build_seconds);
  const char* records = phi.cursor();
  std::vector<db::FactId> facts(count);
  for (size_t i = 0; i < count; ++i) {
    int64_t fact = 0;
    std::memcpy(&fact, records + i * PhiRecordBytes(dim), sizeof(fact));
    facts[i] = static_cast<db::FactId>(fact);
  }
  const ann::VectorSource vectors{records + sizeof(int64_t),
                                  PhiRecordBytes(dim)};
  std::optional<AnnBase> base;
  if (!previous.empty()) {
    base = ReadAnnBase(previous, options.ann, facts, vectors, dim);
  }
  STEDB_ASSIGN_OR_RETURN(
      std::string payload,
      ann::BuildHnsw(options.ann, facts, vectors, dim,
                     base.has_value() ? &base->base : nullptr));
  return AppendSnapshotSection(bytes, kAnnSectionTag, payload);
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
    STEDB_ASSIGN_OR_RETURN(std::string bytes, codec->Encode(*model));
    STEDB_RETURN_IF_ERROR(
        AppendAnnSection(&bytes, options, /*previous=*/""));
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
  StoreMetrics& m = Metrics();
  {
    obs::ScopedTimer stage(m.compact_sync);
    STEDB_RETURN_IF_ERROR(Sync());
  }
  // Order matters for crash safety: (1) the new snapshot lands atomically
  // (old snapshot + full journal remain valid until the rename), (2) the
  // journal is reset. A crash between (1) and (2) leaves journal records
  // that are already in the snapshot — harmless, see Open(). The index
  // is read from the old snapshot before (1) replaces it.
  const std::string path = SnapshotPath(dir_);
  std::string bytes;
  {
    obs::ScopedTimer stage(m.compact_encode);
    STEDB_ASSIGN_OR_RETURN(bytes, codec_->Encode(*model_));
  }
  STEDB_RETURN_IF_ERROR(AppendAnnSection(&bytes, options_, path));
  {
    obs::ScopedTimer stage(m.compact_write);
    STEDB_RETURN_IF_ERROR(AtomicWriteFile(path, bytes));
  }
  obs::ScopedTimer reset_stage(m.compact_reset_wal);
  STEDB_RETURN_IF_ERROR(wal_.Close());
  m.fsyncs.Inc();  // Close() forces the old journal's tail
  folded_fsyncs_ += wal_.sync_count();
  STEDB_RETURN_IF_ERROR(ResetWal(WalPath(dir_), model_->dim()));
  STEDB_ASSIGN_OR_RETURN(WalWriter wal,
                         WalWriter::Open(WalPath(dir_), model_->dim()));
  wal_ = std::move(wal);
  wal_records_ = 0;
  unsynced_bytes_ = 0;
  unsynced_records_ = 0;
  journal_bytes_ = kWalHeaderBytes;
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

#ifndef STEDB_STORE_EMBEDDING_STORE_H_
#define STEDB_STORE_EMBEDDING_STORE_H_

#include <chrono>
#include <memory>
#include <string>

#include "src/ann/hnsw.h"
#include "src/common/status.h"
#include "src/store/model_codec.h"
#include "src/store/sink.h"
#include "src/store/stored_model.h"
#include "src/store/wal.h"

namespace stedb::store {

/// Forces registration of the store layer's obs metric families (appends,
/// fsync/compact latency, group-commit batches). They register on first
/// use anyway; read-only processes (stedb_serve) call this so scrapes
/// export the writer-side families at zero — a stable schema for
/// dashboards — even though the process never appends.
void TouchStoreMetrics();

struct StoreOptions {
  /// fsync the journal after every Append. Appends are always durable
  /// against a killed process (each record is flushed to the OS); this
  /// knob makes every record durable against power loss too, at ~a disk
  /// flush per extension. Off, power-loss durability is bounded by the
  /// last explicit Sync()/Close() (a torn tail is recovered-around
  /// either way).
  bool sync_every_append = false;
  /// Auto-Compact() once the journal holds this many records (0 = only
  /// compact on explicit request).
  size_t compact_every = 0;

  /// Group commit: when either knob is > 0 and sync_every_append is on,
  /// the per-record fsync is batched — an Append only forces the disk
  /// cache once the unsynced bytes reach `group_commit_bytes`, or once
  /// the *oldest* unsynced record has waited `group_commit_usec`
  /// microseconds (checked on each Append and by SyncIfDue(), which a
  /// periodic flusher calls to cover idle writers; Sync()/Close()/
  /// Compact() always flush the remainder). Kill-safety is unchanged —
  /// every record
  /// still reaches the OS before Append returns — and power-loss
  /// durability is bounded by the window instead of per-record, at a
  /// fraction of the fsyncs (bench/table7_store_io measures both).
  size_t group_commit_bytes = 0;
  uint64_t group_commit_usec = 0;

  /// Build a persisted ANN index ('ANN ' section, src/ann/hnsw.h) into
  /// every snapshot this store writes — at Create() and at each
  /// Compact(). The section rides the container's CRC + alignment
  /// guarantees, so MmapSnapshot / api::ServingSession serve the graph
  /// zero-copy; readers that predate the section ignore it. Off by
  /// default: Create builds the graph from scratch, O(n · ef_construction).
  /// Compact extends the replaced snapshot's graph, inserting only the
  /// facts journaled since: O(new facts · ef_construction) plus a pass
  /// over the old index and PHI section. It rebuilds from scratch instead
  /// when that graph cannot be extended: a missing or corrupt section,
  /// another `ann` config, or an indexed fact that an Append overwrote.
  bool build_ann_index = false;
  /// Graph knobs used when build_ann_index is set. `ann.threads`
  /// parallelizes the build without changing the produced bytes.
  ann::HnswConfig ann;
};

/// Durable home of one embedding method's model: a binary snapshot
/// (`<dir>/model.snap`, see model_codec.h for the container format) plus
/// an append-only journal of dynamic extensions (`<dir>/extend.wal`, see
/// wal.h).
///
/// The store is method-agnostic. Snapshot bytes are produced and parsed by
/// the method's store::ModelCodec — the snapshot header carries the
/// codec's method tag, so `Open(dir)` resolves the right codec from the
/// file alone (CodecByTag), and a FoRWaRD and a Node2Vec store directory
/// behave identically from here up (EmbeddingStore, MmapSnapshot,
/// api::ServingSession). The journal layer was method-agnostic from the
/// start: one record per extended fact's final vector.
///
/// Lifecycle
///   * `Create(dir, method_tag, model)` — persist a freshly trained model:
///     snapshot written atomically via the method's codec, journal reset
///     to empty.
///   * `Append(fact, phi)`  — journal one extension. The paper's stability
///     guarantee (old embeddings never move) is what makes a φ-only,
///     append-only journal a *complete* record of all post-training
///     mutations, for every method that honors it.
///   * `Open(dir)`          — crash recovery: load the snapshot (codec
///     resolved from its header), replay the journal over it, and
///     truncate a torn tail record (a crash mid-append) instead of
///     failing. Everything appended *before* the last `Sync()` is
///     recovered bit-exactly.
///   * `Compact()`          — fold the journal into a fresh snapshot
///     (atomic temp-file + rename, then journal reset). Crash-safe at
///     every point: the old snapshot stays until the rename, and a
///     leftover journal replayed over the *new* snapshot only rewrites
///     identical vectors — which is also why the next Compact may still
///     extend that snapshot's ANN index.
///
/// `MakeSink()` adapts the store to the `EmbeddingSink` writer interface
/// that `fwd::ForwardEmbedder` / `n2v::Node2VecEmbedding` call once per
/// newly embedded fact, so extensions hit the journal the moment they are
/// computed.
class EmbeddingStore {
 public:
  /// Persists `model` as the initial snapshot of a new (or re-initialized)
  /// store directory using the codec for `method_tag`
  /// (fwd::kForwardMethodTag or n2v::kNode2VecMethodTag), discarding any
  /// previous journal.
  static Result<EmbeddingStore> Create(const std::string& dir,
                                       uint32_t method_tag,
                                       std::unique_ptr<StoredModel> model,
                                       StoreOptions options = StoreOptions());

  /// Recovers the durable model: snapshot + journal replay, truncating a
  /// torn tail. The codec is resolved from the snapshot header's method
  /// tag. Fails only on missing/corrupt snapshot, an unknown method tag,
  /// or an unreadable journal header.
  static Result<EmbeddingStore> Open(const std::string& dir,
                                     StoreOptions options = StoreOptions());

  /// Journals φ(fact) and applies it to the in-memory model.
  Status Append(db::FactId fact, const la::Vector& phi);

  /// Forces journaled records to disk (including a pending group-commit
  /// window).
  Status Sync();

  /// Fsyncs iff the group-commit time window has expired for a pending
  /// record: the oldest unsynced record has waited `group_commit_usec` or
  /// longer. No-op when nothing is pending, when the time window is off,
  /// or when the deadline has not passed yet.
  ///
  /// The window is otherwise only evaluated inside Append, so an *idle*
  /// writer's tail records would sit unsynced past the promised deadline
  /// until the next Append. A periodic ticker — e.g. the serve layer's
  /// Poll ticker (serve::ServeOptions::tick_hook) or any timer thread —
  /// calls this to bound tail durability for idle writers. Callers own
  /// the synchronization: like every other member, this must not race an
  /// Append from another thread.
  Status SyncIfDue();

  /// Folds the journal into a fresh snapshot and empties it.
  Status Compact();

  /// Flushes and closes the journal writer; the store becomes read-only.
  Status Close();

  /// A writer bound to this store's Append; pass to the extenders. The
  /// store must outlive every copy of the sink.
  EmbeddingSink MakeSink();

  const StoredModel& model() const { return *model_; }
  /// The name of the stored model's method ("forward" or "node2vec").
  std::string method() const { return codec_->method(); }
  const std::string& dir() const { return dir_; }
  /// Journal records not yet folded into the snapshot.
  size_t wal_records() const { return wal_records_; }
  /// Whether the last Open() had to drop a torn tail record.
  bool recovered_torn_tail() const { return recovered_torn_tail_; }
  /// Disk-cache flushes issued over this store's lifetime (across
  /// compactions) — the group-commit bench counter.
  uint64_t fsync_count() const { return folded_fsyncs_ + wal_.sync_count(); }

  static std::string SnapshotPath(const std::string& dir);
  static std::string WalPath(const std::string& dir);

 private:
  EmbeddingStore(std::string dir, StoreOptions options,
                 const ModelCodec* codec,
                 std::unique_ptr<StoredModel> model, WalWriter wal,
                 size_t wal_records, bool torn);

  /// Applies the group-commit policy after one append of `record_bytes`.
  Status MaybeGroupSync(size_t record_bytes);
  /// Whether the oldest unsynced record has waited group_commit_usec.
  bool GroupWindowExpired() const;

  std::string dir_;
  StoreOptions options_;
  const ModelCodec* codec_ = nullptr;
  std::unique_ptr<StoredModel> model_;
  WalWriter wal_;
  size_t wal_records_ = 0;
  bool recovered_torn_tail_ = false;
  uint64_t folded_fsyncs_ = 0;  ///< sync_count of journals closed by Compact
  size_t unsynced_bytes_ = 0;   ///< appended since the last fsync
  size_t unsynced_records_ = 0;  ///< records since the last fsync (metrics)
  size_t journal_bytes_ = 0;     ///< current journal file size (metrics)
  std::chrono::steady_clock::time_point oldest_unsynced_{};
};

}  // namespace stedb::store

#endif  // STEDB_STORE_EMBEDDING_STORE_H_

#ifndef STEDB_API_SERVING_H_
#define STEDB_API_SERVING_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ann/hnsw.h"
#include "src/common/scoped_fd.h"
#include "src/common/span.h"
#include "src/common/status.h"
#include "src/db/database.h"
#include "src/la/matrix.h"
#include "src/store/mmap_snapshot.h"
#include "src/store/wal.h"

namespace stedb::api {

/// Knobs for ServingSession::SimilarTopK. Namespace-scope (not nested)
/// so it can be a defaulted argument of the member functions.
struct SimilarOptions {
  /// Beam width of the HNSW base-layer search (clamped up so at least
  /// k + WAL-override survivors come back). 0 = kDefaultEfSearch.
  size_t ef_search = 0;
  /// false forces the exact brute-force scan even when an index is
  /// present — the parity / recall oracle (`/similar?approx=0`).
  bool approx = true;
};

/// Read-only serving endpoint over a store::EmbeddingStore directory: the
/// snapshot is mmap'd (zero-copy, page cache shared across processes) and
/// the extension WAL is tailed incrementally, so one trainer process and
/// any number of reader processes can share a store directory with no
/// coordination beyond the filesystem.
///
/// The session is method-agnostic: it reads the snapshot's standard PHI
/// section and the method-agnostic WAL, so a directory written by either
/// codec — FoRWaRD's or Node2Vec's — serves identically (the session
/// never even resolves the codec; the container header carries
/// dim/relation and the CRC-checked section table).
///
///   auto session = api::ServingSession::Open(dir);       // cold reader
///   Span<const double> v = session->Embed(f).value();    // zero-copy
///   ...
///   session->Poll();   // picks up extensions journaled since Open/Poll
///
/// Embed returns views: into the mapped snapshot for snapshot-resident
/// facts, into the session's tail buffer for WAL-resident ones. A view
/// stays valid until the next Poll() (which may grow the tail buffer or,
/// after a writer compaction, replace the mapping) or until the session
/// is destroyed — callers that need longer-lived vectors copy (EmbedBatch
/// does).
///
/// Poll() semantics:
///  * New complete WAL records are applied; an incomplete trailing record
///    (the writer mid-append) is simply retried on the next Poll — for a
///    tailing reader a torn tail is pending data, not corruption.
///  * A writer Compact() atomically replaces the snapshot and resets the
///    journal. Poll detects the new snapshot inode and reopens both files
///    (invalidating previously returned views); the served vectors are
///    unchanged, because compaction only folds journal records into the
///    snapshot. `reopened()` reports that this happened.
///
/// Stability is what makes this sound: old embeddings never change, so a
/// snapshot plus an append-only journal of new facts is the *complete*
/// state, and every vector served here is bit-identical to the trainer's
/// in-memory model (asserted in tests/serving_test.cc).
class ServingSession {
 public:
  /// Opens `<dir>/model.snap` + `<dir>/extend.wal` and replays the
  /// journal's clean prefix.
  static Result<ServingSession> Open(const std::string& dir);

  ServingSession(ServingSession&&) = default;
  ServingSession& operator=(ServingSession&&) = default;
  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  /// Zero-copy φ(f); NotFound when the fact is in neither the snapshot
  /// nor the tailed journal.
  Result<Span<const double>> Embed(db::FactId f) const;

  /// Copying batch read: fills `out` (facts.size() x dim()) with one row
  /// per requested fact. NotFound when any fact is unknown,
  /// InvalidArgument on a shape mismatch.
  Status EmbedBatch(Span<const db::FactId> facts, la::MatrixView out) const;

  /// φ(f)ᵀ ψ(t) φ(g) — the model's similarity prediction (paper Eq. 3
  /// LHS), computed straight off the mapping via the zero-copy ψ
  /// accessors as Dot(u, φ(g)) with u = ψᵀφ(f) from la::LeftProject.
  /// Bit-equal to the trainer-side fwd::ForwardModel::Score for the same
  /// store (same formula, same bytes — asserted in
  /// tests/serving_test.cc). NotFound for an unknown fact,
  /// FailedPrecondition when the snapshot carries no ψ sections (e.g.
  /// Node2Vec), InvalidArgument for a ψ index out of range.
  Result<double> Score(db::FactId f, db::FactId g, size_t target) const;

  /// One top-k result row.
  struct Scored {
    db::FactId fact = -1;
    double score = 0.0;
  };

  /// The k served facts g maximizing Score(query, g, target), descending
  /// by score with ascending fact id as the deterministic tie-break. The
  /// query fact itself is included when served (callers filter). Same
  /// error cases as Score.
  ///
  /// An exact serial scan: u = ψᵀφ(query) is projected once, then every
  /// snapshot row is scored in place with one la::Dot (rows a journal
  /// record shadows are skipped), then every journal row. Each score is
  /// the double Score(query, g, target) returns, on every SIMD path.
  Result<std::vector<Scored>> TopK(db::FactId query, size_t k,
                                   size_t target) const;

  /// ψ matrices available for scoring (0 for methods that persist none).
  size_t num_psi() const { return snapshot_.num_psi(); }

  /// Base-layer beam width used when SimilarOptions::ef_search is 0.
  static constexpr size_t kDefaultEfSearch = 64;

  /// Whether the mmap'd snapshot carries a searchable 'ANN ' index.
  bool has_ann_index() const { return ann_view_.valid(); }
  /// The index's metric (cosine when no index is present — the exact
  /// fallback's default).
  ann::Metric similarity_metric() const {
    return ann_view_.valid() ? ann_view_.metric() : ann::Metric::kCosine;
  }

  /// The k facts most similar to `query` in embedding space (the paper's
  /// record-similarity task), best first with ascending fact id on ties.
  /// When the snapshot carries an 'ANN ' section the mmap'd HNSW graph is
  /// searched zero-copy and WAL-resident facts tailed since the snapshot
  /// are merged from an exact side scan — freshness is never sacrificed
  /// for speed. Without an index (or with approx=false) the whole served
  /// set is scanned exactly; scores are bit-identical either way, both
  /// routed through ann::PairScore / la::kernels.
  ///
  /// The fact overload queries by a served fact's own vector and excludes
  /// that fact from the results (NotFound when it is not served); the
  /// span overload searches an arbitrary vector (InvalidArgument on a
  /// dimension mismatch), excluding `exclude` when given.
  Result<std::vector<Scored>> SimilarTopK(
      db::FactId query, size_t k,
      const SimilarOptions& options = SimilarOptions()) const;
  Result<std::vector<Scored>> SimilarTopK(
      Span<const double> query, size_t k,
      const SimilarOptions& options = SimilarOptions(),
      db::FactId exclude = db::kNoFact) const;

  /// Every served fact id, ascending (snapshot residents + journal tail,
  /// deduplicated). Allocates; meant for enumeration endpoints, not the
  /// per-lookup hot path.
  std::vector<db::FactId> ServedFacts() const;

  /// Tails the journal: applies every extension record that became durable
  /// since Open()/the last Poll(), reopening the files after a writer
  /// compaction. Returns the number of new records applied.
  Result<size_t> Poll();

  /// Whether Poll() has anything to do: the snapshot's identity moved,
  /// the journal path no longer names the tailed inode, or the journal
  /// grew past the bytes consumed. The same checks Poll() starts with,
  /// read-only, so a caller can ask under a shared lock and take an
  /// exclusive one only when the answer is yes. A torn trailing record
  /// stays pending until the writer completes it. A "no" zeroes the WAL
  /// lag gauges, as a Poll that applied nothing would.
  Result<bool> Pending() const;

  size_t dim() const { return snapshot_.dim(); }
  db::RelationId relation() const { return snapshot_.relation(); }
  /// Distinct facts served (snapshot residents + tailed journal records;
  /// a fact in both — the compaction crash window — counts once).
  size_t num_embedded() const;
  /// Journal records currently served from the tail buffer.
  size_t wal_records() const { return overlay_.size(); }
  /// Whether the last Poll() had to reopen after a compaction.
  bool reopened() const { return reopened_; }
  const std::string& dir() const { return dir_; }

 private:
  ServingSession(std::string dir, store::MmapSnapshot snapshot);

  /// Applies records parsed from the journal tail to the overlay; returns
  /// the bytes consumed by clean records.
  size_t ApplyTail(const std::string& bytes);
  /// preads the unconsumed journal bytes [wal_offset_, EOF) off wal_fd_.
  Status ReadWalTail(std::string* out) const;
  /// Whether `<dir>/extend.wal` is still the inode wal_fd_ pins. False
  /// after a writer reset the journal (compaction) — the tail source is
  /// stale and the session must reopen. Guards the crash-window race
  /// where Open() observed the new snapshot but the not-yet-reset old
  /// journal: snapshot identity alone would never notice. `fd_size`,
  /// when given, receives the tailed journal's size.
  Result<bool> JournalCurrent(uint64_t* fd_size = nullptr) const;
  /// Installs one journal record into the overlay (insert or overwrite).
  void ApplyRecord(const store::WalRecord& rec);
  /// ψ(target) off the mapping; FailedPrecondition when the snapshot
  /// carries no ψ sections, InvalidArgument when target is out of range.
  Result<Span<const double>> Psi(size_t target) const;
  /// Snapshot-file identity (inode, size) used to detect compaction.
  static Status SnapshotIdentity(const std::string& dir, uint64_t* inode,
                                 uint64_t* size);

  std::string dir_;
  store::MmapSnapshot snapshot_;
  uint64_t snapshot_inode_ = 0;
  uint64_t snapshot_size_ = 0;
  /// Persistent journal fd: Poll() preads the tail from wal_offset_
  /// instead of reopening the file per call. Bound to the journal inode
  /// as of Open(); the compaction path (which atomically replaces the
  /// journal) is the only place it is reopened.
  ScopedFd wal_fd_;
  size_t wal_offset_ = 0;  ///< journal bytes consumed (header + records)
  /// Journal-resident vectors: fact -> row index into overlay_data_.
  std::unordered_map<db::FactId, size_t> overlay_;
  std::vector<double> overlay_data_;
  /// View over the snapshot's 'ANN ' section (invalid when absent). The
  /// pointers alias the mapping, so the default move ops stay correct:
  /// the mmap address is stable across MmapSnapshot moves.
  ann::HnswView ann_view_;
  /// Overlay entries that shadow a snapshot-resident fact (the journal
  /// overwrote an indexed vector). The ANN search widens its result set
  /// by this count so dropping the stale graph hits cannot starve k, and
  /// TopK's snapshot scan looks rows up in the overlay only when it is
  /// nonzero.
  size_t overlay_overrides_ = 0;
  bool reopened_ = false;
};

}  // namespace stedb::api

#endif  // STEDB_API_SERVING_H_

#include "src/api/serving.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/la/kernels.h"
#include "src/la/row_batch.h"
#include "src/ml/topk.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/store/embedding_store.h"
#include "src/store/format.h"
#include "src/store/wal.h"

namespace stedb::api {

namespace {

/// Registry series of the WAL-tailing reader. Shared across sessions in
/// one process — the replication-lag story of "this reader process", not
/// of one session object.
struct ServingMetrics {
  obs::Registry& reg = obs::Registry::Global();
  obs::Histogram& poll_seconds = reg.GetHistogram(
      "stedb_serving_poll_seconds",
      "ServingSession::Poll latency (WAL tail read + apply, or the "
      "compaction reopen path)",
      obs::Buckets::Latency());
  obs::Counter& polls = reg.GetCounter(
      "stedb_serving_polls_total", "ServingSession::Poll calls");
  obs::Counter& wal_records_applied = reg.GetCounter(
      "stedb_serving_wal_records_applied_total",
      "Journal records applied by Poll since process start");
  obs::Gauge& lag_records = reg.GetGauge(
      "stedb_serving_wal_lag_records",
      "Records the reader was behind at the start of the last Poll "
      "(records applied by that Poll)");
  obs::Gauge& lag_bytes = reg.GetGauge(
      "stedb_serving_wal_lag_bytes",
      "Journal bytes the reader was behind at the start of the last Poll");
  obs::Counter& reopens = reg.GetCounter(
      "stedb_serving_reopens_total",
      "Compaction-triggered snapshot+journal reopens");
  obs::Histogram& ann_visited_nodes = reg.GetHistogram(
      "stedb_ann_visited_nodes",
      "Nodes whose distance was evaluated per HNSW search "
      "(SimilarTopK approximate path)",
      obs::Buckets::PowersOfTwo());
};

ServingMetrics& Metrics() {
  static ServingMetrics m;
  return m;
}

[[maybe_unused]] const ServingMetrics& g_eager_metrics = Metrics();

}  // namespace

ServingSession::ServingSession(std::string dir, store::MmapSnapshot snapshot)
    : dir_(std::move(dir)), snapshot_(std::move(snapshot)) {}

Status ServingSession::SnapshotIdentity(const std::string& dir,
                                        uint64_t* inode, uint64_t* size) {
  struct stat st;
  if (::stat(store::EmbeddingStore::SnapshotPath(dir).c_str(), &st) != 0) {
    return Status::IOError("serving: cannot stat snapshot in " + dir);
  }
  *inode = static_cast<uint64_t>(st.st_ino);
  *size = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

Result<ServingSession> ServingSession::Open(const std::string& dir) {
  // Identity before mmap: if a compaction renames the snapshot between
  // the stat and the map we record the *old* identity while mapping the
  // new file, and the next Poll() harmlessly reopens once more.
  uint64_t inode = 0, size = 0;
  STEDB_RETURN_IF_ERROR(SnapshotIdentity(dir, &inode, &size));
  STEDB_ASSIGN_OR_RETURN(
      store::MmapSnapshot snapshot,
      store::MmapSnapshot::Open(store::EmbeddingStore::SnapshotPath(dir)));
  ServingSession session(dir, std::move(snapshot));
  session.snapshot_inode_ = inode;
  session.snapshot_size_ = size;

  // Open the persisted ANN index when the snapshot carries one. The view
  // points straight into the mapping (zero-copy); a structurally invalid
  // section fails the whole Open — a store advertising an index it
  // cannot serve is corrupt, not merely slow.
  if (session.snapshot_.has_ann()) {
    STEDB_ASSIGN_OR_RETURN(
        session.ann_view_,
        ann::HnswView::Open(session.snapshot_.ann_data(),
                            session.snapshot_.ann_size(),
                            session.snapshot_.num_embedded(),
                            session.snapshot_.dim()));
  }

  // Pin the journal BEFORE reading it: wal_offset_ and wal_fd_ must
  // describe the same inode. Reading by path first would let a racing
  // compaction slip a fresh journal under the fd while the offset still
  // measured the old one — both identity checks in Poll() would then
  // pass while ReadWalTail compared the stale offset against the new
  // journal's smaller size and served nothing new, forever. The
  // persistent descriptor also spares Poll() an open/read/close per
  // call and guarantees a tail read never splices foreign bytes.
  const std::string wal_path = store::EmbeddingStore::WalPath(dir);
  int fd = ::open(wal_path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("serving: cannot open journal " + wal_path);
  }
  session.wal_fd_.Reset(fd);

  // Replay the journal's clean prefix (wal_offset_ is still 0, so the
  // tail read returns the whole file through the pinned fd). A torn
  // tail is pending data (the writer may be mid-append), not
  // corruption — Poll() retries it.
  std::string bytes;
  STEDB_RETURN_IF_ERROR(session.ReadWalTail(&bytes));
  auto replay =
      store::ReplayWalBytes(bytes, static_cast<int>(session.dim()));
  if (!replay.ok()) return replay.status();
  session.wal_offset_ = replay.value().valid_bytes;
  for (store::WalRecord& rec : replay.value().records) {
    session.ApplyRecord(rec);
  }
  return session;
}

Status ServingSession::ReadWalTail(std::string* out) const {
  out->clear();
  struct stat st;
  if (::fstat(wal_fd_.get(), &st) != 0) {
    return Status::IOError("serving: cannot stat journal fd for " + dir_);
  }
  const auto size = static_cast<size_t>(st.st_size);
  if (size <= wal_offset_) return Status::OK();  // nothing new
  out->resize(size - wal_offset_);
  size_t done = 0;
  while (done < out->size()) {
    const ssize_t n =
        ::pread(wal_fd_.get(), out->data() + done, out->size() - done,
                static_cast<off_t>(wal_offset_ + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("serving: journal pread failed for " + dir_);
    }
    if (n == 0) break;  // raced a truncation; parse what we got
    done += static_cast<size_t>(n);
  }
  out->resize(done);
  return Status::OK();
}

Result<bool> ServingSession::JournalCurrent(uint64_t* fd_size) const {
  struct stat fd_st, path_st;
  if (::fstat(wal_fd_.get(), &fd_st) != 0) {
    return Status::IOError("serving: cannot stat journal fd for " + dir_);
  }
  if (fd_size != nullptr) *fd_size = static_cast<uint64_t>(fd_st.st_size);
  if (::stat(store::EmbeddingStore::WalPath(dir_).c_str(), &path_st) != 0) {
    return Status::IOError("serving: cannot stat journal in " + dir_);
  }
  return fd_st.st_ino == path_st.st_ino && fd_st.st_dev == path_st.st_dev;
}

void ServingSession::ApplyRecord(const store::WalRecord& rec) {
  auto it = overlay_.find(rec.fact);
  size_t row;
  if (it == overlay_.end()) {
    row = overlay_.size();
    overlay_.emplace(rec.fact, row);
    overlay_data_.resize((row + 1) * dim());
    // A journal record for a snapshot-resident fact shadows its indexed
    // vector: the ANN graph's hit for that node is stale and SimilarTopK
    // must widen its candidate set to drop it without starving k.
    if (!snapshot_.phi(rec.fact).empty()) ++overlay_overrides_;
  } else {
    row = it->second;
  }
  std::memcpy(overlay_data_.data() + row * dim(), rec.phi.data(),
              dim() * sizeof(double));
}

size_t ServingSession::ApplyTail(const std::string& bytes) {
  store::WalTail tail = store::ParseWalTail(bytes.data(), bytes.size(), dim());
  for (const store::WalRecord& rec : tail.records) ApplyRecord(rec);
  return tail.consumed;
}

Result<size_t> ServingSession::Poll() {
  ServingMetrics& metrics = Metrics();
  metrics.polls.Inc();
  obs::ScopedTimer timer(metrics.poll_seconds);
  reopened_ = false;
  uint64_t inode = 0, size = 0;
  STEDB_RETURN_IF_ERROR(SnapshotIdentity(dir_, &inode, &size));
  if (inode == snapshot_inode_ && size == snapshot_size_) {
    // The journal file must also still be the inode this session tails.
    // It can be stale while the snapshot looks current: an Open() that
    // raced a Compact() between the snapshot rename and the journal
    // reset pinned the *old* journal — without this check the session
    // would poll a dead inode forever and never see new appends.
    STEDB_ASSIGN_OR_RETURN(bool journal_current, JournalCurrent());
    if (journal_current) {
      std::string bytes;
      STEDB_RETURN_IF_ERROR(ReadWalTail(&bytes));
      // Re-check both identities AFTER the read: a Compact() racing in
      // between replaced the journal, so the bytes just read came from
      // the *pre-compaction* journal (the fd pins its inode) — every
      // one of them is already folded into the new snapshot. Discard
      // the read and reopen instead of double-applying a stale tail.
      STEDB_RETURN_IF_ERROR(SnapshotIdentity(dir_, &inode, &size));
      STEDB_ASSIGN_OR_RETURN(journal_current, JournalCurrent());
      if (inode == snapshot_inode_ && size == snapshot_size_ &&
          journal_current) {
        const size_t before = overlay_.size();
        wal_offset_ += ApplyTail(bytes);
        const size_t applied = overlay_.size() - before;
        // The lag gauges answer "how far behind was this reader when it
        // polled": the tail bytes that had accumulated since the last
        // Poll, and the records they decoded into.
        metrics.lag_bytes.Set(static_cast<double>(bytes.size()));
        metrics.lag_records.Set(static_cast<double>(applied));
        metrics.wal_records_applied.Inc(applied);
        return applied;
      }
    }
  }
  // The writer compacted: the snapshot file was atomically replaced and
  // the journal reset. Reopen both; every vector served before is still
  // served (compaction only folds journal records into the snapshot), so
  // the delta below counts genuinely new facts.
  const size_t before = num_embedded();
  STEDB_ASSIGN_OR_RETURN(ServingSession fresh, Open(dir_));
  *this = std::move(fresh);
  reopened_ = true;
  metrics.reopens.Inc();
  const size_t after = num_embedded();
  const size_t applied = after > before ? after - before : 0;
  metrics.lag_records.Set(static_cast<double>(applied));
  metrics.wal_records_applied.Inc(applied);
  return applied;
}

Result<bool> ServingSession::Pending() const {
  uint64_t inode = 0, size = 0;
  STEDB_RETURN_IF_ERROR(SnapshotIdentity(dir_, &inode, &size));
  if (inode != snapshot_inode_ || size != snapshot_size_) return true;
  uint64_t journal_size = 0;
  STEDB_ASSIGN_OR_RETURN(bool journal_current, JournalCurrent(&journal_size));
  if (journal_current && journal_size <= wal_offset_) {
    // Caught up: the lag gauges read what a Poll with nothing to apply
    // would have set, though no Poll runs.
    Metrics().lag_bytes.Set(0.0);
    Metrics().lag_records.Set(0.0);
    return false;
  }
  return true;
}

size_t ServingSession::num_embedded() const {
  size_t n = snapshot_.num_embedded();
  for (const auto& [f, row] : overlay_) {
    (void)row;
    if (snapshot_.phi(f).empty()) ++n;
  }
  return n;
}

Result<Span<const double>> ServingSession::Embed(db::FactId f) const {
  // The overlay wins: after a compaction crash-window replay the same
  // fact can sit in both places with identical bytes, and for a genuinely
  // journal-resident fact only the overlay has it at all.
  auto it = overlay_.find(f);
  if (it != overlay_.end()) {
    return Span<const double>(overlay_data_.data() + it->second * dim(),
                              dim());
  }
  Span<const double> v = snapshot_.phi(f);
  if (v.empty()) {
    return Status::NotFound("fact " + std::to_string(f) +
                            " is not in the served store");
  }
  return v;
}

Result<Span<const double>> ServingSession::Psi(size_t target) const {
  if (snapshot_.num_psi() == 0) {
    return Status::FailedPrecondition(
        "serving: snapshot carries no psi sections; scoring needs a "
        "method that persists them (FoRWaRD)");
  }
  Span<const double> psi = snapshot_.psi(target);
  if (psi.empty()) {
    return Status::InvalidArgument(
        "serving: psi target " + std::to_string(target) + " out of range (" +
        std::to_string(snapshot_.num_psi()) + " available)");
  }
  return psi;
}

Result<double> ServingSession::Score(db::FactId f, db::FactId g,
                                     size_t target) const {
  STEDB_ASSIGN_OR_RETURN(Span<const double> psi, Psi(target));
  STEDB_ASSIGN_OR_RETURN(Span<const double> phi_f, Embed(f));
  STEDB_ASSIGN_OR_RETURN(Span<const double> phi_g, Embed(g));
  std::vector<double> u(dim());
  la::LeftProject(phi_f.data(), psi.data(), dim(), dim(), u.data());
  return la::Dot(u.data(), phi_g.data(), dim());
}

Result<std::vector<ServingSession::Scored>> ServingSession::TopK(
    db::FactId query, size_t k, size_t target) const {
  STEDB_ASSIGN_OR_RETURN(Span<const double> psi, Psi(target));
  STEDB_ASSIGN_OR_RETURN(Span<const double> phi_q, Embed(query));
  // ψᵀφ(q) does not depend on the candidate: project once, then each
  // candidate costs one dot. The bilinear score cannot use the
  // vector-space ANN index (SimilarTopK can), so the scan is exhaustive;
  // the heap's (score desc, fact id asc) order makes the result
  // independent of scan order.
  const size_t d = dim();
  std::vector<double> u(d);
  la::LeftProject(phi_q.data(), psi.data(), d, d, u.data());
  ml::TopKHeap<Scored> heap(k);
  for (size_t i = 0; i < snapshot_.num_embedded(); ++i) {
    const db::FactId g = snapshot_.fact_at(i);
    // A journal record for g supersedes its snapshot row; it is scored
    // with the overlay below.
    if (overlay_overrides_ > 0 && overlay_.count(g) != 0) continue;
    heap.Push({g, la::Dot(u.data(), snapshot_.phi_at(i).data(), d)});
  }
  for (const auto& [g, row] : overlay_) {
    heap.Push({g, la::Dot(u.data(), overlay_data_.data() + row * d, d)});
  }
  return std::move(heap).Take();
}

Result<std::vector<ServingSession::Scored>> ServingSession::SimilarTopK(
    db::FactId query, size_t k, const SimilarOptions& options) const {
  STEDB_ASSIGN_OR_RETURN(Span<const double> v, Embed(query));
  return SimilarTopK(v, k, options, query);
}

Result<std::vector<ServingSession::Scored>> ServingSession::SimilarTopK(
    Span<const double> query, size_t k, const SimilarOptions& options,
    db::FactId exclude) const {
  if (query.size() != dim()) {
    return Status::InvalidArgument(
        "SimilarTopK: query dimension " + std::to_string(query.size()) +
        " != served dimension " + std::to_string(dim()));
  }
  const ann::Metric metric = similarity_metric();
  // The exact scans score row by row against one query: its norm is
  // computed once, so each row costs its own norm plus the product.
  const double query_norm = ann::NormOf(metric, query.data(), dim());
  const auto exact_score = [&](const double* row) {
    return ann::PairScore(metric, query.data(), row, dim(), query_norm,
                          ann::NormOf(metric, row, dim()));
  };
  ml::TopKHeap<Scored> heap(k);
  if (options.approx && ann_view_.valid() && k > 0) {
    // Sublinear path: beam-search the mmap'd graph. Ask for enough hits
    // that dropping the excluded fact and any overlay-shadowed nodes
    // (whose indexed vectors are stale) still leaves k survivors.
    const size_t want = k + 1 + overlay_overrides_;
    const size_t base_ef =
        options.ef_search != 0 ? options.ef_search : kDefaultEfSearch;
    const ann::VectorSource vectors{snapshot_.phi_records() + 8,
                                    snapshot_.phi_stride()};
    ann::SearchStats stats;
    const std::vector<ann::ScoredNode> hits = ann_view_.Search(
        query.data(), want, std::max(base_ef, want), vectors, &stats);
    Metrics().ann_visited_nodes.Observe(static_cast<double>(stats.visited));
    for (const ann::ScoredNode& hit : hits) {
      const db::FactId f = snapshot_.fact_at(hit.node);
      if (f == exclude || overlay_.count(f) != 0) continue;
      heap.Push({f, hit.score});
    }
  } else {
    // Exact scan of the snapshot residents — no index, approx=false, or
    // k==0. Scores go through the same ann::PairScore → la::kernels path
    // the graph search uses, so exact and approximate results are
    // bit-comparable.
    for (size_t i = 0; i < snapshot_.num_embedded(); ++i) {
      const db::FactId f = snapshot_.fact_at(i);
      if (f == exclude || overlay_.count(f) != 0) continue;
      heap.Push({f, exact_score(snapshot_.phi_at(i).data())});
    }
  }
  // WAL-resident facts (and journal overwrites of indexed facts) are
  // merged from an exact side scan on both paths: the persisted graph
  // predates them, but freshness is never sacrificed for speed.
  for (const auto& [f, row] : overlay_) {
    if (f == exclude) continue;
    heap.Push({f, exact_score(overlay_data_.data() + row * dim())});
  }
  return std::move(heap).Take();
}

std::vector<db::FactId> ServingSession::ServedFacts() const {
  std::vector<db::FactId> facts;
  facts.reserve(snapshot_.num_embedded() + overlay_.size());
  for (size_t i = 0; i < snapshot_.num_embedded(); ++i) {
    facts.push_back(snapshot_.fact_at(i));
  }
  for (const auto& [f, row] : overlay_) {
    (void)row;
    if (snapshot_.phi(f).empty()) facts.push_back(f);
  }
  std::sort(facts.begin(), facts.end());
  return facts;
}

Status ServingSession::EmbedBatch(Span<const db::FactId> facts,
                                  la::MatrixView out) const {
  if (out.rows() != facts.size() || out.cols() != dim()) {
    return Status::InvalidArgument(
        "EmbedBatch: output shape must be facts x dim");
  }
  // Same gather helper as the in-memory embedders: large batches fan out
  // with ParallelFor (threads steered by STEDB_THREADS, like every
  // 0-default in this codebase).
  const size_t bad = la::GatherRows(
      facts.size(), dim(), /*threads=*/0, out,
      [&](size_t i) -> const double* {
        auto it = overlay_.find(facts[i]);
        if (it != overlay_.end()) {
          return overlay_data_.data() + it->second * dim();
        }
        Span<const double> v = snapshot_.phi(facts[i]);
        return v.empty() ? nullptr : v.data();
      });
  if (bad != facts.size()) {
    return Status::NotFound("fact " + std::to_string(facts[bad]) +
                            " is not in the served store");
  }
  return Status::OK();
}

}  // namespace stedb::api

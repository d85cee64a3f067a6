#ifndef STEDB_SERVE_SERVICE_H_
#define STEDB_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/serving.h"
#include "src/common/scoped_fd.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/serve/http.h"

namespace stedb::serve {

/// Knobs for EmbeddingService. Defaults are sized for a loopback service
/// in front of one store directory.
struct ServeOptions {
  /// HTTP worker threads (0 = ResolveThreadCount: STEDB_THREADS, else
  /// hardware concurrency).
  int http_threads = 0;
  /// WAL catch-up: the ticker thread Polls the shared session when the
  /// store directory's journal or snapshot changes (an inotify watch, on
  /// Linux) and, as the fallback for missed or unsupported events, every
  /// this many milliseconds. 0 disables the ticker and the watch — Poll
  /// only via PollNow(), for tests and single-shot drills.
  int poll_interval_ms = 20;
  /// Ceiling on /topk's and /similar's k and /facts' limit.
  size_t max_topk = 1024;
  /// HNSW base-layer beam width for /similar (0 = the library default,
  /// api::ServingSession::kDefaultEfSearch). Larger = better recall,
  /// slower queries. `stedb_serve --ef-search=N` sets it.
  size_t ef_search = 0;
  /// Ceiling on facts per /embed_batch request.
  size_t max_batch_facts = 65536;
  /// Runs on every ticker tick (every poll_interval_ms, not after the
  /// Polls a directory event triggers), after the Poll, outside the
  /// session lock. The flusher pattern for a co-located writer: a trainer
  /// embedding in the same process installs
  /// `[&store] { store mutex; store.SyncIfDue(); }` so an idle writer's
  /// group-commit tail becomes durable within the window even when no
  /// Append arrives to evaluate it (see store::EmbeddingStore::SyncIfDue).
  std::function<void()> tick_hook;
};

/// The networked embedding service: one shared api::ServingSession behind
/// an HttpServer.
///
/// Endpoints (all JSON unless `raw=1`, which returns the vector payload
/// as little-endian IEEE-754 doubles — the snapshot's own byte order —
/// for bit-exact transport):
///   GET /embed?fact=ID[&raw=1]        one φ vector
///   GET /embed_batch?facts=1,2,3      batch read (or POST ids in body)
///   GET /topk?fact=ID&k=K[&target=T]  φᵀψφ top-k over served facts
///   GET /similar?fact=ID&k=K[&approx=0]  nearest neighbors in embedding
///       space — sublinear via the snapshot's persisted HNSW index when
///       present, exact scan otherwise; approx=0 forces the exact scan
///   GET /facts[?limit=N]              served fact ids (load-gen seed)
///   GET /stats                        store shape (counters: /metrics)
///   GET /healthz                      liveness probe
///
/// Concurrency model: HTTP workers take the session lock shared; the
/// Poll ticker asks the session under the shared lock whether anything
/// is pending and takes it exclusive only then (Poll may remap the
/// snapshot and grow the overlay, invalidating served views). The ticker
/// wakes on a change to the store directory's journal or snapshot, or on
/// the next tick, whichever comes first. Concurrent single-fact
/// /embed lookups do NOT each hit the session: they are queued and a
/// dedicated coalescer thread drains the queue into one
/// ServingSession::EmbedBatch call per round — the group-commit pattern
/// applied to reads — so N concurrent lookups cost one batched fan-out
/// on the process pool instead of N scalar walks.
class EmbeddingService {
 public:
  /// Opens `<dir>` as a ServingSession and wires the endpoint handlers.
  /// The service starts serving on Start().
  static Result<std::unique_ptr<EmbeddingService>> Open(
      const std::string& dir, ServeOptions options = ServeOptions());

  ~EmbeddingService() { Stop(); }
  EmbeddingService(const EmbeddingService&) = delete;
  EmbeddingService& operator=(const EmbeddingService&) = delete;

  /// Binds and starts serving; port 0 picks an ephemeral port.
  Status Start(const std::string& host, int port);

  /// Stops the HTTP server and the ticker/coalescer threads. Idempotent.
  void Stop();

  int port() const { return http_.port(); }

  /// One synchronous tick: Poll the session now if it has anything
  /// pending (exclusive lock only then), then run the tick hook. Returns
  /// the number of WAL records applied.
  Result<size_t> PollNow() STEDB_EXCLUDES(session_mu_);

  size_t dim() const { return dim_; }

  /// Whether the ticker is woken by a live watch on the store directory.
  /// False with poll_interval_ms = 0 (no ticker at all), without inotify
  /// (the ticker runs on ticks alone), and once the watch is removed — by
  /// Stop() or with the directory.
  bool tailing_by_events() const {
    return watching_.load(std::memory_order_acquire);
  }

 private:
  using Clock = std::chrono::steady_clock;

  EmbeddingService(api::ServingSession session, ServeOptions options);

  void RegisterHandlers();
  void TickerLoop();
  /// Blocks until `deadline`, Stop(), or a watch event; true when an
  /// event named the journal or the snapshot.
  bool WaitForChange(Clock::time_point deadline) STEDB_EXCLUDES(ticker_mu_);
  /// PollNow without the tick hook; counts errors and logs one WARN line
  /// per error streak.
  Result<size_t> CatchUp() STEDB_EXCLUDES(session_mu_);
  void CoalescerLoop();

  /// One queued single-fact lookup awaiting the coalescer.
  struct PendingEmbed {
    db::FactId fact = db::kNoFact;
    la::Vector phi;
    Status status;
    /// Written by the coalescer, read by the waiting handler — both under
    /// embed_mu_. (A nested struct cannot spell STEDB_GUARDED_BY on the
    /// enclosing service's member, so the discipline is stated here.)
    bool done = false;
  };

  /// Blocks until the coalescer has served `fact`.
  PendingEmbed CoalescedEmbed(db::FactId fact) STEDB_EXCLUDES(embed_mu_);

  HttpResponse HandleEmbed(const HttpRequest& req);
  HttpResponse HandleEmbedBatch(const HttpRequest& req);
  HttpResponse HandleTopK(const HttpRequest& req);
  HttpResponse HandleSimilar(const HttpRequest& req);
  HttpResponse HandleFacts(const HttpRequest& req);
  HttpResponse HandleStats(const HttpRequest& req);
  HttpResponse HandleMetrics(const HttpRequest& req);

  ServeOptions options_;
  size_t dim_ = 0;
  std::string dir_;  ///< the store directory the session serves

  /// Shared session: HTTP readers shared, Poll exclusive. Lock ordering:
  /// session_mu_, embed_mu_ and ticker_mu_ are never held together —
  /// the coalescer drops embed_mu_ before taking session_mu_ for its
  /// round, and the ticker calls PollNow with ticker_mu_ released.
  mutable SharedMutex session_mu_;
  api::ServingSession session_ STEDB_GUARDED_BY(session_mu_);

  HttpServer http_;

  // Coalescer state.
  Mutex embed_mu_;
  std::condition_variable embed_work_cv_;  ///< wakes the coalescer
  std::condition_variable embed_done_cv_;  ///< wakes waiting handlers
  std::vector<PendingEmbed*> embed_queue_ STEDB_GUARDED_BY(embed_mu_);
  std::atomic<bool> stopping_{false};
  std::thread coalescer_;

  // Ticker state. ticker_mu_ guards no data; it exists for the cv's
  // timed waits when no watch is live, which is why nothing carries
  // STEDB_GUARDED_BY on it.
  Mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  /// The inotify instance and its one watch on the store directory
  /// (invalid / -1 when none). Stop() removes the watch, which queues
  /// IN_IGNORED and so ends the ticker's wait.
  ScopedFd watch_fd_;
  int watch_wd_ = -1;
  std::atomic<bool> watching_{false};
  /// Whether the last Poll failed: the WARN line marks a streak's start.
  std::atomic<bool> poll_failing_{false};
  std::thread ticker_;
};

/// Extracts every signed integer from `text` — the lenient fact-id list
/// parser behind /embed_batch ("1,2,3", "[1, 2, 3]", {"facts":[1,2]} all
/// parse the same). Stops after max_facts + 1 ids, so the caller can tell
/// an oversized batch; InvalidArgument, naming the id, when one of those
/// does not fit in a db::FactId. Exposed for tests.
Result<std::vector<db::FactId>> ParseFactList(const std::string& text,
                                              size_t max_facts);

}  // namespace stedb::serve

#endif  // STEDB_SERVE_SERVICE_H_

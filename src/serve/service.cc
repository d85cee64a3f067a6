#include "src/serve/service.h"

#if defined(__linux__)
#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string_view>
#include <utility>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/fwd/trainer.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/store/embedding_store.h"

namespace stedb::serve {

namespace {

/// Registry series of the serve layer, process-cumulative; GET /metrics
/// renders them. The per-endpoint request series live next to these but
/// are registered in RegisterHandlers, where the endpoint label value is
/// known.
struct ServeMetrics {
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter& embeds = reg.GetCounter(
      "stedb_serve_embeds_total", "Single-fact lookups served");
  obs::Counter& embed_batches = reg.GetCounter(
      "stedb_serve_embed_batches_total", "/embed_batch requests served");
  obs::Counter& coalesce_rounds = reg.GetCounter(
      "stedb_serve_coalesce_rounds_total",
      "EmbedBatch calls made by the coalescer");
  obs::Counter& topk_queries = reg.GetCounter(
      "stedb_serve_topk_queries_total", "/topk queries served");
  obs::Counter& similar_queries = reg.GetCounter(
      "stedb_serve_similar_queries_total",
      "/similar queries served (approximate and exact paths)");
  obs::Counter& polls = reg.GetCounter(
      "stedb_serve_polls_total", "ServingSession Poll() calls");
  obs::Counter& poll_errors = reg.GetCounter(
      "stedb_serve_poll_errors_total",
      "Failed WAL catch-ups (the pending check or the Poll itself)");
  obs::Counter& wal_records_applied = reg.GetCounter(
      "stedb_serve_wal_records_applied_total",
      "WAL records applied to the served overlay");
  obs::Counter& reopens = reg.GetCounter(
      "stedb_serve_reopens_total", "Compaction-triggered session reopens");
  obs::Gauge& inflight = reg.GetGauge(
      "stedb_serve_inflight_requests", "HTTP requests currently in flight");
  obs::Gauge& max_coalesced = reg.GetGauge(
      "stedb_serve_max_coalesced_records",
      "Largest single coalesced embed round seen by this process");
  obs::Histogram& coalesced_batch = reg.GetHistogram(
      "stedb_serve_coalesced_batch_records",
      "Lookups per coalesced embed round", obs::Buckets::PowersOfTwo());
};

ServeMetrics& Metrics() {
  static ServeMetrics m;
  return m;
}

[[maybe_unused]] const ServeMetrics& g_eager_metrics = Metrics();

/// Shortest round-tripping decimal for an IEEE double: 17 significant
/// digits reparse to the identical bits, which is what keeps the JSON
/// path bit-exact end to end (the demo drill asserts it).
void AppendJsonDouble(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void AppendJsonVector(std::string& out, Span<const double> v) {
  out.push_back('[');
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonDouble(out, v[i]);
  }
  out.push_back(']');
}

/// The snapshot format is little-endian IEEE-754; on the little-endian
/// hosts this library supports the in-memory bytes ARE the wire bytes.
void AppendRawVector(std::string& out, Span<const double> v) {
  out.append(reinterpret_cast<const char*>(v.data()),
             v.size() * sizeof(double));
}

int HttpStatusFor(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kFailedPrecondition: return 409;
    default: return 500;
  }
}

/// The one range check behind every fact id a request names: `v`, parsed
/// from `text`, as a db::FactId, or InvalidArgument (400) when it does
/// not fit in one. A narrowing cast would alias 2^32 to fact 0, and
/// strtoll saturates longer numbers to a value outside the range too.
Result<db::FactId> CheckedFactId(long long v, std::string_view text) {
  if (v < std::numeric_limits<db::FactId>::min() ||
      v > std::numeric_limits<db::FactId>::max()) {
    return Status::InvalidArgument("fact id " + std::string(text) +
                                   " is outside the 32-bit fact id range");
  }
  return static_cast<db::FactId>(v);
}

/// The `?fact=` parameter of /embed, /topk and /similar. A value that is
/// not a number reads as kNoFact, which no store serves (404).
Result<db::FactId> FactParam(const HttpRequest& req) {
  if (!req.HasParam("fact")) {
    return Status::InvalidArgument("missing ?fact=<id> parameter");
  }
  return CheckedFactId(req.ParamInt("fact", db::kNoFact), req.Param("fact"));
}

HttpResponse ErrorResponse(const Status& st) {
  std::string body = "{\"error\":\"";
  // Status messages here are ASCII diagnostics; escape the two JSON
  // breakers rather than pulling in a full escaper.
  for (char c : st.ToString()) {
    if (c == '"' || c == '\\') body.push_back('\\');
    body.push_back(c);
  }
  body += "\"}\n";
  return {HttpStatusFor(st), "application/json", std::move(body)};
}

#if defined(__linux__)
/// The name an inotify event gives for `path`: its last component.
std::string FileName(const std::string& path) {
  return std::filesystem::path(path).filename().string();
}

/// Reads every queued event off the non-blocking inotify `fd`. True when
/// one names the journal or the snapshot (or the queue overflowed and
/// dropped some); `*removed` turns true when the watch is gone.
bool DrainWatch(int fd, bool* removed) {
  static const std::string wal = FileName(store::EmbeddingStore::WalPath(""));
  static const std::string snapshot =
      FileName(store::EmbeddingStore::SnapshotPath(""));
  char buf[4096];
  bool changed = false;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return changed;  // EAGAIN: drained
    for (ssize_t off = 0; off < n;) {
      // Each record is a header followed by `len` bytes of NUL-padded name.
      struct inotify_event ev = {};
      std::memcpy(&ev, buf + off, sizeof(ev));
      const char* name = buf + off + sizeof(ev);
      if ((ev.mask & IN_IGNORED) != 0) *removed = true;
      if ((ev.mask & IN_Q_OVERFLOW) != 0 ||
          (ev.len > 0 && (wal == name || snapshot == name))) {
        changed = true;
      }
      off += static_cast<ssize_t>(sizeof(ev) + ev.len);
    }
  }
}
#endif

}  // namespace

Result<std::vector<db::FactId>> ParseFactList(const std::string& text,
                                              size_t max_facts) {
  std::vector<db::FactId> facts;
  const char* p = text.c_str();
  const char* end = p + text.size();
  while (p < end && facts.size() <= max_facts) {
    const bool digit_start =
        std::isdigit(static_cast<unsigned char>(*p)) ||
        (*p == '-' && p + 1 < end &&
         std::isdigit(static_cast<unsigned char>(p[1])));
    if (!digit_start) {
      ++p;
      continue;
    }
    char* after = nullptr;
    const long long v = std::strtoll(p, &after, 10);
    STEDB_ASSIGN_OR_RETURN(
        const db::FactId fact,
        CheckedFactId(v, std::string_view(p, static_cast<size_t>(after - p))));
    facts.push_back(fact);
    p = after;
  }
  return facts;
}

Result<std::unique_ptr<EmbeddingService>> EmbeddingService::Open(
    const std::string& dir, ServeOptions options) {
  STEDB_ASSIGN_OR_RETURN(api::ServingSession session,
                         api::ServingSession::Open(dir));
  std::unique_ptr<EmbeddingService> service(
      new EmbeddingService(std::move(session), std::move(options)));
  return service;
}

EmbeddingService::EmbeddingService(api::ServingSession session,
                                   ServeOptions options)
    : options_(std::move(options)),
      dim_(session.dim()),
      dir_(session.dir()),
      session_(std::move(session)) {
  // Read-only serving binaries never reference the store/trainer write
  // paths, so their eager metric registrations would be dropped by the
  // static linker; touching them here keeps the /metrics schema complete
  // (writer families render at zero instead of disappearing).
  store::TouchStoreMetrics();
  fwd::TouchTrainMetrics();
  RegisterHandlers();
  coalescer_ = std::thread([this] { CoalescerLoop(); });
  if (options_.poll_interval_ms <= 0) return;
#if defined(__linux__)
  // One watch on the directory, not on the two files: an append modifies
  // the journal, but Compact replaces both files by rename, which a watch
  // on the old inodes would never see. Where the watch cannot be set up
  // the ticker runs on ticks alone.
  watch_fd_.Reset(::inotify_init1(IN_NONBLOCK | IN_CLOEXEC));
  if (watch_fd_.valid()) {
    watch_wd_ = ::inotify_add_watch(watch_fd_.get(), dir_.c_str(),
                                    IN_MODIFY | IN_MOVED_TO | IN_ONLYDIR);
    watching_.store(watch_wd_ >= 0, std::memory_order_release);
  }
#endif
  ticker_ = std::thread([this] { TickerLoop(); });
}

Status EmbeddingService::Start(const std::string& host, int port) {
  return http_.Start(host, port, ResolveThreadCount(options_.http_threads));
}

void EmbeddingService::Stop() {
  if (stopping_.exchange(true)) return;
  // Order matters: the HTTP server drains first while the coalescer is
  // still alive, so in-flight /embed handlers blocked on a coalesced
  // round get their result instead of deadlocking the worker join.
  http_.Stop();
  {
    MutexLock lk(embed_mu_);
    embed_work_cv_.notify_all();
  }
  if (coalescer_.joinable()) coalescer_.join();
  {
    MutexLock lk(ticker_mu_);
    ticker_cv_.notify_all();
  }
#if defined(__linux__)
  // Removing the watch queues IN_IGNORED, which ends a wait on it.
  if (watch_wd_ >= 0) ::inotify_rm_watch(watch_fd_.get(), watch_wd_);
#endif
  if (ticker_.joinable()) ticker_.join();
}

Result<size_t> EmbeddingService::PollNow() {
  STEDB_ASSIGN_OR_RETURN(size_t applied, CatchUp());
  if (options_.tick_hook) options_.tick_hook();
  return applied;
}

Result<size_t> EmbeddingService::CatchUp() {
  Result<size_t> polled = [this]() -> Result<size_t> {
    {
      // Most checks find nothing new: asking under the shared lock keeps
      // them from stalling every reader behind an exclusive one.
      SharedMutexLock lk(session_mu_);
      STEDB_ASSIGN_OR_RETURN(bool pending, session_.Pending());
      if (!pending) return size_t{0};
    }
    WriterMutexLock lk(session_mu_);
    STEDB_ASSIGN_OR_RETURN(size_t applied, session_.Poll());
    Metrics().polls.Inc();
    Metrics().wal_records_applied.Inc(applied);
    if (session_.reopened()) Metrics().reopens.Inc();
    return applied;
  }();
  if (!polled.ok()) {
    // The vectors already served stay served; the next tick or event
    // retries. One line per streak, not one per tick.
    Metrics().poll_errors.Inc();
    if (!poll_failing_.exchange(true)) {
      STEDB_LOG(kWarn) << "serve: Poll of " << dir_
                       << " failed, serving what it has: "
                       << polled.status().ToString()
                       << " (stedb_serve_poll_errors_total counts repeats)";
    }
  } else if (poll_failing_.exchange(false)) {
    STEDB_LOG(kInfo) << "serve: Poll of " << dir_ << " succeeds again";
  }
  return polled;
}

void EmbeddingService::TickerLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.poll_interval_ms);
  // The watch was armed after the session opened: catch up whatever
  // changed in between, which raised no event.
  bool changed = tailing_by_events();
  auto next_tick = Clock::now() + interval;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (Clock::now() >= next_tick) {
      next_tick = Clock::now() + interval;
      PollNow();  // errors are counted and logged in CatchUp
    } else if (changed) {
      CatchUp();
    }
    changed = WaitForChange(next_tick);
  }
}

bool EmbeddingService::WaitForChange(Clock::time_point deadline) {
#if defined(__linux__)
  if (tailing_by_events()) {
    using Ms = std::chrono::milliseconds;
    const auto left = std::chrono::ceil<Ms>(deadline - Clock::now());
    const int timeout_ms = static_cast<int>(std::max<int64_t>(0, left.count()));
    struct pollfd pfd = {watch_fd_.get(), POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;  // tick due, or EINTR
    bool removed = false;
    const bool changed = DrainWatch(watch_fd_.get(), &removed);
    if (removed) watching_.store(false, std::memory_order_release);
    return changed;
  }
#endif
  UniqueMutexLock lk(ticker_mu_);
  ticker_cv_.wait_until(lk.native(), deadline, [this] {
    return stopping_.load(std::memory_order_acquire);
  });
  return false;
}

// ---- Request coalescing ------------------------------------------------

EmbeddingService::PendingEmbed EmbeddingService::CoalescedEmbed(
    db::FactId fact) {
  PendingEmbed slot;
  slot.fact = fact;
  UniqueMutexLock lk(embed_mu_);
  if (stopping_.load(std::memory_order_acquire)) {
    slot.status = Status::FailedPrecondition("service stopping");
    slot.done = true;
    return slot;
  }
  embed_queue_.push_back(&slot);
  embed_work_cv_.notify_one();
  while (!slot.done) embed_done_cv_.wait(lk.native());
  return slot;
}

void EmbeddingService::CoalescerLoop() {
  UniqueMutexLock lk(embed_mu_);
  for (;;) {
    while (embed_queue_.empty() &&
           !stopping_.load(std::memory_order_acquire)) {
      embed_work_cv_.wait(lk.native());
    }
    if (embed_queue_.empty() &&
        stopping_.load(std::memory_order_acquire)) {
      return;
    }
    // Take everything queued while the previous round ran — the natural
    // coalescing window, exactly like group commit.
    std::vector<PendingEmbed*> round;
    round.swap(embed_queue_);
    lk.Unlock();

    std::vector<db::FactId> facts;
    facts.reserve(round.size());
    for (PendingEmbed* slot : round) facts.push_back(slot->fact);
    la::Matrix out(round.size(), dim_);
    {
      SharedMutexLock slk(session_mu_);
      const Status st = session_.EmbedBatch(facts, out);
      if (st.ok()) {
        for (size_t i = 0; i < round.size(); ++i) {
          round[i]->phi.assign(out.RowPtr(i), out.RowPtr(i) + dim_);
        }
      } else {
        // One unknown fact fails the whole batch — resolve each request
        // individually so the other callers still get their vector.
        for (PendingEmbed* slot : round) {
          auto v = session_.Embed(slot->fact);
          if (v.ok()) {
            slot->phi.assign(v.value().begin(), v.value().end());
          } else {
            slot->status = v.status();
          }
        }
      }
    }
    ServeMetrics& m = Metrics();
    m.coalesce_rounds.Inc();
    m.embeds.Inc(round.size());
    m.coalesced_batch.Observe(static_cast<double>(round.size()));
    m.max_coalesced.SetMax(static_cast<double>(round.size()));

    lk.Lock();
    for (PendingEmbed* slot : round) slot->done = true;
    embed_done_cv_.notify_all();
  }
}

// ---- Handlers ----------------------------------------------------------

void EmbeddingService::RegisterHandlers() {
  // Every endpoint is wrapped with the same instrumentation: a request
  // counter and a latency histogram keyed by an `endpoint` label (the
  // path without the slash — label values stay identifier-shaped), plus
  // the shared in-flight gauge. Registration happens here, once per
  // endpoint; re-opening a service in the same process gets the same
  // series back, so the handler hot path never touches the registry map.
  const auto timed = [this](const char* path,
                            std::function<HttpResponse(const HttpRequest&)>
                                handler) {
    obs::Registry& reg = obs::Registry::Global();
    const std::string endpoint = path + 1;  // strip the leading '/'
    obs::Counter& requests = reg.GetCounter(
        "stedb_serve_requests_total", "HTTP requests by endpoint",
        {{"endpoint", endpoint}});
    obs::Histogram& latency = reg.GetHistogram(
        "stedb_serve_request_seconds", "HTTP request latency by endpoint",
        obs::Buckets::Latency(), {{"endpoint", endpoint}});
    http_.Handle(path, [&requests, &latency,
                        handler = std::move(handler)](const HttpRequest& r) {
      requests.Inc();
      Metrics().inflight.Add(1.0);
      HttpResponse resp;
      {
        obs::ScopedTimer timer(latency);
        resp = handler(r);
      }
      Metrics().inflight.Add(-1.0);
      return resp;
    });
  };
  timed("/embed", [this](const HttpRequest& r) { return HandleEmbed(r); });
  timed("/embed_batch",
        [this](const HttpRequest& r) { return HandleEmbedBatch(r); });
  timed("/topk", [this](const HttpRequest& r) { return HandleTopK(r); });
  timed("/similar",
        [this](const HttpRequest& r) { return HandleSimilar(r); });
  timed("/facts", [this](const HttpRequest& r) { return HandleFacts(r); });
  timed("/stats", [this](const HttpRequest& r) { return HandleStats(r); });
  timed("/metrics",
        [this](const HttpRequest& r) { return HandleMetrics(r); });
  timed("/healthz", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok\n"};
  });
}

HttpResponse EmbeddingService::HandleEmbed(const HttpRequest& req) {
  const Result<db::FactId> parsed = FactParam(req);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const db::FactId fact = parsed.value();
  PendingEmbed served = CoalescedEmbed(fact);
  if (!served.status.ok()) return ErrorResponse(served.status);

  if (req.ParamInt("raw", 0) != 0) {
    HttpResponse resp;
    resp.content_type = "application/octet-stream";
    AppendRawVector(resp.body, served.phi);
    return resp;
  }
  HttpResponse resp;
  resp.body = "{\"fact\":" + std::to_string(fact) +
              ",\"dim\":" + std::to_string(dim_) + ",\"phi\":";
  AppendJsonVector(resp.body, served.phi);
  resp.body += "}\n";
  return resp;
}

HttpResponse EmbeddingService::HandleEmbedBatch(const HttpRequest& req) {
  const std::string& source =
      req.HasParam("facts") ? req.Param("facts") : req.body;
  Result<std::vector<db::FactId>> parsed =
      ParseFactList(source, options_.max_batch_facts);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const std::vector<db::FactId>& facts = parsed.value();
  if (facts.empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "no fact ids in ?facts= or request body"));
  }
  if (facts.size() > options_.max_batch_facts) {
    return ErrorResponse(Status::InvalidArgument(
        "batch exceeds max_batch_facts=" +
        std::to_string(options_.max_batch_facts)));
  }
  la::Matrix out(facts.size(), dim_);
  {
    SharedMutexLock lk(session_mu_);
    const Status st = session_.EmbedBatch(facts, out);
    if (!st.ok()) return ErrorResponse(st);
  }
  Metrics().embed_batches.Inc();

  if (req.ParamInt("raw", 0) != 0) {
    HttpResponse resp;
    resp.content_type = "application/octet-stream";
    resp.body.reserve(facts.size() * dim_ * sizeof(double));
    for (size_t i = 0; i < facts.size(); ++i) {
      AppendRawVector(resp.body, Span<const double>(out.RowPtr(i), dim_));
    }
    return resp;
  }
  HttpResponse resp;
  resp.body = "{\"count\":" + std::to_string(facts.size()) +
              ",\"dim\":" + std::to_string(dim_) + ",\"rows\":[";
  for (size_t i = 0; i < facts.size(); ++i) {
    if (i > 0) resp.body.push_back(',');
    resp.body += "{\"fact\":" + std::to_string(facts[i]) + ",\"phi\":";
    AppendJsonVector(resp.body, Span<const double>(out.RowPtr(i), dim_));
    resp.body.push_back('}');
  }
  resp.body += "]}\n";
  return resp;
}

HttpResponse EmbeddingService::HandleTopK(const HttpRequest& req) {
  const Result<db::FactId> parsed = FactParam(req);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const db::FactId fact = parsed.value();
  const auto k = static_cast<size_t>(std::max<int64_t>(
      1, std::min<int64_t>(req.ParamInt("k", 10),
                           static_cast<int64_t>(options_.max_topk))));
  const auto target =
      static_cast<size_t>(std::max<int64_t>(0, req.ParamInt("target", 0)));

  Result<std::vector<api::ServingSession::Scored>> scored = [&] {
    SharedMutexLock lk(session_mu_);
    return session_.TopK(fact, k, target);
  }();
  if (!scored.ok()) return ErrorResponse(scored.status());
  Metrics().topk_queries.Inc();

  HttpResponse resp;
  resp.body = "{\"query\":" + std::to_string(fact) +
              ",\"target\":" + std::to_string(target) + ",\"results\":[";
  bool first = true;
  for (const api::ServingSession::Scored& s : scored.value()) {
    if (!first) resp.body.push_back(',');
    first = false;
    resp.body += "{\"fact\":" + std::to_string(s.fact) + ",\"score\":";
    AppendJsonDouble(resp.body, s.score);
    resp.body.push_back('}');
  }
  resp.body += "]}\n";
  return resp;
}

HttpResponse EmbeddingService::HandleSimilar(const HttpRequest& req) {
  const Result<db::FactId> parsed = FactParam(req);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const db::FactId fact = parsed.value();
  const auto k = static_cast<size_t>(std::max<int64_t>(
      1, std::min<int64_t>(req.ParamInt("k", 10),
                           static_cast<int64_t>(options_.max_topk))));
  api::SimilarOptions opts;
  opts.ef_search = options_.ef_search;
  opts.approx = req.ParamInt("approx", 1) != 0;

  bool approx_served = false;
  Result<std::vector<api::ServingSession::Scored>> scored = [&] {
    SharedMutexLock lk(session_mu_);
    approx_served = opts.approx && session_.has_ann_index();
    return session_.SimilarTopK(fact, k, opts);
  }();
  if (!scored.ok()) return ErrorResponse(scored.status());
  Metrics().similar_queries.Inc();

  HttpResponse resp;
  resp.body = "{\"query\":" + std::to_string(fact) + ",\"approx\":" +
              (approx_served ? "true" : "false") + ",\"results\":[";
  bool first = true;
  for (const api::ServingSession::Scored& s : scored.value()) {
    if (!first) resp.body.push_back(',');
    first = false;
    resp.body += "{\"fact\":" + std::to_string(s.fact) + ",\"score\":";
    AppendJsonDouble(resp.body, s.score);
    resp.body.push_back('}');
  }
  resp.body += "]}\n";
  return resp;
}

HttpResponse EmbeddingService::HandleFacts(const HttpRequest& req) {
  const auto limit = static_cast<size_t>(std::max<int64_t>(
      0, req.ParamInt("limit",
                      static_cast<int64_t>(options_.max_batch_facts))));
  std::vector<db::FactId> facts;
  size_t total = 0;
  {
    SharedMutexLock lk(session_mu_);
    facts = session_.ServedFacts();
  }
  total = facts.size();
  if (facts.size() > limit) facts.resize(limit);

  HttpResponse resp;
  resp.body = "{\"count\":" + std::to_string(total) + ",\"facts\":[";
  for (size_t i = 0; i < facts.size(); ++i) {
    if (i > 0) resp.body.push_back(',');
    resp.body += std::to_string(facts[i]);
  }
  resp.body += "]}\n";
  return resp;
}

HttpResponse EmbeddingService::HandleStats(const HttpRequest&) {
  size_t num_embedded = 0, wal_records = 0, num_psi = 0;
  bool ann_index = false;
  {
    SharedMutexLock lk(session_mu_);
    num_embedded = session_.num_embedded();
    wal_records = session_.wal_records();
    num_psi = session_.num_psi();
    ann_index = session_.has_ann_index();
  }
  // The beam width /similar actually runs with (the option, or the
  // library default when unset).
  const size_t ef_search =
      options_.ef_search != 0 ? options_.ef_search
                              : api::ServingSession::kDefaultEfSearch;
  HttpResponse resp;
  resp.body = "{\"num_embedded\":" + std::to_string(num_embedded) +
              ",\"dim\":" + std::to_string(dim_) +
              ",\"wal_records\":" + std::to_string(wal_records) +
              ",\"num_psi\":" + std::to_string(num_psi) +
              ",\"ann_index\":" + (ann_index ? "true" : "false") +
              ",\"ef_search\":" + std::to_string(ef_search) + "}\n";
  return resp;
}

HttpResponse EmbeddingService::HandleMetrics(const HttpRequest&) {
  HttpResponse resp;
  // The Prometheus text exposition version tag; scrapers key parsing off
  // it, and plain consumers still see text/plain.
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  obs::RenderPrometheus(&resp.body);
  return resp;
}

}  // namespace stedb::serve

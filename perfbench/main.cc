// stedb benchmark: one process runs one workload end to end and writes a
// JSON report. run.py builds this binary, runs it and prints the result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Every workload runs the same pipeline on the genes dataset (scale 0.5,
// 50% of the prediction tuples held out as new):
//   setup    generate + partition, then create the store and start the
//            HTTP service (each repeated, median kept)
//   train    FoRWaRD static training on F_old
//   window   S seconds in kSlices slices; each slice replays its share of
//            F_new (ReplayBatch, ExtendToFacts, journal under group commit,
//            Compact every few arrivals) and runs its share of the reads
//            (closed-loop HTTP clients: a point-read mix, then /topk)
//   train    again on a copy of F_old, which must reproduce every vector
//   verify   stability and journal drift, bit-identical serving, recall
//            against the exact scan, accuracy on the new tuples
// The workloads differ in where the time goes (see kWorkloads).
//
// With --trace 1 the workload runs twice in one process, each time with
// half the window: untraced, then traced (spans around every call into a
// layer) for the per-layer numbers; the difference is the tracing
// overhead.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/api/serving.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/data/registry.h"
#include "src/exp/embedding_method.h"
#include "src/exp/partition.h"
#include "src/exp/static_experiment.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"
#include "src/la/kernels.h"
#include "src/ml/svm.h"
#include "src/obs/metrics.h"
#include "src/serve/http.h"
#include "src/serve/service.h"
#include "src/store/embedding_store.h"
#include "src/store/wal.h"
#include "stats.h"
#include "trace.h"

using namespace stedb;
using perfbench::LatencySample;
using perfbench::TraceScope;
using perfbench::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kDataset[] = "genes";
constexpr double kDataScale = 0.5;
constexpr double kNewRatio = 0.5;
constexpr int kHttpThreads = 2;
constexpr int kClients = 2;
constexpr size_t kBatchFacts = 32;
constexpr size_t kK = 10;
constexpr size_t kGroupCommitRecords = 16;
/// Setup runs at least kSetupReps times and, while cheap, until
/// kSetupBudgetS has passed (at most kMaxSetupReps); setup_s is the median.
constexpr int kSetupReps = 3;
constexpr int kMaxSetupReps = 15;
constexpr double kSetupBudgetS = 0.5;
/// Fact ids of the padding vectors in serve_read's store; far above any id
/// the database hands out, so arrivals never collide with them.
constexpr db::FactId kPadBase = 1000000000;
constexpr size_t kRecallQueries = 200;
constexpr size_t kReplayPerEndpoint = 500;
constexpr double kRecallFloor = 0.9;
/// The /embed tail percentile the end-to-end report gates. Across runs on
/// a shared 4-vCPU machine the p99 moved by a third while p50 moved by
/// 2%; p90 is the tail that stays steady enough to bound. The report's
/// details keep the whole-window p99.
constexpr double kTail = 0.9;

/// The --seconds window is cut into kSlices equal slices, and every slice
/// does its share of each activity, so each metric samples the whole
/// window rather than one stretch of it. On a shared machine the clock
/// speed drifts over seconds; spreading the work averages over it.
constexpr int kSlices = 20;

struct Workload {
  const char* name;
  /// Pads the served store to this many facts with jittered copies of the
  /// trained vectors (0: serve the trained F_old only).
  size_t served_facts;
  /// Open-loop (Poisson) arrivals per second, with the read clients
  /// running alongside; 0 runs arrivals back to back (closed loop), each
  /// Polled and read back before the next starts.
  double arrival_rate;
  /// Arrivals between Compact calls; 0 compacts once after the last.
  size_t compact_every;
  /// Share of each slice the clients read; the rest is left to arrivals.
  double read_share;
  /// Share of the read time spent on /topk (phase B) after the mix.
  double topk_share;
};

// serve_read: the paper's dynamic protocol (closed-loop arrivals, no
//   reads while extending) interleaved with reads of a 2x10^4-fact store
//   with an HNSW index: each slice replays its arrivals, then reads.
// serve_live: Poisson arrivals at 10/s while the clients read a small
//   store; freshness is probed on every request.
constexpr Workload kWorkloads[] = {
    {"serve_read", 20000, 0.0, 0, 0.9, 0.4},
    {"serve_live", 0, 10.0, 16, 1.0, 0.05},
};

/// Static trainings per run: one before the arrivals, the rest after the
/// window (on a copy of F_old), so train_s, their median, samples more
/// than one stretch of the run. Each repeat must match the first bit for
/// bit.
constexpr int kTrainReps = 2;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool MoreSetup(size_t reps_done, Clock::time_point t0) {
  return reps_done < kSetupReps ||
         (reps_done < kMaxSetupReps && Since(t0) < kSetupBudgetS);
}

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(1);
}

// ---- obs readers ---------------------------------------------------------

uint64_t CounterValue(const char* name, const obs::Labels& labels = {}) {
  const obs::Counter* c = obs::Registry::Global().FindCounter(name, labels);
  return c != nullptr ? c->Value() : 0;
}

struct HistTotals {
  uint64_t count = 0;
  double sum = 0.0;
  HistTotals operator-(const HistTotals& o) const {
    return {count - o.count, sum - o.sum};
  }
  double Mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

HistTotals HistValue(const char* name, const obs::Labels& labels = {}) {
  const obs::Histogram* h =
      obs::Registry::Global().FindHistogram(name, labels);
  return h != nullptr ? HistTotals{h->Count(), h->Sum()} : HistTotals{};
}

/// The obs series the per-layer metrics difference across a pass.
struct ObsSnapshot {
  uint64_t fanouts = CounterValue("stedb_parallel_fanouts_total");
  uint64_t tasks = CounterValue("stedb_parallel_tasks_total");
  uint64_t fsyncs = CounterValue("stedb_store_fsyncs_total");
  uint64_t wal_bytes = CounterValue("stedb_store_wal_bytes_total");
  uint64_t polls = CounterValue("stedb_serving_polls_total");
  uint64_t applied = CounterValue("stedb_serving_wal_records_applied_total");
  uint64_t reopens = CounterValue("stedb_serving_reopens_total");
  uint64_t cache_hits = CounterValue("stedb_train_dist_cache_lookups_total",
                                     {{"result", "hit"}});
  uint64_t cache_misses = CounterValue(
      "stedb_train_dist_cache_lookups_total", {{"result", "miss"}});
  HistTotals epochs = HistValue("stedb_train_epoch_seconds");
  HistTotals ann_build = HistValue("stedb_store_ann_build_seconds");
  HistTotals visited = HistValue("stedb_ann_visited_nodes");
  HistTotals coalesced = HistValue("stedb_serve_coalesced_batch_records");
  HistTotals poll_seconds = HistValue("stedb_serving_poll_seconds");
};

// ---- HTTP helpers --------------------------------------------------------

enum Endpoint { kEmbed, kEmbedBatch, kSimilar, kTopk, kProbe, kNumEndpoints };
constexpr const char* kEndpointNames[kNumEndpoints] = {
    "embed", "embed_batch", "similar", "topk", "probe"};
constexpr const char* kServeSpans[kNumEndpoints] = {
    "serve.embed", "serve.embed_batch", "serve.similar", "serve.topk",
    "serve.probe"};

bool SameBytes(const std::string& body, const double* v, size_t n) {
  return body.size() == n * sizeof(double) &&
         std::memcmp(body.data(), v, body.size()) == 0;
}

/// Fact ids listed in a /similar or /topk response body.
std::vector<db::FactId> ResultFacts(const std::string& body) {
  std::vector<db::FactId> out;
  size_t pos = body.find("\"results\"");
  const std::string key = "{\"fact\":";
  while (pos != std::string::npos) {
    pos = body.find(key, pos);
    if (pos == std::string::npos) break;
    pos += key.size();
    out.push_back(static_cast<db::FactId>(std::atoll(body.c_str() + pos)));
  }
  return out;
}

std::string EmbedTarget(db::FactId f) {
  return "/embed?raw=1&fact=" + std::to_string(f);
}

// ---- per-pass state --------------------------------------------------------

/// Arrivals published by the writer to the probing readers. Slots are
/// filled before `acked` is advanced past them (release/acquire).
struct LiveFeed {
  std::vector<db::FactId> fact;
  std::vector<la::Vector> phi;
  std::vector<perfbench::Arrival> times;  ///< due/issued by the writer
  std::atomic<size_t> acked{0};
  std::atomic<size_t> seen{0};
  Clock::time_point t0;
};

/// What one client thread measured.
struct ClientLog {
  LatencySample lat[kNumEndpoints];
  uint64_t attempted[kNumEndpoints] = {};
  uint64_t failed[kNumEndpoints] = {};
  uint64_t mismatches = 0;
  /// Requests kept for the api replay and the recall check.
  std::vector<db::FactId> queries[kNumEndpoints];
  std::vector<std::vector<db::FactId>> batches;
  std::vector<std::pair<size_t, double>> seen;  ///< arrival, visible_s
  /// Mix requests completed in each slice of the window.
  std::vector<uint64_t> mix_done = std::vector<uint64_t>(kSlices, 0);
  /// Each (client, slice) /embed tail percentile that rests on >= 10
  /// samples beyond it.
  std::vector<double> embed_slice_tail;
};

struct ClientContext {
  int port = 0;
  const std::vector<db::FactId>* query_facts = nullptr;
  const fwd::ForwardModel* served = nullptr;  ///< read-only during reads
  size_t dim = 0;
  LiveFeed* feed = nullptr;  ///< non-null: probe arrivals on every request
  Tracer* tracer = nullptr;
  uint64_t seed = 0;
};

/// Probes the newest acknowledged arrival once; records when it is first
/// seen. A 404 means not yet visible and is retried on the next request.
void ProbeNewest(serve::HttpClient& conn, const ClientContext& ctx,
                 ClientLog& log) {
  LiveFeed& feed = *ctx.feed;
  const size_t acked = feed.acked.load(std::memory_order_acquire);
  size_t seen = feed.seen.load(std::memory_order_acquire);
  if (acked <= seen) return;
  const size_t idx = acked - 1;
  ++log.attempted[kProbe];
  Result<serve::HttpResponse> resp = [&] {
    TraceScope span(*ctx.tracer, kServeSpans[kProbe], idx);
    return conn.Get(EmbedTarget(feed.fact[idx]));
  }();
  if (!resp.ok() || (resp.value().status != 200 &&
                     resp.value().status != 404)) {
    ++log.failed[kProbe];
    return;
  }
  if (resp.value().status == 404) return;
  const double visible = Since(feed.t0);
  if (!SameBytes(resp.value().body, feed.phi[idx].data(), ctx.dim)) {
    ++log.mismatches;
    return;
  }
  // Journal order is Poll order: every arrival acknowledged before the
  // newest one was visible by the time it was.
  while (seen < acked) {
    if (feed.seen.compare_exchange_weak(seen, acked)) {
      for (size_t j = seen; j < acked; ++j) log.seen.emplace_back(j, visible);
      return;
    }
  }
}

Clock::time_point At(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

/// When the clients read: `slices` slices of `slice_s` from `start`; each
/// slice runs the point-read mix for its first `mix_share`, then /topk
/// for the next `topk_share`, then idles. Clients read the clock, so they
/// switch phase together.
struct Schedule {
  Clock::time_point start;
  double slice_s = 0.0;
  int slices = 1;
  double mix_share = 1.0;
  double topk_share = 0.0;
  /// The window slice the schedule's first slice is; also picks the
  /// clients' random request streams.
  int first_slice = 0;

  double mix_seconds() const { return slices * slice_s * mix_share; }
  Clock::time_point end() const { return At(start, slices * slice_s); }
};

/// One closed-loop client on its own keep-alive connection.
void RunClient(int id, const Schedule& plan, const ClientContext& ctx,
               serve::HttpClient& conn, ClientLog* log) {
  Rng rng(Rng::MixSeed(ctx.seed, static_cast<uint64_t>(plan.first_slice)
                                      << 8 | static_cast<uint64_t>(id)));
  const std::vector<db::FactId>& facts = *ctx.query_facts;
  uint64_t request = 0;
  LatencySample slice_embed;
  int slice_id = plan.first_slice;
  auto end_slice = [&] {
    if (perfbench::SupportedPercentile(slice_embed.count(), {kTail}) > 0) {
      log->embed_slice_tail.push_back(slice_embed.At(kTail));
    }
    slice_embed = LatencySample();
  };
  for (Clock::time_point now = Clock::now(); now < plan.end();
       now = Clock::now()) {
    const double at = std::chrono::duration<double>(now - plan.start).count();
    const double slice = std::floor(at / plan.slice_s);
    const double offset = at / plan.slice_s - slice;
    const int id_now =
        std::min(kSlices - 1, plan.first_slice + static_cast<int>(slice));
    if (id_now != slice_id) {
      end_slice();
      slice_id = id_now;
    }
    if (offset >= plan.mix_share + plan.topk_share) {
      std::this_thread::sleep_until(At(plan.start, (slice + 1) * plan.slice_s));
      continue;
    }
    if (ctx.feed != nullptr) ProbeNewest(conn, ctx, *log);
    Endpoint ep = kTopk;
    if (offset < plan.mix_share) {
      const double u = rng.NextDouble();
      ep = u < 0.8 ? kEmbed : u < 0.9 ? kEmbedBatch : kSimilar;
    }
    std::string target;
    std::vector<db::FactId> batch;
    const db::FactId fact = facts[rng.NextIndex(facts.size())];
    switch (ep) {
      case kEmbed:
        target = EmbedTarget(fact);
        break;
      case kEmbedBatch:
        target = "/embed_batch?raw=1&facts=";
        for (size_t j = 0; j < kBatchFacts; ++j) {
          batch.push_back(facts[rng.NextIndex(facts.size())]);
          if (j > 0) target += "%2C";
          target += std::to_string(batch.back());
        }
        break;
      case kSimilar:
        target = "/similar?k=" + std::to_string(kK) +
                 "&fact=" + std::to_string(fact);
        break;
      default:
        target = "/topk?k=" + std::to_string(kK) +
                 "&fact=" + std::to_string(fact);
        break;
    }
    ++log->attempted[ep];
    const Clock::time_point start = Clock::now();
    Result<serve::HttpResponse> resp = [&] {
      TraceScope span(*ctx.tracer, kServeSpans[ep],
                (static_cast<uint64_t>(id) << 48) | request++);
      return conn.Get(target);
    }();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
    if (!resp.ok() || resp.value().status != 200) {
      ++log->failed[ep];
      ++log->lat[ep].failed;
      if (ep == kEmbed) ++slice_embed.failed;
      if (!resp.ok()) {  // the connection is gone; reconnect
        auto again = serve::HttpClient::Connect("127.0.0.1", ctx.port);
        if (!again.ok()) return;
        conn = std::move(again).value();
      }
      continue;
    }
    const std::string& body = resp.value().body;
    bool right = true;
    if (ep == kEmbed) {
      const la::Vector* phi = ctx.served->FindPhi(fact);
      right = phi != nullptr && SameBytes(body, phi->data(), ctx.dim);
    } else if (ep == kEmbedBatch) {
      right = body.size() == kBatchFacts * ctx.dim * sizeof(double);
      for (size_t j = 0; right && j < kBatchFacts; ++j) {
        const la::Vector* phi = ctx.served->FindPhi(batch[j]);
        right = phi != nullptr &&
                std::memcmp(body.data() + j * ctx.dim * sizeof(double),
                            phi->data(), ctx.dim * sizeof(double)) == 0;
      }
    } else {
      right = ResultFacts(body).size() == kK;
    }
    if (!right) {
      ++log->mismatches;
      ++log->failed[ep];
      ++log->lat[ep].failed;
      if (ep == kEmbed) ++slice_embed.failed;
      continue;
    }
    log->lat[ep].ok.push_back(static_cast<float>(us));
    if (ep == kEmbed) slice_embed.ok.push_back(static_cast<float>(us));
    if (ep != kTopk) ++log->mix_done[static_cast<size_t>(slice_id)];
    if (log->queries[ep].size() < kReplayPerEndpoint) {
      if (ep == kEmbedBatch) {
        log->batches.push_back(std::move(batch));
      }
      log->queries[ep].push_back(fact);
    }
  }
  end_slice();
}

void MergeInto(ClientLog& into, ClientLog&& from) {
  for (int e = 0; e < kNumEndpoints; ++e) {
    auto& ok = into.lat[e].ok;
    ok.reserve(ok.size() + from.lat[e].ok.size());
    ok.insert(ok.end(), from.lat[e].ok.begin(), from.lat[e].ok.end());
    into.lat[e].failed += from.lat[e].failed;
    into.attempted[e] += from.attempted[e];
    into.failed[e] += from.failed[e];
    into.queries[e].insert(into.queries[e].end(), from.queries[e].begin(),
                           from.queries[e].end());
  }
  into.mismatches += from.mismatches;
  for (auto& b : from.batches) into.batches.push_back(std::move(b));
  into.seen.insert(into.seen.end(), from.seen.begin(), from.seen.end());
  for (size_t k = 0; k < into.mix_done.size(); ++k) {
    into.mix_done[k] += from.mix_done[k];
  }
  into.embed_slice_tail.insert(into.embed_slice_tail.end(),
                               from.embed_slice_tail.begin(),
                               from.embed_slice_tail.end());
}

/// Runs one closed-loop client per connection through `plan`; merges
/// their logs.
ClientLog RunClients(const Schedule& plan, const ClientContext& ctx,
                     std::vector<serve::HttpClient>& conns) {
  std::vector<ClientLog> logs(conns.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back(RunClient, static_cast<int>(c), std::cref(plan),
                         std::cref(ctx), std::ref(conns[c]), &logs[c]);
  }
  for (std::thread& t : threads) t.join();
  ClientLog all;
  for (ClientLog& l : logs) MergeInto(all, std::move(l));
  return all;
}

/// Sum and count of one endpoint's handler histogram in a /metrics text.
HistTotals ScrapeHandler(const std::string& text, const char* endpoint) {
  HistTotals h;
  const std::string label = std::string("{endpoint=\"") + endpoint + "\"} ";
  for (const char* field : {"sum", "count"}) {
    const std::string key =
        std::string("stedb_serve_request_seconds_") + field + label;
    const size_t pos = text.find(key);
    if (pos == std::string::npos) continue;
    const double v = std::atof(text.c_str() + pos + key.size());
    if (field[0] == 's') {
      h.sum = v;
    } else {
      h.count = static_cast<uint64_t>(v);
    }
  }
  return h;
}

/// Handler time (sum, count) over the four read endpoints, via GET /metrics.
std::optional<HistTotals> ScrapeHandlers(serve::HttpClient& conn) {
  auto resp = conn.Get("/metrics");
  if (!resp.ok() || resp.value().status != 200) return std::nullopt;
  HistTotals total;
  for (int e = 0; e < kProbe; ++e) {
    const HistTotals h = ScrapeHandler(resp.value().body, kEndpointNames[e]);
    total.sum += h.sum;
    total.count += h.count;
  }
  return total;
}

// ---- report ----------------------------------------------------------------

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct PassResult {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::map<std::string, OpCount> ops;
  std::vector<std::pair<std::string, std::string>> failed_checks;
  std::map<std::string, std::string> descriptors;
  std::map<std::string, double> extra;  ///< sample counts, lateness, ...
};

void Check(PassResult& r, bool ok, const std::string& name,
           const std::string& detail) {
  if (!ok) r.failed_checks.emplace_back(name, detail);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Us(double seconds) { return seconds * 1e6; }

/// Max |a - b| over two vectors (infinity on a length mismatch).
double MaxAbsDiff(const double* a, const double* b, size_t n_a, size_t n_b) {
  if (n_a != n_b) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (size_t i = 0; i < n_a; ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

// ---- one pass --------------------------------------------------------------

PassResult RunPass(const Workload& w, uint64_t seed, double seconds,
                   bool traced, const std::string& out_dir) {
  Tracer tracer(traced);
  PassResult r;
  const ObsSnapshot pass_start;
  const std::string store_dir =
      out_dir + "/store-" + w.name + (traced ? "-traced" : "");

  // -- setup, part 1: generate and partition (median of kSetupReps).
  std::vector<double> gen_s;
  std::optional<data::GeneratedDataset> ds;
  std::optional<exp::DynamicPartition> part;
  for (const Clock::time_point t0 = Clock::now(); MoreSetup(gen_s.size(), t0);) {
    const Clock::time_point t = Clock::now();
    data::GenConfig gen;
    gen.seed = seed;
    gen.scale = kDataScale;
    auto made = data::MakeDataset(kDataset, gen);
    if (!made.ok()) Die("dataset", made.status());
    Rng rng(Rng::MixSeed(seed, 0x9A27));
    auto split = exp::PartitionDynamic(made.value().database,
                                       made.value().pred_rel,
                                       made.value().pred_attr, kNewRatio,
                                       rng);
    if (!split.ok()) Die("partition", split.status());
    gen_s.push_back(Since(t));
    ds.emplace(std::move(made).value());
    part.emplace(std::move(split).value());
  }
  db::Database& database = ds->database;

  // -- train on F_old.
  fwd::ForwardConfig fcfg =
      exp::MethodConfig::ForScale(exp::RunScale::kDefault).forward;
  fcfg.seed = Rng::MixSeed(seed, 0x7EA1);
  const db::Database old_db = database;  // F_old, for the repeat trainings
  std::vector<double> train_s;
  auto train = [&](const db::Database* on) {
    const Clock::time_point t = Clock::now();
    auto made = [&] {
      TraceScope span(tracer, "fwd.train");
      return fwd::ForwardEmbedder::TrainStatic(on, ds->pred_rel,
                                               exp::LabelExclusion(*ds), fcfg);
    }();
    train_s.push_back(Since(t));
    if (!made.ok()) Die("train", made.status());
    return std::move(made).value();
  };
  const ObsSnapshot before_train;
  fwd::ForwardEmbedder embedder = train(&database);
  const ObsSnapshot after_train;
  const std::unordered_map<db::FactId, la::Vector> trained_phi =
      embedder.model().all_phi();
  const size_t dim = embedder.dim();

  // Classifier on the F_old prediction tuples.
  ml::LabelEncoder encoder;
  for (const std::string& name : ds->class_names) encoder.Encode(name);
  const std::vector<db::FactId>& old_facts = part->old_pred_facts;
  la::Matrix old_vecs(old_facts.size(), dim);
  if (Status st = embedder.EmbedBatch(old_facts, old_vecs); !st.ok()) {
    Die("embed F_old", st);
  }
  ml::FeatureDataset train_set;
  for (size_t i = 0; i < old_facts.size(); ++i) {
    train_set.Add(old_vecs.Row(i),
                  encoder.Encode(database.value(old_facts[i], ds->pred_attr)
                                     .ToString()));
  }
  train_set.num_classes = encoder.num_classes();
  std::unique_ptr<ml::Classifier> clf =
      ml::MakeClassifier(ml::ClassifierKind::kLogistic, seed + 17);
  if (Status st = clf->Fit(train_set); !st.ok()) Die("classifier", st);

  // The served model: the trained one, padded with jittered copies.
  fwd::ForwardModel served = embedder.model();
  if (w.served_facts > served.num_embedded()) {
    const std::vector<db::FactId> base = served.SortedFacts();
    Rng jitter(Rng::MixSeed(seed, 0x717E));
    const size_t pad = w.served_facts - base.size();
    for (size_t i = 0; i < pad; ++i) {
      la::Vector v = served.phi(base[i % base.size()]);
      for (double& x : v) x += jitter.NextGaussian(0.0, 0.05);
      served.set_phi(kPadBase + static_cast<db::FactId>(i), std::move(v));
    }
  }
  const std::vector<db::FactId> query_facts = served.SortedFacts();

  // -- setup, part 2: create the store and start the service.
  store::StoreOptions sopts;
  sopts.sync_every_append = true;
  sopts.group_commit_bytes =
      kGroupCommitRecords * store::WalWriter::RecordBytes(dim);
  sopts.build_ann_index = true;

  // The writer and the tick hook (on the service's ticker thread) share
  // the store; store_mu guards it and the hook's counters.
  std::mutex store_mu;
  std::optional<store::EmbeddingStore> store;
  OpCount tick_syncs;
  serve::ServeOptions serve_opts;
  serve_opts.http_threads = kHttpThreads;
  serve_opts.tick_hook = [&] {
    std::lock_guard<std::mutex> lock(store_mu);
    if (!store) return;
    TraceScope span(tracer, "store.sync");
    tick_syncs.attempted++;
    if (!store->SyncIfDue().ok()) tick_syncs.failed++;
  };

  std::vector<double> setup2_s;
  std::unique_ptr<serve::EmbeddingService> service;
  for (const Clock::time_point t0 = Clock::now();
       MoreSetup(setup2_s.size(), t0);) {
    if (service) service->Stop();
    service.reset();
    {
      std::lock_guard<std::mutex> lock(store_mu);
      store.reset();
    }
    std::filesystem::remove_all(store_dir);
    const Clock::time_point t = Clock::now();
    auto created = [&] {
      TraceScope span(tracer, "store.create");
      return fwd::CreateForwardStore(store_dir, served, sopts);
    }();
    if (!created.ok()) Die("create store", created.status());
    {
      std::lock_guard<std::mutex> lock(store_mu);
      store.emplace(std::move(created).value());
    }
    auto opened = serve::EmbeddingService::Open(store_dir, serve_opts);
    if (!opened.ok()) Die("open service", opened.status());
    service = std::move(opened).value();
    if (Status st = service->Start("127.0.0.1", 0); !st.ok()) {
      Die("start service", st);
    }
    setup2_s.push_back(Since(t));
  }
  // The service gives each keep-alive connection a worker until it closes,
  // so with http_threads == kClients every request of the pass, the
  // writer's and the checks' too, goes over these connections; one more
  // would wait for a free worker.
  const int port = service->port();
  std::vector<serve::HttpClient> conns;
  for (int c = 0; c < kClients; ++c) {
    auto conn = serve::HttpClient::Connect("127.0.0.1", port);
    if (!conn.ok()) Die("connect", conn.status());
    conns.push_back(std::move(conn).value());
  }
  const std::optional<HistTotals> handlers_before = ScrapeHandlers(conns[0]);

  // -- arrivals.
  // Open loop: Poisson due times over the first 90% of the window, so
  // arrivals cannot phase-lock with the service's periodic Poll ticker.
  const size_t n_batches = part->batches.size();
  std::vector<double> due;
  if (w.arrival_rate > 0.0) {
    Rng gaps(Rng::MixSeed(seed, 0xA221));
    double t = 0.0;
    while (due.size() < n_batches) {
      t += -std::log(1.0 - gaps.NextDouble()) / w.arrival_rate;
      if (t >= 0.9 * seconds) break;
      due.push_back(t);
    }
  }
  const size_t n_arrivals = w.arrival_rate > 0.0 ? due.size() : n_batches;
  LiveFeed feed;
  feed.fact.assign(n_arrivals, db::kNoFact);
  feed.phi.assign(n_arrivals, la::Vector());
  feed.times.assign(n_arrivals, perfbench::Arrival());
  for (size_t i = 0; i < due.size(); ++i) feed.times[i].due_s = due[i];

  std::vector<double> compact_ms, compact_self_ms;
  LatencySample extend_us;
  std::vector<db::FactId> new_pred;
  embedder.set_extension_sink([&](db::FactId f, const la::Vector& phi) {
    std::lock_guard<std::mutex> lock(store_mu);
    TraceScope span(tracer, "store.append");
    return store->Append(f, phi);
  });
  auto compact = [&] {
    std::lock_guard<std::mutex> lock(store_mu);
    const HistTotals ann0 = HistValue("stedb_store_ann_build_seconds");
    const Clock::time_point t = Clock::now();
    Status st;
    {
      TraceScope span(tracer, "store.compact");
      st = store->Compact();
    }
    const double ms = Since(t) * 1e3;
    const HistTotals ann = HistValue("stedb_store_ann_build_seconds") - ann0;
    r.ops["compact"].attempted++;
    if (!st.ok()) {
      r.ops["compact"].failed++;
      std::fprintf(stderr, "compact: %s\n", st.ToString().c_str());
      return;
    }
    compact_ms.push_back(ms);
    compact_self_ms.push_back(ms - ann.sum * 1e3);
  };

  ClientContext ctx;
  ctx.port = port;
  ctx.query_facts = &query_facts;
  ctx.served = &served;
  ctx.dim = dim;
  ctx.tracer = &tracer;
  ctx.seed = seed;

  const bool open_loop = w.arrival_rate > 0.0;

  // One arrival: replay the batch, extend, publish to the probes, compact
  // when due; in the closed loop also Poll and read the new vector back.
  auto arrive = [&](size_t i) {
    perfbench::Arrival& times = feed.times[i];
    times.issued_s = Since(feed.t0);
    if (!open_loop) times.due_s = times.issued_s;
    auto replayed = [&] {
      TraceScope span(tracer, "db.replay");
      return exp::ReplayBatch(database, part->batches[n_batches - 1 - i]);
    }();
    r.ops["replay"].attempted++;
    if (!replayed.ok()) {
      r.ops["replay"].failed++;
      return;
    }
    const std::vector<db::FactId>& ids = replayed.value();
    const Clock::time_point t_extend = Clock::now();
    Status st;
    {
      TraceScope span(tracer, "fwd.extend", i);
      st = embedder.ExtendToFacts(ids);
    }
    const double ext_us = Us(Since(t_extend));
    r.ops["extend"].attempted++;
    if (!st.ok()) {
      r.ops["extend"].failed++;
      extend_us.failed++;
      return;
    }
    extend_us.ok.push_back(static_cast<float>(ext_us));
    db::FactId pred = db::kNoFact;
    for (db::FactId f : ids) {
      if (database.fact(f).rel == ds->pred_rel) pred = f;
    }
    if (pred == db::kNoFact) return;
    new_pred.push_back(pred);
    feed.fact[i] = pred;
    feed.phi[i] = embedder.model().phi(pred);
    feed.acked.store(i + 1, std::memory_order_release);

    if (w.compact_every > 0 && (i + 1) % w.compact_every == 0) compact();
    if (open_loop) return;
    r.ops["poll"].attempted++;
    Result<size_t> polled = [&] {
      TraceScope span(tracer, "serve.poll_now");
      return service->PollNow();
    }();
    if (!polled.ok()) r.ops["poll"].failed++;
    r.ops["http.probe"].attempted++;
    auto resp = conns[0].Get(EmbedTarget(pred));
    if (!resp.ok() || resp.value().status != 200) {
      r.ops["http.probe"].failed++;
      return;
    }
    times.visible_s = Since(feed.t0);
    Check(r, SameBytes(resp.value().body, feed.phi[i].data(), dim),
          "arrival_served_bit_identical", "fact " + std::to_string(pred));
  };

  const double slice_s = seconds / kSlices;
  const double mix_share = w.read_share * (1.0 - w.topk_share);
  const double topk_share = w.read_share * w.topk_share;
  ClientLog mix;
  double mix_slice_s = 0.0;  // mix time in each slice
  const ObsSnapshot before_arrivals;
  feed.t0 = Clock::now();
  if (open_loop) {
    // Readers follow the slice schedule for the whole window and probe
    // every arrival; the writer issues arrivals at their due times.
    ctx.feed = &feed;
    const Schedule plan{feed.t0, slice_s, kSlices, mix_share, topk_share};
    mix_slice_s = plan.mix_seconds() / kSlices;
    std::thread readers([&] { mix = RunClients(plan, ctx, conns); });
    for (size_t i = 0; i < n_arrivals; ++i) {
      std::this_thread::sleep_until(At(feed.t0, feed.times[i].due_s));
      arrive(i);
    }
    readers.join();
    ctx.feed = nullptr;
    for (const auto& [idx, visible] : mix.seen) {
      feed.times[idx].visible_s = visible;
    }
  } else {
    // Each slice replays its share of the arrivals, then reads.
    for (int k = 0; k < kSlices; ++k) {
      const size_t lo = n_arrivals * static_cast<size_t>(k) / kSlices;
      const size_t hi = n_arrivals * static_cast<size_t>(k + 1) / kSlices;
      for (size_t i = lo; i < hi; ++i) arrive(i);
      const Schedule plan{Clock::now(), w.read_share * slice_s, 1,
                          1.0 - w.topk_share, w.topk_share,
                          k};
      mix_slice_s = plan.mix_seconds();
      MergeInto(mix, RunClients(plan, ctx, conns));
      std::this_thread::sleep_until(At(feed.t0, (k + 1) * slice_s));
    }
  }
  if (w.compact_every == 0 || n_arrivals % w.compact_every != 0) compact();
  const ObsSnapshot after_arrivals;
  {
    std::lock_guard<std::mutex> lock(store_mu);
    r.ops["sync"].attempted++;
    if (!store->Sync().ok()) r.ops["sync"].failed++;
  }
  r.ops["poll"].attempted++;
  if (!service->PollNow().ok()) r.ops["poll"].failed++;
  for (int rep = 1; rep < kTrainReps; ++rep) {
    Check(r, train(&old_db).model().all_phi() == trained_phi,
          "train_repeat_bit_identical", "a repeated training differs");
  }
  const ObsSnapshot after_reads;
  const std::optional<HistTotals> handlers_after = ScrapeHandlers(conns[0]);

  // -- verification (untimed).
  serve::HttpClient& vc = conns[0];
  size_t served_wrong = 0;
  for (db::FactId f : new_pred) {
    auto resp = vc.Get(EmbedTarget(f));
    const la::Vector& phi = embedder.model().phi(f);
    if (!resp.ok() || resp.value().status != 200 ||
        !SameBytes(resp.value().body, phi.data(), dim)) {
      ++served_wrong;
    }
  }
  Check(r, served_wrong == 0, "arrivals_served_bit_identical",
        std::to_string(served_wrong) + " of " +
            std::to_string(new_pred.size()) + " differ");
  Check(r, mix.mismatches == 0, "reads_bit_identical",
        std::to_string(mix.mismatches) + " wrong responses");

  double stability_drift = 0.0;
  for (const auto& [f, v] : trained_phi) {
    const la::Vector& now = embedder.model().phi(f);
    stability_drift = std::max(
        stability_drift, MaxAbsDiff(v.data(), now.data(), v.size(), now.size()));
  }
  Check(r, stability_drift == 0.0, "stability_drift",
        "old embeddings moved by " + std::to_string(stability_drift));

  double journal_drift = 0.0;
  {
    auto recovered = store::EmbeddingStore::Open(store_dir);
    if (!recovered.ok()) Die("reopen store", recovered.status());
    const store::StoredModel& m = recovered.value().model();
    auto compare = [&](db::FactId f, const la::Vector& want) {
      if (!m.HasEmbedding(f)) {
        journal_drift = std::numeric_limits<double>::infinity();
        return;
      }
      const la::Vector& got = m.phi(f);
      journal_drift = std::max(
          journal_drift,
          MaxAbsDiff(got.data(), want.data(), got.size(), want.size()));
    };
    for (const auto& [f, v] : served.all_phi()) compare(f, v);
    for (db::FactId f : new_pred) compare(f, embedder.model().phi(f));
  }
  Check(r, journal_drift == 0.0, "journal_drift",
        "recovered store differs by " + std::to_string(journal_drift));

  // Recall@10 of the served /similar against the exact scan (approx=0)
  // on the same query facts.
  std::vector<db::FactId> recall_q = mix.queries[kSimilar];
  if (recall_q.size() > kRecallQueries) recall_q.resize(kRecallQueries);
  size_t hits = 0;
  size_t wanted = 0;
  for (db::FactId q : recall_q) {
    const std::string base =
        "/similar?k=" + std::to_string(kK) + "&fact=" + std::to_string(q);
    auto approx = vc.Get(base);
    auto exact = vc.Get(base + "&approx=0");
    r.ops["http.recall"].attempted += 2;
    if (!approx.ok() || !exact.ok() || approx.value().status != 200 ||
        exact.value().status != 200) {
      r.ops["http.recall"].failed++;
      continue;
    }
    const std::vector<db::FactId> a = ResultFacts(approx.value().body);
    const std::vector<db::FactId> e = ResultFacts(exact.value().body);
    wanted += e.size();
    for (db::FactId f : e) {
      if (std::find(a.begin(), a.end(), f) != a.end()) ++hits;
    }
  }
  const double recall =
      wanted > 0 ? static_cast<double>(hits) / static_cast<double>(wanted)
                 : 0.0;
  Check(r, recall >= kRecallFloor, "similar_recall_at_10",
        "recall " + std::to_string(recall) + " on " +
            std::to_string(recall_q.size()) + " queries");

  // Accuracy on the new prediction tuples, and the majority baseline.
  size_t correct = 0;
  size_t majority_hits = 0;
  const std::vector<size_t> counts = train_set.ClassCounts();
  const int majority = static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  for (db::FactId f : new_pred) {
    const int truth =
        encoder.Lookup(database.value(f, ds->pred_attr).ToString());
    if (clf->Predict(embedder.model().phi(f)) == truth) ++correct;
    if (truth == majority) ++majority_hits;
  }
  const double n_new = static_cast<double>(new_pred.size());
  const double accuracy = n_new > 0 ? static_cast<double>(correct) / n_new : 0;
  Check(r, !new_pred.empty(), "new_tuples_evaluated", "no new tuples");

  // -- api replay (traced pass): the recorded requests, straight against a
  // ServingSession on the same store, so serve self time = client - api.
  std::map<std::string, double> api_us;
  if (traced) {
    auto session = api::ServingSession::Open(store_dir);
    if (!session.ok()) Die("open session", session.status());
    const api::ServingSession& s = session.value();
    la::Matrix out(kBatchFacts, dim);
    for (db::FactId f : mix.queries[kEmbed]) {
      TraceScope span(tracer, "api.embed");
      r.ops["api.embed"].attempted++;
      if (!s.Embed(f).ok()) r.ops["api.embed"].failed++;
    }
    for (const auto& b : mix.batches) {
      TraceScope span(tracer, "api.embed_batch");
      r.ops["api.embed_batch"].attempted++;
      if (!s.EmbedBatch(b, out).ok()) r.ops["api.embed_batch"].failed++;
    }
    for (db::FactId f : mix.queries[kSimilar]) {
      TraceScope span(tracer, "api.similar");
      r.ops["api.similar"].attempted++;
      if (!s.SimilarTopK(f, kK).ok()) r.ops["api.similar"].failed++;
    }
    for (db::FactId f : mix.queries[kTopk]) {
      TraceScope span(tracer, "api.topk");
      r.ops["api.topk"].attempted++;
      if (!s.TopK(f, kK, 0).ok()) r.ops["api.topk"].failed++;
    }
  }

  conns.clear();
  service->Stop();
  service.reset();
  {
    std::lock_guard<std::mutex> lock(store_mu);
    store.reset();
    r.ops["sync"].attempted += tick_syncs.attempted;
    r.ops["sync"].failed += tick_syncs.failed;
  }

  // -- end-to-end metrics.
  const perfbench::LagReport lag = perfbench::MeasureLag(feed.times);
  std::vector<double> lag_ms;
  for (double s : lag.lag_s) lag_ms.push_back(s * 1e3);
  r.e2e["setup_s"] = perfbench::Median(gen_s) + perfbench::Median(setup2_s);
  r.e2e["peak_rss_mb"] = PeakRssMb();
  r.e2e["train_s"] = perfbench::Median(train_s);
  r.e2e["extend_p50_us"] = extend_us.At(0.5);
  r.e2e["extend_p90_us"] = extend_us.At(0.9);
  r.e2e["new_tuple_accuracy"] = accuracy;
  r.e2e["embed_p50_us"] = mix.lat[kEmbed].At(0.5);
  // The tail and the throughput are medians over the window's slices, so
  // one stalled stretch of a shared machine does not set them.
  r.e2e["embed_p90_us"] = mix.embed_slice_tail.empty()
                              ? mix.lat[kEmbed].At(kTail)
                              : perfbench::Median(mix.embed_slice_tail);
  r.extra["embed_p99_us"] = mix.lat[kEmbed].At(0.99);
  r.e2e["embed_batch_p50_us"] = mix.lat[kEmbedBatch].At(0.5);
  r.e2e["similar_p50_us"] = mix.lat[kSimilar].At(0.5);
  r.e2e["similar_recall_at_10"] = recall;
  r.e2e["topk_p50_us"] = mix.lat[kTopk].At(0.5);
  std::vector<double> slice_qps;
  for (uint64_t done : mix.mix_done) {
    slice_qps.push_back(static_cast<double>(done) / mix_slice_s);
  }
  r.e2e["read_qps"] = perfbench::Median(slice_qps);
  r.extra["embed_slice_tail_count"] =
      static_cast<double>(mix.embed_slice_tail.size());
  r.e2e["fresh_lag_p50_ms"] = perfbench::Median(lag_ms);
  r.e2e["compact_ms"] = perfbench::Median(compact_ms);

  // Sample counts and the percentile each sample supports.
  const std::vector<double> tails = {0.999, 0.99, 0.95, 0.9, 0.5};
  for (int e = 0; e < kProbe; ++e) {
    const std::string name = kEndpointNames[e];
    r.extra["samples." + name] = static_cast<double>(mix.lat[e].count());
    r.extra["supported_percentile." + name] =
        perfbench::SupportedPercentile(mix.lat[e].count(), tails);
  }
  r.extra["samples.extend"] = static_cast<double>(extend_us.count());
  r.extra["supported_percentile.extend"] =
      perfbench::SupportedPercentile(extend_us.count(), tails);
  r.extra["samples.fresh_lag"] = static_cast<double>(lag_ms.size());
  r.extra["arrivals_unseen"] = static_cast<double>(lag.unseen);
  r.extra["generator_lateness_p50_ms"] = lag.lateness_p50_s * 1e3;
  r.extra["generator_lateness_max_ms"] = lag.lateness_max_s * 1e3;
  r.extra["samples.compact"] = static_cast<double>(compact_ms.size());
  r.extra["evaluated_new_tuples"] = n_new;
  r.extra["majority_baseline"] =
      n_new > 0 ? static_cast<double>(majority_hits) / n_new : 0;
  r.extra["stability_drift"] = stability_drift;
  r.extra["journal_drift"] = journal_drift;
  r.extra["recall_queries"] = static_cast<double>(recall_q.size());
  Check(r,
        perfbench::SupportedPercentile(mix.lat[kEmbed].count(), {0.99}) > 0,
        "embed_p99_supported",
        std::to_string(mix.lat[kEmbed].count()) + " /embed samples");

  for (int e = 0; e < kNumEndpoints; ++e) {
    OpCount& c = r.ops[std::string("http.") + kEndpointNames[e]];
    c.attempted += mix.attempted[e];
    c.failed += mix.failed[e];
  }
  const ObsSnapshot pass_end;

  // -- descriptors.
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%g", w.arrival_rate);
  r.descriptors = {
      {"workload", w.name},
      {"seed", std::to_string(seed)},
      {"seconds", std::to_string(seconds)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"threads", std::to_string(ResolveThreadCount(0))},
      {"http_threads", std::to_string(kHttpThreads)},
      {"clients", std::to_string(kClients)},
      {"simd", la::ActiveSimdPathName()},
      {"flush_policy", "sync_every_append+group_commit_" +
                           std::to_string(kGroupCommitRecords) + "_records"},
      {"arrival_rate_per_s", open_loop ? rate : "closed_loop"},
      {"compact_every", std::to_string(w.compact_every)},
      {"dataset", std::string(kDataset) + "@" + std::to_string(kDataScale)},
      {"new_ratio", std::to_string(kNewRatio)},
      {"dim", std::to_string(dim)},
      {"old_pred_facts", std::to_string(old_facts.size())},
      {"arrivals", std::to_string(n_arrivals)},
      {"served_facts", std::to_string(query_facts.size())},
  };

  // -- per-layer metrics (meaningful in the traced pass).
  if (traced) {
    const auto spans = tracer.Summarize();
    auto med = [&](const char* name, bool self) {
      auto it = spans.find(name);
      if (it == spans.end()) return 0.0;
      return perfbench::Median(self ? it->second.self_ns
                                    : it->second.duration_ns);
    };
    const double arrivals = std::max<double>(1.0, double(n_arrivals));
    const uint64_t hits_n = after_train.cache_hits - before_train.cache_hits;
    const uint64_t miss_n =
        after_train.cache_misses - before_train.cache_misses;
    const uint64_t fanouts = pass_end.fanouts - pass_start.fanouts;
    const uint64_t polls = pass_end.polls - pass_start.polls;
    r.layers["fwd.train_s"] = med("fwd.train", false) * 1e-9;
    r.layers["fwd.epoch_mean_s"] =
        (after_train.epochs - before_train.epochs).Mean();
    r.layers["fwd.dist_cache_hit_ratio"] =
        hits_n + miss_n > 0 ? double(hits_n) / double(hits_n + miss_n) : 0;
    r.layers["fwd.extend_self_us"] = med("fwd.extend", true) * 1e-3;
    r.layers["common.parallel_fanouts"] = double(fanouts);
    r.layers["common.parallel_mean_width"] =
        fanouts > 0 ? double(pass_end.tasks - pass_start.tasks) /
                          double(fanouts)
                    : 0;
    r.layers["db.replay_us"] = med("db.replay", false) * 1e-3;
    r.layers["store.append_us"] = med("store.append", false) * 1e-3;
    r.layers["store.fsyncs_per_arrival"] =
        double(after_arrivals.fsyncs - before_arrivals.fsyncs) / arrivals;
    r.layers["store.wal_bytes_per_arrival"] =
        double(after_arrivals.wal_bytes - before_arrivals.wal_bytes) /
        arrivals;
    r.layers["store.sync_us"] = med("store.sync", false) * 1e-3;
    r.layers["store.compact_self_ms"] = perfbench::Median(compact_self_ms);
    r.layers["store.create_s"] = med("store.create", false) * 1e-9;
    r.layers["ann.build_ms"] =
        (pass_end.ann_build - pass_start.ann_build).Mean() * 1e3;
    r.layers["ann.visited_per_query"] =
        (pass_end.visited - pass_start.visited).Mean();
    for (int e = 0; e < kProbe; ++e) {
      const std::string name = kEndpointNames[e];
      const double api = med(("api." + name).c_str(), false) * 1e-3;
      r.layers["api." + name + "_us"] = api;
      r.layers["serve." + name + "_self_us"] = mix.lat[e].At(0.5) - api;
    }
    r.layers["api.poll_us"] =
        Us((pass_end.poll_seconds - pass_start.poll_seconds).Mean());
    r.layers["api.poll_records"] =
        polls > 0 ? double(pass_end.applied - pass_start.applied) /
                        double(polls)
                  : 0;
    r.layers["api.reopens"] = double(pass_end.reopens - pass_start.reopens);
    if (handlers_before && handlers_after) {
      r.layers["serve.handler_mean_us"] =
          Us((*handlers_after - *handlers_before).Mean());
    }
    r.layers["serve.coalesce_batch_mean"] =
        (after_reads.coalesced - pass_start.coalesced).Mean();
    const std::string path = out_dir + "/" + w.name + ".spans.tsv";
    if (!tracer.WriteTsv(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  std::filesystem::remove_all(store_dir);
  return r;
}

// ---- JSON output -------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = v > 0 ? std::numeric_limits<double>::max() : 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonObject(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += JsonString(k) + ": " + JsonNumber(v);
  }
  return out + "}";
}

/// Relative change (%) of the traced pass against the untraced one, as the
/// median over the timing metrics both passes report.
double TraceOverheadPct(const PassResult& plain, const PassResult& traced) {
  std::vector<double> pct;
  for (const char* m :
       {"train_s", "extend_p50_us", "embed_p50_us", "embed_batch_p50_us",
        "similar_p50_us", "topk_p50_us", "fresh_lag_p50_ms", "compact_ms"}) {
    const double a = plain.e2e.at(m);
    const double b = traced.e2e.at(m);
    if (a > 0 && std::isfinite(a) && std::isfinite(b)) {
      pct.push_back((b / a - 1.0) * 100.0);
    }
  }
  return perfbench::Median(pct);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".bench_out";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v) != 0;
    } else if (flag == "--out") {
      out_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "serve_read|serve_live --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  std::filesystem::create_directories(out_dir);

  // A traced run makes both passes with half the window each, so it takes
  // about as long as two untraced runs.
  const double pass_seconds = trace ? seconds / 2 : seconds;
  std::vector<PassResult> passes;
  passes.push_back(RunPass(*w, seed, pass_seconds, false, out_dir));
  if (trace) {
    passes.push_back(RunPass(*w, seed, pass_seconds, true, out_dir));
    passes.back().layers["trace_overhead_pct"] =
        TraceOverheadPct(passes[0], passes[1]);
  }

  // One report: end-to-end from the untraced pass, per-layer from the
  // traced one; checks and operation counts from both.
  const PassResult& plain = passes.front();
  std::map<std::string, OpCount> ops;
  std::string checks = "[";
  for (const PassResult& p : passes) {
    for (const auto& [name, c] : p.ops) {
      ops[name].attempted += c.attempted;
      ops[name].failed += c.failed;
    }
    for (const auto& [name, detail] : p.failed_checks) {
      if (checks.size() > 1) checks += ", ";
      checks += "{\"name\": " + JsonString(name) +
                ", \"detail\": " + JsonString(detail) + "}";
    }
  }
  checks += "]";
  std::string ops_json = "{";
  for (const auto& [name, c] : ops) {
    if (ops_json.size() > 1) ops_json += ", ";
    ops_json += JsonString(name) + ": {\"attempted\": " +
                std::to_string(c.attempted) +
                ", \"failed\": " + std::to_string(c.failed) + "}";
  }
  ops_json += "}";
  std::string desc = "{";
  for (const auto& [k, v] : plain.descriptors) {
    if (desc.size() > 1) desc += ", ";
    desc += JsonString(k) + ": " + JsonString(v);
  }
  desc += "}";

  std::string report = "{\"descriptors\": " + desc +
                       ",\n \"failed_checks\": " + checks +
                       ",\n \"ops\": " + ops_json +
                       ",\n \"end_to_end\": " + JsonObject(plain.e2e) +
                       ",\n \"per_layer\": " +
                       JsonObject(passes.back().layers) +
                       ",\n \"details\": " + JsonObject(plain.extra);
  if (trace) {
    report += ",\n \"traced_end_to_end\": " + JsonObject(passes[1].e2e);
  }
  report += "}\n";
  const std::string path = out_dir + "/" + w->name + ".report.json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fputs(report.c_str(), f) < 0 ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

// Approximate similarity search (no paper analogue — the ROADMAP's
// "sublinear similarity queries over a stored model" direction): builds a
// store with the persisted HNSW index enabled, serves it through
// api::ServingSession, and races SimilarTopK's exact scan against the
// mmap'd graph on the same queries:
//   * index build time (the Compact/Create-side cost of --ann),
//   * per-query p50/p99 latency, exact vs HNSW,
//   * recall@10 of HNSW against the exact oracle (blocking: >= 0.95),
//   * mean visited nodes per search (the sublinearity witness).
// Then it appends 1% more vectors, compacts — which extends the index
// instead of rebuilding it — reopens the session and runs the same pass
// on the compacted index (the after_compact section, same gate).
//
// Results go to BENCH_ann.json in the working directory. Recall below the
// gate fails the binary; the latency speedup is advisory — smoke-scale
// stores are small enough that the brute-force scan stays competitive, the
// 10x shows up at default scale.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/serving.h"
#include "src/exp/report.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/n2v/codec.h"
#include "src/obs/metrics.h"
#include "src/store/embedding_store.h"
#include "src/store/stored_model.h"

using namespace stedb;

namespace {

constexpr double kRecallGate = 0.95;

/// Clustered unit-ball vectors: the same shape ann_test uses, so recall
/// here measures graph quality, not float-tie resolution on degenerate
/// near-duplicates.
la::Vector RandomPoint(Rng& rng, const la::Vector& center, double noise) {
  la::Vector v(center.size());
  for (size_t d = 0; d < v.size(); ++d) {
    v[d] = center[d] + rng.NextGaussian(0.0, noise);
  }
  return v;
}

/// One pass of the queries over a served store: both paths' latencies,
/// HNSW's recall@10 against the exact scan, and nodes visited per search.
struct QueryPass {
  double exact_p50_us = 0.0, exact_p99_us = 0.0;
  double hnsw_p50_us = 0.0, hnsw_p99_us = 0.0;
  double recall_at_10 = 0.0;
  double mean_visited_nodes = 0.0;

  double p50_speedup() const {
    return hnsw_p50_us > 0.0 ? exact_p50_us / hnsw_p50_us : 0.0;
  }
};

Result<QueryPass> RunQueries(const api::ServingSession& session,
                             const std::vector<la::Vector>& queries,
                             size_t k) {
  // Exact oracle + latency in one pass (both sides see identical queries;
  // one warmup query per side keeps first-touch page faults out of p99).
  api::SimilarOptions exact_opts;
  exact_opts.approx = false;
  api::SimilarOptions hnsw_opts;  // library-default ef_search
  (void)session.SimilarTopK(Span<const double>(queries[0]), k, exact_opts);
  (void)session.SimilarTopK(Span<const double>(queries[0]), k, hnsw_opts);

  obs::Histogram& visited_hist = obs::Registry::Global().GetHistogram(
      "stedb_ann_visited_nodes",
      "Nodes whose distance was evaluated per HNSW search "
      "(SimilarTopK approximate path)",
      obs::Buckets::PowersOfTwo());
  const double visited_sum_before = visited_hist.Sum();
  const uint64_t visited_count_before = visited_hist.Count();

  std::vector<double> exact_us, hnsw_us;
  size_t overlap = 0;
  for (const la::Vector& q : queries) {
    Timer t1;
    auto exact = session.SimilarTopK(Span<const double>(q), k, exact_opts);
    exact_us.push_back(t1.ElapsedSeconds() * 1e6);
    Timer t2;
    auto approx = session.SimilarTopK(Span<const double>(q), k, hnsw_opts);
    hnsw_us.push_back(t2.ElapsedSeconds() * 1e6);
    if (!exact.ok()) return exact.status();
    if (!approx.ok()) return approx.status();
    for (const auto& hit : approx.value()) {
      for (const auto& truth : exact.value()) {
        if (hit.fact == truth.fact) {
          ++overlap;
          break;
        }
      }
    }
  }
  QueryPass pass;
  pass.recall_at_10 = static_cast<double>(overlap) /
                      static_cast<double>(queries.size() * k);
  const uint64_t searches = visited_hist.Count() - visited_count_before;
  pass.mean_visited_nodes =
      searches > 0 ? (visited_hist.Sum() - visited_sum_before) /
                         static_cast<double>(searches)
                   : 0.0;
  std::sort(exact_us.begin(), exact_us.end());
  std::sort(hnsw_us.begin(), hnsw_us.end());
  pass.exact_p50_us = bench::Percentile(exact_us, 0.50);
  pass.exact_p99_us = bench::Percentile(exact_us, 0.99);
  pass.hnsw_p50_us = bench::Percentile(hnsw_us, 0.50);
  pass.hnsw_p99_us = bench::Percentile(hnsw_us, 0.99);
  return pass;
}

/// Prints the exact-vs-HNSW table of one pass over `served` vectors.
void PrintPass(const QueryPass& pass, size_t served, size_t queries,
               size_t k) {
  exp::TableWriter table({"Path", "p50", "p99", "recall@10", "visited"});
  char p50[32], p99[32];
  std::snprintf(p50, sizeof(p50), "%.0fus", pass.exact_p50_us);
  std::snprintf(p99, sizeof(p99), "%.0fus", pass.exact_p99_us);
  table.AddRow({"exact scan", p50, p99, "1.0000", std::to_string(served)});
  char r[32], v[32];
  std::snprintf(p50, sizeof(p50), "%.0fus", pass.hnsw_p50_us);
  std::snprintf(p99, sizeof(p99), "%.0fus", pass.hnsw_p99_us);
  std::snprintf(r, sizeof(r), "%.4f", pass.recall_at_10);
  std::snprintf(v, sizeof(v), "%.0f", pass.mean_visited_nodes);
  table.AddRow({"hnsw", p50, p99, r, v});
  std::printf("%s\n", table.Render().c_str());
  std::printf("(p50 speedup %.1fx; %zu vectors, %zu queries, k=%zu, "
              "visited = distance evaluations per search)\n",
              pass.p50_speedup(), served, queries, k);
}

}  // namespace

int main(int, char**) {
  exp::RunScale scale = exp::ScaleFromEnv();
  bench::PrintHeader("Table X",
                     "persisted HNSW index: exact scan vs mmap-served "
                     "graph (latency, recall@10, visited nodes)",
                     scale);

  const size_t vectors = scale == exp::RunScale::kSmoke ? 10000 : 100000;
  const size_t dim = 32;
  const size_t num_queries = scale == exp::RunScale::kSmoke ? 200 : 1000;
  const size_t k = 10;

  // Data: 64 Gaussian clusters, enough spread that exact top-10 is
  // well-conditioned (see ann_test for the degenerate-tie pitfall).
  std::printf("generating %zu vectors (dim %zu, 64 clusters)...\n",
              vectors, dim);
  Rng rng(0xA22);
  std::vector<la::Vector> centers;
  for (int c = 0; c < 64; ++c) {
    centers.push_back(RandomPoint(rng, la::Vector(dim, 0.0), 1.0));
  }
  auto model = std::make_unique<store::VectorSetModel>(dim, -1);
  for (size_t i = 0; i < vectors; ++i) {
    model->set_phi(
        static_cast<db::FactId>(i),
        RandomPoint(rng, centers[i % centers.size()], 0.6));
  }
  std::vector<la::Vector> queries;
  for (size_t q = 0; q < num_queries; ++q) {
    queries.push_back(
        RandomPoint(rng, centers[q % centers.size()], 0.6));
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() / "stedb_ann_bench_store")
          .string();
  std::filesystem::remove_all(dir);
  store::StoreOptions options;
  options.build_ann_index = true;

  // Build: Create writes the snapshot and, with build_ann_index, runs the
  // full deterministic HNSW construction inside it. The obs histogram
  // isolates the index-build share from the snapshot I/O around it.
  obs::Histogram& build_hist = obs::Registry::Global().GetHistogram(
      "stedb_store_ann_build_seconds",
      "HNSW index construction latency inside snapshot writes "
      "(StoreOptions::build_ann_index)",
      obs::Buckets::Latency());
  const double build_sum_before = build_hist.Sum();
  Timer build_timer;
  auto created =
      store::EmbeddingStore::Create(dir, n2v::kNode2VecMethodTag,
                                    std::move(model), options);
  if (!created.ok()) {
    std::fprintf(stderr, "create: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  const double create_seconds = build_timer.ElapsedSeconds();
  const double build_seconds = build_hist.Sum() - build_sum_before;
  std::printf("store created in %.2fs (HNSW build %.2fs)\n\n",
              create_seconds, build_seconds);

  auto session = api::ServingSession::Open(dir);
  if (!session.ok()) {
    std::fprintf(stderr, "open: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  if (!session.value().has_ann_index()) {
    std::fprintf(stderr, "FAILED: store carries no ANN index\n");
    return 1;
  }
  auto pass = RunQueries(session.value(), queries, k);
  if (!pass.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 pass.status().ToString().c_str());
    return 1;
  }
  PrintPass(pass.value(), vectors, num_queries, k);

  // Compaction: 1% more vectors from the same clusters, folded into the
  // snapshot by a Compact that extends the index; the reopened session
  // then serves the compacted graph.
  store::EmbeddingStore& st = created.value();
  const size_t appended = vectors / 100;
  for (size_t i = 0; i < appended; ++i) {
    const Status appended_ok =
        st.Append(static_cast<db::FactId>(vectors + i),
                  RandomPoint(rng, centers[i % centers.size()], 0.6));
    if (!appended_ok.ok()) {
      std::fprintf(stderr, "append: %s\n", appended_ok.ToString().c_str());
      return 1;
    }
  }
  Timer compact_timer;
  if (Status compacted = st.Compact(); !compacted.ok()) {
    std::fprintf(stderr, "compact: %s\n", compacted.ToString().c_str());
    return 1;
  }
  const double compact_seconds = compact_timer.ElapsedSeconds();
  std::printf("\nappended %zu vectors, compacted in %.3fs; reopened:\n",
              appended, compact_seconds);
  session = api::ServingSession::Open(dir);
  if (!session.ok() || !session.value().has_ann_index()) {
    std::fprintf(stderr, "FAILED: compacted store carries no ANN index\n");
    return 1;
  }
  auto after = RunQueries(session.value(), queries, k);
  if (!after.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 after.status().ToString().c_str());
    return 1;
  }
  PrintPass(after.value(), vectors + appended, num_queries, k);

  bench::Report report("ann");
  report.Set("vectors", vectors);
  report.Set("dim", dim);
  report.Set("queries", num_queries);
  report.Set("ann_build_seconds", build_seconds);
  report.Set("exact_p50_us", pass.value().exact_p50_us);
  report.Set("exact_p99_us", pass.value().exact_p99_us);
  report.Set("hnsw_p50_us", pass.value().hnsw_p50_us);
  report.Set("hnsw_p99_us", pass.value().hnsw_p99_us);
  report.Set("p50_speedup", pass.value().p50_speedup());
  report.Set("recall_at_10", pass.value().recall_at_10);
  report.Set("mean_visited_nodes", pass.value().mean_visited_nodes);
  report.Begin("after_compact", '{');
  report.Set("appended", appended);
  report.Set("compact_seconds", compact_seconds);
  report.Set("recall_at_10", after.value().recall_at_10);
  report.End();
  report.Write();
  std::filesystem::remove_all(dir);

  bool failed = false;
  for (const auto& [when, recall] :
       {std::pair{"", pass.value().recall_at_10},
        std::pair{" after compaction", after.value().recall_at_10}}) {
    if (recall < kRecallGate) {
      std::fprintf(stderr, "FAILED: recall@10%s %.4f below the %.2f gate\n",
                   when, recall, kRecallGate);
      failed = true;
    }
  }
  if (failed) return 1;
  if (pass.value().p50_speedup() < 10.0 && scale != exp::RunScale::kSmoke) {
    // Advisory only: machines differ; the committed baseline + compare
    // script track the trend.
    std::printf("note: p50 speedup %.1fx below the 10x target\n",
                pass.value().p50_speedup());
  }
  return 0;
}

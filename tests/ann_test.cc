// The persisted HNSW index: the recall@10 gate against the exact oracle
// (blocking — an index that cannot hit 0.95 recall is not shippable),
// byte-identical builds across thread counts and SIMD paths (the repo's
// determinism contract applied to graph construction), a pinned payload
// CRC and pinned search results that every builder must reproduce, the
// visited-mark generation wrap, the snapshot round-trip (mmap-served
// results identical to the in-memory builder's), WAL-fact visibility
// through ServingSession::SimilarTopK, and rejection of structurally
// corrupted payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/ann/hnsw.h"
#include "src/api/serving.h"
#include "src/common/rng.h"
#include "src/la/kernels.h"
#include "src/n2v/codec.h"
#include "src/store/embedding_store.h"
#include "src/store/format.h"
#include "src/store/stored_model.h"
#include "tests/test_util.h"

namespace stedb {
namespace {

/// HnswView::Open requires an 8-byte-aligned buffer (snapshot sections
/// are aligned by the container writer; std::string storage is not
/// guaranteed to be). Tests that open an in-memory payload copy it here.
class AlignedPayload {
 public:
  explicit AlignedPayload(const std::string& bytes)
      : words_((bytes.size() + 7) / 8), size_(bytes.size()) {
    // An empty payload leaves words_.data() null, which memcpy rejects.
    if (!bytes.empty()) std::memcpy(words_.data(), bytes.data(), bytes.size());
  }
  const char* data() const {
    return reinterpret_cast<const char*>(words_.data());
  }
  size_t size() const { return size_; }

 private:
  std::vector<uint64_t> words_;
  size_t size_;
};

/// Clustered test vectors: `clusters` centers with broad per-point noise,
/// all draws counter-based off `seed` so every test run (and both SIMD
/// lanes) sees the same bytes. Row i = node i. The noise scale keeps each
/// point's exact top-10 well separated in score — much tighter clusters
/// degenerate into hundreds of near-ties per cluster, where recall@10
/// measures float-tie resolution instead of graph quality.
std::vector<double> ClusteredVectors(size_t n, size_t dim, uint64_t seed,
                                     size_t clusters = 32) {
  Rng root(seed);
  std::vector<double> centers(clusters * dim);
  for (size_t c = 0; c < clusters; ++c) {
    Rng rng = root.Fork(1'000'000 + c);
    for (size_t d = 0; d < dim; ++d) {
      centers[c * dim + d] = rng.NextDouble(-1.0, 1.0);
    }
  }
  std::vector<double> data(n * dim);
  for (size_t i = 0; i < n; ++i) {
    Rng rng = root.Fork(i);
    const size_t c = i % clusters;
    for (size_t d = 0; d < dim; ++d) {
      data[i * dim + d] =
          centers[c * dim + d] + 0.60 * rng.NextDouble(-1.0, 1.0);
    }
  }
  return data;
}

std::vector<db::FactId> AscendingFacts(size_t n, db::FactId first = 0) {
  std::vector<db::FactId> facts(n);
  for (size_t i = 0; i < n; ++i) {
    facts[i] = first + static_cast<db::FactId>(i);
  }
  return facts;
}

/// Exact top-k by node index, scored with ann::Score, which computes both
/// norms per pair — the oracle the recall gate compares against, and the
/// reference SimilarTopK's hoisted-norm exact scan must match bit for bit.
std::vector<ann::ScoredNode> ExactTopK(ann::Metric metric,
                                       const double* query,
                                       const std::vector<double>& data,
                                       size_t dim, size_t k) {
  const size_t n = data.size() / dim;
  std::vector<ann::ScoredNode> scored(n);
  for (size_t i = 0; i < n; ++i) {
    scored[i].node = static_cast<uint32_t>(i);
    scored[i].score = ann::Score(metric, Span<const double>(query, dim),
                                 Span<const double>(&data[i * dim], dim));
  }
  const size_t keep = std::min(k, n);
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    ann::BetterHit);
  scored.resize(keep);
  return scored;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

la::Vector RowVector(const std::vector<double>& data, size_t dim, size_t i) {
  return la::Vector(data.begin() + i * dim, data.begin() + (i + 1) * dim);
}

uint64_t Bits(double x) {
  uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// ---- Recall gate (blocking) -------------------------------------------

TEST(HnswRecallTest, RecallAtTenMeetsGateOnTenThousandVectors) {
  const size_t n = 10'000, dim = 16, k = 10;
  const std::vector<double> data = ClusteredVectors(n, dim, 0xA11CE);
  const ann::VectorSource vectors = ann::VectorSource::Dense(data.data(), dim);

  ann::HnswConfig config;
  auto payload = ann::BuildHnsw(config, AscendingFacts(n), vectors, dim);
  ASSERT_TRUE(payload.ok()) << payload.status();
  AlignedPayload aligned(payload.value());
  auto view = ann::HnswView::Open(aligned.data(), aligned.size(), n, dim);
  ASSERT_TRUE(view.ok()) << view.status();

  // 200 held-out queries (cluster centers perturbed differently from any
  // stored point). recall@10 = |HNSW top-10 ∩ exact top-10| / 10.
  const size_t num_queries = 200;
  const std::vector<double> queries =
      ClusteredVectors(num_queries, dim, 0xB0B);
  size_t matched = 0;
  size_t visited_total = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    const double* query = &queries[q * dim];
    ann::SearchStats stats;
    const std::vector<ann::ScoredNode> got = view.value().Search(
        query, k, api::ServingSession::kDefaultEfSearch, vectors, &stats);
    visited_total += stats.visited;
    const std::vector<ann::ScoredNode> want =
        ExactTopK(config.metric, query, data, dim, k);
    std::set<uint32_t> want_nodes;
    for (const ann::ScoredNode& h : want) want_nodes.insert(h.node);
    for (const ann::ScoredNode& h : got) {
      matched += want_nodes.count(h.node);
    }
  }
  const double recall =
      static_cast<double>(matched) / static_cast<double>(num_queries * k);
  // The blocking acceptance gate: recall@10 >= 0.95 at the default
  // (m, ef_construction, ef_search).
  EXPECT_GE(recall, 0.95) << "recall@10 over " << num_queries << " queries";
  // And the point of the index: the beam search must not degenerate into
  // a full scan (ample headroom — typical is a few percent of n).
  EXPECT_LT(visited_total / num_queries, n / 2)
      << "mean visited nodes per query";
}

TEST(HnswRecallTest, HitsCarryScoresBitEqualToTheExactOracle) {
  const size_t n = 2'000, dim = 8, k = 10;
  const std::vector<double> data = ClusteredVectors(n, dim, 0xCAFE);
  const ann::VectorSource vectors = ann::VectorSource::Dense(data.data(), dim);
  ann::HnswConfig config;
  auto payload = ann::BuildHnsw(config, AscendingFacts(n), vectors, dim);
  ASSERT_TRUE(payload.ok()) << payload.status();
  AlignedPayload aligned(payload.value());
  auto view = ann::HnswView::Open(aligned.data(), aligned.size(), n, dim);
  ASSERT_TRUE(view.ok()) << view.status();

  // Whatever the graph returns, its score for a node must be bit-equal
  // to the exact scan's score for that node — same kernels, same norms.
  const double* query = &data[17 * dim];
  std::vector<ann::ScoredNode> exact = ExactTopK(config.metric, query, data,
                                                 dim, n);
  std::vector<double> by_node(n);
  for (const ann::ScoredNode& h : exact) by_node[h.node] = h.score;
  for (const ann::ScoredNode& h :
       view.value().Search(query, k, 64, vectors)) {
    EXPECT_EQ(Bits(h.score), Bits(by_node[h.node])) << "node " << h.node;
  }
  // And the exact scan's cosine is bit-equal to the la reference.
  const la::Vector q = RowVector(data, dim, 17);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(Bits(by_node[i]),
              Bits(la::CosineSimilarity(q, RowVector(data, dim, i))));
  }
}

// ---- Build determinism -------------------------------------------------

// The pinned input: 3000 clustered dim-12 vectors, fact ids from 5, the
// default config. Large enough that base-layer reverse lists overflow
// their 2*m ceiling and re-select, and that upper levels exist.
constexpr size_t kPinnedN = 3'000;
constexpr size_t kPinnedDim = 12;
constexpr uint64_t kPinnedSeed = 0xD5;

// Recorded from the builder with the serial link loop and hash-set visited
// tracking. Any faster builder or search must reproduce them exactly: the
// format promises the same graph, not merely a self-consistent one.
constexpr uint32_t kPinnedPayloadCrc = 363451283;
constexpr size_t kPinnedPayloadSize = 395440;

struct PinnedQuery {
  size_t row;  ///< query = this data row, perturbed by kPinnedQueryShift
  size_t visited;
  std::vector<uint32_t> hits;
};

constexpr double kPinnedQueryShift = 0.05;

const std::vector<PinnedQuery>& PinnedQueries() {
  static const std::vector<PinnedQuery> queries = {
      {0, 538, {0, 896, 2144, 736, 1952, 1344, 2080, 160, 1472, 384}},
      {1234, 351, {1234, 946, 18, 1074, 882, 2898, 626, 1138, 2610, 2418}},
      {2999, 426, {2999, 1367, 279, 1047, 1303, 1399, 1911, 855, 2039, 1943}},
  };
  return queries;
}

/// Runs `pinned`'s query against an index over the pinned input `data`
/// and checks the recorded hits and visited count.
void ExpectPinnedSearch(const ann::HnswView& view,
                        const std::vector<double>& data,
                        const PinnedQuery& pinned, const std::string& when) {
  std::vector<double> q(data.begin() + pinned.row * kPinnedDim,
                        data.begin() + (pinned.row + 1) * kPinnedDim);
  for (size_t d = 0; d < kPinnedDim; ++d) {
    q[d] += d % 2 == 0 ? kPinnedQueryShift : -kPinnedQueryShift;
  }
  ann::SearchStats stats;
  std::vector<uint32_t> hits;
  for (const ann::ScoredNode& h :
       view.Search(q.data(), 10, 64,
                   ann::VectorSource::Dense(data.data(), kPinnedDim),
                   &stats)) {
    hits.push_back(h.node);
  }
  EXPECT_EQ(stats.visited, pinned.visited) << when;
  EXPECT_EQ(hits, pinned.hits) << when;
}

TEST(HnswDeterminismTest, BuildIsByteIdenticalAcrossThreadCounts) {
  const std::vector<double> data =
      ClusteredVectors(kPinnedN, kPinnedDim, kPinnedSeed);
  const ann::VectorSource vectors =
      ann::VectorSource::Dense(data.data(), kPinnedDim);
  const std::vector<db::FactId> facts = AscendingFacts(kPinnedN, 5);

  // Every pool size splits the parallel phases differently, so each one
  // must reproduce the pinned bytes on its own.
  std::string reference;
  for (int threads : {1, 2, 3, 4}) {
    ann::HnswConfig config;
    config.threads = threads;
    auto payload = ann::BuildHnsw(config, facts, vectors, kPinnedDim);
    ASSERT_TRUE(payload.ok()) << payload.status();
    EXPECT_EQ(payload.value().size(), kPinnedPayloadSize)
        << "threads=" << threads;
    EXPECT_EQ(store::Crc32(payload.value().data(), payload.value().size()),
              kPinnedPayloadCrc)
        << "threads=" << threads;
    if (reference.empty()) {
      reference = payload.value();
    } else {
      ASSERT_EQ(payload.value().size(), reference.size());
      EXPECT_EQ(payload.value(), reference)
          << "threads=" << threads << " diverged from threads=1";
    }
  }

  // The input really exercises the paths worth pinning: upper levels and
  // base-layer lists filled to their ceiling.
  AlignedPayload aligned(reference);
  auto view =
      ann::HnswView::Open(aligned.data(), aligned.size(), kPinnedN, kPinnedDim);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_GE(view.value().max_level(), 1u);
  const size_t base_cap = 2 * view.value().m();
  size_t full_lists = 0;
  for (uint32_t node = 0; node < kPinnedN; ++node) {
    full_lists += view.value().neighbors(node, 0).size() == base_cap;
  }
  EXPECT_GT(full_lists, 0u);
}

TEST(HnswDeterminismTest, SearchMatchesPinnedHitsAndVisitedCounts) {
  const std::vector<double> data =
      ClusteredVectors(kPinnedN, kPinnedDim, kPinnedSeed);
  const ann::VectorSource vectors =
      ann::VectorSource::Dense(data.data(), kPinnedDim);
  auto payload = ann::BuildHnsw(ann::HnswConfig(),
                                AscendingFacts(kPinnedN, 5), vectors,
                                kPinnedDim);
  ASSERT_TRUE(payload.ok()) << payload.status();
  AlignedPayload aligned(payload.value());
  auto view =
      ann::HnswView::Open(aligned.data(), aligned.size(), kPinnedN, kPinnedDim);
  ASSERT_TRUE(view.ok()) << view.status();

  for (const PinnedQuery& pinned : PinnedQueries()) {
    ExpectPinnedSearch(view.value(), data, pinned,
                       "row " + std::to_string(pinned.row));
  }
}

TEST(HnswDeterminismTest, VisitedMarksSurviveTheGenerationWrap) {
  const std::vector<double> data =
      ClusteredVectors(kPinnedN, kPinnedDim, kPinnedSeed);
  const ann::VectorSource vectors =
      ann::VectorSource::Dense(data.data(), kPinnedDim);
  const std::vector<db::FactId> facts = AscendingFacts(kPinnedN, 5);
  auto payload = ann::BuildHnsw(ann::HnswConfig(), facts, vectors, kPinnedDim);
  ASSERT_TRUE(payload.ok()) << payload.status();
  AlignedPayload aligned(payload.value());
  auto view =
      ann::HnswView::Open(aligned.data(), aligned.size(), kPinnedN, kPinnedDim);
  ASSERT_TRUE(view.ok()) << view.status();

  // A fresh thread starts with no marks, so its first search stamps the
  // nodes it visits with generation 1 — the generation the wrap returns
  // to. Unless the wrap clears them, the same query after the wrap skips
  // those nodes as already visited. The query at the last generation
  // before the wrap comes from another cluster, so it leaves most of
  // those stamps in place.
  std::thread([&] {
    const ann::HnswView& index = view.value();
    const PinnedQuery& stamped = PinnedQueries()[1];
    ExpectPinnedSearch(index, data, stamped, "before the wrap");
    ann::internal::SetVisitedGenerationForTest(UINT16_MAX - 1);
    ExpectPinnedSearch(index, data, PinnedQueries()[0],
                       "at the last generation");
    ExpectPinnedSearch(index, data, stamped, "first search after the wrap");
    ExpectPinnedSearch(index, data, stamped, "second search after the wrap");

    // A serial build whose searches cross the wrap keeps the pinned bytes.
    ann::internal::SetVisitedGenerationForTest(UINT16_MAX - 100);
    ann::HnswConfig serial;
    serial.threads = 1;
    auto rebuilt = ann::BuildHnsw(serial, facts, vectors, kPinnedDim);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    EXPECT_EQ(store::Crc32(rebuilt.value().data(), rebuilt.value().size()),
              kPinnedPayloadCrc);
  }).join();
}

TEST(HnswDeterminismTest, BuildIsByteIdenticalAcrossSimdPaths) {
  if (!testing::HasAvx2()) GTEST_SKIP() << "no AVX2 lane on this host/build";
  const size_t n = 2'000, dim = 16;
  const std::vector<double> data = ClusteredVectors(n, dim, 0x51D);
  const ann::VectorSource vectors = ann::VectorSource::Dense(data.data(), dim);
  const std::vector<db::FactId> facts = AscendingFacts(n);

  testing::SimdPathGuard guard;
  std::string per_path[2];
  const la::SimdPath paths[2] = {la::SimdPath::kScalar, la::SimdPath::kAvx2};
  for (int p = 0; p < 2; ++p) {
    la::internal::ForceSimdPathForTest(paths[p]);
    auto payload = ann::BuildHnsw(ann::HnswConfig(), facts, vectors, dim);
    ASSERT_TRUE(payload.ok()) << payload.status();
    per_path[p] = payload.value();
  }
  EXPECT_EQ(per_path[0], per_path[1])
      << "scalar and AVX2 builds must serialize the same graph";
}

// ---- Extension ----------------------------------------------------------

// The pinned input split in two: a base over its first 2,700 rows,
// extended by the last 300 (as Compact extends the replaced snapshot's
// index by the journaled facts). Recorded when the extension landed.
constexpr size_t kPinnedBaseN = 2'700;
constexpr uint32_t kPinnedExtendedCrc = 799165457;
constexpr size_t kPinnedExtendedSize = 395440;

/// A payload copied into aligned storage with its view and the facts of
/// its nodes — what an extension takes as ann::HnswBase.
struct OpenedBase {
  AlignedPayload payload;
  std::vector<db::FactId> facts;
  ann::HnswView view;

  OpenedBase(const std::string& bytes, std::vector<db::FactId> node_facts,
             size_t dim)
      : payload(bytes), facts(std::move(node_facts)) {
    auto opened =
        ann::HnswView::Open(payload.data(), payload.size(), facts.size(), dim);
    EXPECT_TRUE(opened.ok()) << opened.status();
    if (opened.ok()) view = opened.value();
  }
  ann::HnswBase base() const { return ann::HnswBase{view, facts}; }
};

TEST(HnswExtendTest, ExtensionIsByteIdenticalAcrossThreadsAndSimdPaths) {
  const std::vector<double> data =
      ClusteredVectors(kPinnedN, kPinnedDim, kPinnedSeed);
  const ann::VectorSource vectors =
      ann::VectorSource::Dense(data.data(), kPinnedDim);
  const std::vector<db::FactId> facts = AscendingFacts(kPinnedN, 5);
  const std::vector<db::FactId> base_facts(facts.begin(),
                                           facts.begin() + kPinnedBaseN);
  auto base_payload =
      ann::BuildHnsw(ann::HnswConfig(), base_facts, vectors, kPinnedDim);
  ASSERT_TRUE(base_payload.ok()) << base_payload.status();
  const OpenedBase opened(base_payload.value(), base_facts, kPinnedDim);
  const ann::HnswBase base = opened.base();

  testing::SimdPathGuard guard;
  std::vector<la::SimdPath> paths = {la::SimdPath::kScalar};
  if (testing::HasAvx2()) paths.push_back(la::SimdPath::kAvx2);
  std::string reference;
  for (la::SimdPath path : paths) {
    la::internal::ForceSimdPathForTest(path);
    for (int threads : {1, 2, 3, 4}) {
      ann::HnswConfig config;
      config.threads = threads;
      auto payload =
          ann::BuildHnsw(config, facts, vectors, kPinnedDim, &base);
      ASSERT_TRUE(payload.ok()) << payload.status();
      const std::string when = "path " +
                               std::to_string(static_cast<int>(path)) +
                               ", threads " + std::to_string(threads);
      EXPECT_EQ(payload.value().size(), kPinnedExtendedSize) << when;
      EXPECT_EQ(store::Crc32(payload.value().data(), payload.value().size()),
                kPinnedExtendedCrc)
          << when;
      if (reference.empty()) reference = payload.value();
      EXPECT_EQ(payload.value(), reference) << when;
    }
  }

  // The extension kept the base: every base node keeps its level and its
  // upper-level lists grow only by inserted nodes, while a from-scratch
  // build over all 3000 rows is a different graph (the pinned one).
  AlignedPayload aligned(reference);
  auto view =
      ann::HnswView::Open(aligned.data(), aligned.size(), kPinnedN, kPinnedDim);
  ASSERT_TRUE(view.ok()) << view.status();
  for (uint32_t node = 0; node < kPinnedBaseN; ++node) {
    ASSERT_EQ(view.value().level(node), opened.view.level(node));
  }
  EXPECT_NE(store::Crc32(reference.data(), reference.size()),
            kPinnedPayloadCrc);
}

TEST(HnswExtendTest, ExtendingByZeroFactsReproducesTheBase) {
  const std::vector<double> data =
      ClusteredVectors(kPinnedN, kPinnedDim, kPinnedSeed);
  const ann::VectorSource vectors =
      ann::VectorSource::Dense(data.data(), kPinnedDim);
  const std::vector<db::FactId> facts = AscendingFacts(kPinnedN, 5);
  auto payload = ann::BuildHnsw(ann::HnswConfig(), facts, vectors, kPinnedDim);
  ASSERT_TRUE(payload.ok()) << payload.status();
  const OpenedBase opened(payload.value(), facts, kPinnedDim);
  const ann::HnswBase base = opened.base();
  auto again =
      ann::BuildHnsw(ann::HnswConfig(), facts, vectors, kPinnedDim, &base);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value(), payload.value());
}

/// recall@10 of `payload` (over the first `n` rows of `data`) against the
/// exact oracle, on 200 held-out queries at ef 64.
double RecallAtTen(const std::string& payload, const std::vector<double>& data,
                   size_t n, size_t dim) {
  AlignedPayload aligned(payload);
  auto view = ann::HnswView::Open(aligned.data(), aligned.size(), n, dim);
  EXPECT_TRUE(view.ok()) << view.status();
  if (!view.ok()) return 0.0;
  const std::vector<double> indexed(data.begin(), data.begin() + n * dim);
  const std::vector<double> queries = ClusteredVectors(200, dim, 0xB0B);
  size_t matched = 0;
  for (size_t q = 0; q < 200; ++q) {
    const double* query = &queries[q * dim];
    std::set<uint32_t> want;
    for (const ann::ScoredNode& h :
         ExactTopK(ann::Metric::kCosine, query, indexed, dim, 10)) {
      want.insert(h.node);
    }
    for (const ann::ScoredNode& h : view.value().Search(
             query, 10, 64, ann::VectorSource::Dense(data.data(), dim))) {
      matched += want.count(h.node);
    }
  }
  return static_cast<double>(matched) / 2000.0;
}

TEST(HnswExtendTest, RepeatedExtensionsKeepRecall) {
  // Half of 10^4 vectors from scratch, then ten extensions by 5% each —
  // the shape of an index that only ever grows through Compact.
  const size_t n = 10'000, dim = 16, step = n / 20;
  const std::vector<double> data = ClusteredVectors(n, dim, 0xA11CE);
  const ann::VectorSource vectors = ann::VectorSource::Dense(data.data(), dim);
  const std::vector<db::FactId> all = AscendingFacts(n);
  const ann::HnswConfig config;

  size_t built = n / 2;
  auto payload = ann::BuildHnsw(
      config, Span<const db::FactId>(all.data(), built), vectors, dim);
  ASSERT_TRUE(payload.ok()) << payload.status();
  std::string grown = payload.value();
  for (int round = 0; round < 10; ++round) {
    const OpenedBase opened(
        grown, std::vector<db::FactId>(all.begin(), all.begin() + built), dim);
    const ann::HnswBase base = opened.base();
    built += step;
    auto extended = ann::BuildHnsw(
        config, Span<const db::FactId>(all.data(), built), vectors, dim, &base);
    ASSERT_TRUE(extended.ok()) << extended.status();
    grown = extended.value();
  }
  ASSERT_EQ(built, n);

  auto scratch = ann::BuildHnsw(config, all, vectors, dim);
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  const double extended_recall = RecallAtTen(grown, data, n, dim);
  const double scratch_recall = RecallAtTen(scratch.value(), data, n, dim);
  EXPECT_GE(extended_recall, 0.95);
  EXPECT_GE(extended_recall, scratch_recall - 0.01)
      << "from scratch: " << scratch_recall;
}

TEST(HnswExtendTest, RejectsBasesThatDoNotFit) {
  const size_t n = 64, dim = 4;
  const std::vector<double> data = ClusteredVectors(2 * n, dim, 0xF17);
  const ann::VectorSource vectors = ann::VectorSource::Dense(data.data(), dim);
  const std::vector<db::FactId> base_facts = AscendingFacts(n, 10);
  const std::vector<db::FactId> all = AscendingFacts(2 * n, 10);
  auto payload = ann::BuildHnsw(ann::HnswConfig(), base_facts, vectors, dim);
  ASSERT_TRUE(payload.ok()) << payload.status();
  AlignedPayload aligned(payload.value());
  auto view = ann::HnswView::Open(aligned.data(), aligned.size(), n, dim);
  ASSERT_TRUE(view.ok()) << view.status();
  auto extend = [&](const std::vector<db::FactId>& node_facts,
                    const std::vector<db::FactId>& facts,
                    const ann::HnswConfig& config, size_t vector_dim) {
    const ann::HnswBase base{view.value(), node_facts};
    return ann::BuildHnsw(config, facts, vectors, vector_dim, &base).status();
  };
  const ann::HnswConfig config;
  ASSERT_TRUE(extend(base_facts, all, config, dim).ok());

  // Unsorted: two node facts swapped.
  std::vector<db::FactId> swapped = base_facts;
  std::swap(swapped[3], swapped[4]);
  EXPECT_EQ(extend(swapped, all, config, dim).code(),
            StatusCode::kInvalidArgument);
  // Missing: a node's fact is not among the facts to index.
  std::vector<db::FactId> without = all;
  without.erase(without.begin() + 7);
  EXPECT_EQ(extend(base_facts, without, config, dim).code(),
            StatusCode::kInvalidArgument);
  // A level mismatch: the same nodes claimed for other facts, whose level
  // draws differ from the levels the base was built with.
  const std::vector<db::FactId> shifted = AscendingFacts(n, 1'000);
  EXPECT_EQ(extend(shifted, AscendingFacts(2 * n, 1'000), config, dim).code(),
            StatusCode::kInvalidArgument);
  // A dimension mismatch with the vectors.
  EXPECT_EQ(extend(base_facts, all, config, dim / 2).code(),
            StatusCode::kInvalidArgument);
  // Another config: the level draws and list caps would not be the base's.
  ann::HnswConfig other_m;
  other_m.m = 8;
  EXPECT_EQ(extend(base_facts, all, other_m, dim).code(),
            StatusCode::kInvalidArgument);
  // A node count the facts do not match.
  const std::vector<db::FactId> short_list(base_facts.begin(),
                                           base_facts.end() - 1);
  EXPECT_EQ(extend(short_list, all, config, dim).code(),
            StatusCode::kInvalidArgument);
}

// ---- Payload validation ------------------------------------------------

TEST(HnswViewTest, RejectsTruncatedAndCorruptedPayloads) {
  const size_t n = 64, dim = 4;
  const std::vector<double> data = ClusteredVectors(n, dim, 0xBAD);
  auto payload = ann::BuildHnsw(ann::HnswConfig(), AscendingFacts(n),
                                ann::VectorSource::Dense(data.data(), dim),
                                dim);
  ASSERT_TRUE(payload.ok()) << payload.status();
  const std::string& good = payload.value();

  {  // Sanity: the untampered payload opens.
    AlignedPayload a(good);
    EXPECT_TRUE(ann::HnswView::Open(a.data(), a.size(), n, dim).ok());
  }
  {  // Every truncation fails cleanly (size is checked exactly).
    for (size_t cut : {size_t{0}, size_t{7}, size_t{47}, good.size() - 8}) {
      AlignedPayload a(good.substr(0, cut));
      EXPECT_FALSE(ann::HnswView::Open(a.data(), a.size(), n, dim).ok())
          << "truncated to " << cut;
    }
  }
  {  // A node/dim disagreement with the enclosing container is rejected.
    AlignedPayload a(good);
    EXPECT_FALSE(ann::HnswView::Open(a.data(), a.size(), n + 1, dim).ok());
    EXPECT_FALSE(ann::HnswView::Open(a.data(), a.size(), n, dim + 1).ok());
  }
  {  // Corrupting any header field or adjacency word must not open a
    // view that could index out of bounds; flip bytes across the whole
    // payload and require either a clean reject or (for bit flips that
    // only touch float payload bytes, e.g. stored norms) a still-valid
    // structure. Open() revalidates everything, so no flip may crash.
    for (size_t pos = 0; pos < good.size(); pos += 13) {
      std::string bad = good;
      bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
      AlignedPayload a(bad);
      auto view = ann::HnswView::Open(a.data(), a.size(), n, dim);
      if (!view.ok()) continue;  // rejected: fine
      // Accepted: the flip hit non-structural bytes; a search must stay
      // in bounds (ASan/TSan lanes make this a hard check).
      view.value().Search(&data[0], 5, 16,
                          ann::VectorSource::Dense(data.data(), dim));
    }
  }
  {  // Misaligned buffer: explicit reject, not UB.
    std::vector<uint64_t> buf(good.size() / 8 + 2);
    char* misaligned = reinterpret_cast<char*>(buf.data()) + 4;
    std::memcpy(misaligned, good.data(), good.size());
    EXPECT_FALSE(ann::HnswView::Open(misaligned, good.size(), n, dim).ok());
  }
}

TEST(HnswBuildTest, RejectsBadInputs) {
  const size_t dim = 4;
  const std::vector<double> data = ClusteredVectors(8, dim, 1);
  const ann::VectorSource vectors = ann::VectorSource::Dense(data.data(), dim);
  EXPECT_FALSE(ann::BuildHnsw(ann::HnswConfig(), {}, vectors, dim).ok());
  EXPECT_FALSE(
      ann::BuildHnsw(ann::HnswConfig(), AscendingFacts(4), vectors, 0).ok());
  ann::HnswConfig tiny_m;
  tiny_m.m = 1;
  EXPECT_FALSE(
      ann::BuildHnsw(tiny_m, AscendingFacts(4), vectors, dim).ok());
  const std::vector<db::FactId> unsorted = {3, 1, 2, 4};
  EXPECT_FALSE(
      ann::BuildHnsw(ann::HnswConfig(), unsorted, vectors, dim).ok());
}

// ---- Snapshot round-trip + serving ------------------------------------

/// A store directory over `data` (fact i = first + i) with the index
/// built at Create, plus the builder's own payload for comparison.
struct StoreFixture {
  std::string dir;
  std::string builder_payload;
};

StoreFixture MakeAnnStore(const std::string& name,
                          const std::vector<double>& data, size_t dim,
                          db::FactId first = 100) {
  const size_t n = data.size() / dim;
  auto model = std::make_unique<store::VectorSetModel>(dim, -1);
  for (size_t i = 0; i < n; ++i) {
    model->set_phi(first + static_cast<db::FactId>(i),
                   RowVector(data, dim, i));
  }
  StoreFixture fx;
  fx.dir = FreshDir(name);
  store::StoreOptions options;
  options.build_ann_index = true;
  auto created = store::EmbeddingStore::Create(
      fx.dir, n2v::kNode2VecMethodTag, std::move(model), options);
  EXPECT_TRUE(created.ok()) << created.status();

  auto payload = ann::BuildHnsw(
      options.ann, AscendingFacts(n, first),
      ann::VectorSource::Dense(data.data(), dim), dim);
  EXPECT_TRUE(payload.ok()) << payload.status();
  fx.builder_payload = payload.value();
  return fx;
}

TEST(ServingSimilarTest, MmapServedIndexMatchesInMemoryBuilder) {
  const size_t n = 2'000, dim = 8, k = 10;
  const std::vector<double> data = ClusteredVectors(n, dim, 0x600D);
  StoreFixture fx = MakeAnnStore("ann_roundtrip", data, dim);

  auto session = api::ServingSession::Open(fx.dir);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(session.value().has_ann_index());

  AlignedPayload aligned(fx.builder_payload);
  auto view = ann::HnswView::Open(aligned.data(), aligned.size(), n, dim);
  ASSERT_TRUE(view.ok()) << view.status();

  // The mmap'd section must serve results identical to a view over the
  // builder's in-memory payload: same bytes, same search.
  const ann::VectorSource vectors = ann::VectorSource::Dense(data.data(), dim);
  for (size_t q : {size_t{0}, size_t{7}, size_t{777}, n - 1}) {
    const double* query = &data[q * dim];
    const std::vector<ann::ScoredNode> direct =
        view.value().Search(query, k + 1, 64, vectors);
    auto served = session.value().SimilarTopK(
        Span<const double>(query, dim), k + 1);
    ASSERT_TRUE(served.ok()) << served.status();
    ASSERT_EQ(served.value().size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(served.value()[i].fact,
                100 + static_cast<db::FactId>(direct[i].node));
      EXPECT_EQ(Bits(served.value()[i].score), Bits(direct[i].score));
    }
  }
}

TEST(ServingSimilarTest, FactOverloadExcludesTheQueryFact) {
  const size_t n = 500, dim = 8;
  const std::vector<double> data = ClusteredVectors(n, dim, 0xFACE);
  StoreFixture fx = MakeAnnStore("ann_exclude", data, dim);
  auto session = api::ServingSession::Open(fx.dir);
  ASSERT_TRUE(session.ok()) << session.status();

  auto hits = session.value().SimilarTopK(db::FactId{100}, 5);
  ASSERT_TRUE(hits.ok()) << hits.status();
  ASSERT_EQ(hits.value().size(), 5u);
  for (const auto& h : hits.value()) EXPECT_NE(h.fact, 100);
  EXPECT_EQ(
      session.value().SimilarTopK(db::FactId{424242}, 5).status().code(),
      StatusCode::kNotFound);

  // k past the served count returns every other served fact exactly once,
  // through the index and on the exact path alike.
  api::SimilarOptions exact;
  exact.approx = false;
  for (const api::SimilarOptions& options : {api::SimilarOptions(), exact}) {
    auto all = session.value().SimilarTopK(db::FactId{100}, n + 5, options);
    ASSERT_TRUE(all.ok()) << all.status();
    std::set<db::FactId> facts;
    for (const auto& h : all.value()) facts.insert(h.fact);
    EXPECT_EQ(all.value().size(), n - 1) << "approx=" << options.approx;
    ASSERT_EQ(facts.size(), n - 1) << "approx=" << options.approx;
    EXPECT_EQ(*facts.begin(), 101);
    EXPECT_EQ(*facts.rbegin(), static_cast<db::FactId>(100 + n - 1));
  }
}

TEST(ServingSimilarTest, ExactPathAgreesWithApproxOnTopHitsAndIsForced) {
  const size_t n = 1'000, dim = 8, k = 5;
  const std::vector<double> data = ClusteredVectors(n, dim, 0xE0);
  StoreFixture fx = MakeAnnStore("ann_exact_parity", data, dim);
  auto session = api::ServingSession::Open(fx.dir);
  ASSERT_TRUE(session.ok()) << session.status();

  api::SimilarOptions exact;
  exact.approx = false;
  const double* query = &data[123 * dim];
  auto approx_hits =
      session.value().SimilarTopK(Span<const double>(query, dim), k);
  auto exact_hits =
      session.value().SimilarTopK(Span<const double>(query, dim), k, exact);
  ASSERT_TRUE(approx_hits.ok());
  ASSERT_TRUE(exact_hits.ok());
  ASSERT_EQ(exact_hits.value().size(), k);
  // Exact is the oracle; a hit both paths return carries the same bits.
  for (const auto& a : approx_hits.value()) {
    for (const auto& e : exact_hits.value()) {
      if (a.fact == e.fact) {
        EXPECT_EQ(Bits(a.score), Bits(e.score));
      }
    }
  }
}

TEST(ServingSimilarTest, StoreWithoutIndexFallsBackToExactScan) {
  const size_t n = 300, dim = 8, k = 7;
  const std::vector<double> data = ClusteredVectors(n, dim, 0x11);
  auto model = std::make_unique<store::VectorSetModel>(dim, -1);
  for (size_t i = 0; i < n; ++i) {
    model->set_phi(static_cast<db::FactId>(i), RowVector(data, dim, i));
  }
  const std::string dir = FreshDir("ann_no_index");
  auto created = store::EmbeddingStore::Create(dir, n2v::kNode2VecMethodTag,
                                               std::move(model));
  ASSERT_TRUE(created.ok()) << created.status();

  auto session = api::ServingSession::Open(dir);
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_FALSE(session.value().has_ann_index());
  const double* query = &data[42 * dim];
  auto hits = session.value().SimilarTopK(Span<const double>(query, dim), k);
  ASSERT_TRUE(hits.ok()) << hits.status();
  const std::vector<ann::ScoredNode> want =
      ExactTopK(ann::Metric::kCosine, query, data, dim, k);
  ASSERT_EQ(hits.value().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(hits.value()[i].fact,
              static_cast<db::FactId>(want[i].node));
    EXPECT_EQ(Bits(hits.value()[i].score), Bits(want[i].score));
  }
}

TEST(ServingSimilarTest, WalFactsAreVisibleAfterPoll) {
  const size_t n = 400, dim = 8;
  const std::vector<double> data = ClusteredVectors(n, dim, 0x3A);
  StoreFixture fx = MakeAnnStore("ann_wal", data, dim);

  auto created = store::EmbeddingStore::Open(fx.dir);
  ASSERT_TRUE(created.ok()) << created.status();
  store::EmbeddingStore store = std::move(created).value();

  auto session_result = api::ServingSession::Open(fx.dir);
  ASSERT_TRUE(session_result.ok()) << session_result.status();
  api::ServingSession session = std::move(session_result).value();

  // A new fact whose vector exactly matches stored node 33: after Poll it
  // must surface in SimilarTopK for a query at that vector — the
  // persisted graph predates it, so this exercises the WAL merge.
  const db::FactId fresh = 90'000;
  const la::Vector v = RowVector(data, dim, 33);
  ASSERT_TRUE(store.Append(fresh, v).ok());
  ASSERT_TRUE(store.Sync().ok());

  const double* query = v.data();
  auto before = session.SimilarTopK(Span<const double>(query, dim), 3);
  ASSERT_TRUE(before.ok());
  for (const auto& h : before.value()) EXPECT_NE(h.fact, fresh);

  auto polled = session.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status();
  EXPECT_EQ(polled.value(), 1u);
  auto after = session.SimilarTopK(Span<const double>(query, dim), 3);
  ASSERT_TRUE(after.ok());
  bool found = false;
  for (const auto& h : after.value()) found = found || h.fact == fresh;
  EXPECT_TRUE(found) << "WAL-resident fact missing from SimilarTopK";

  // Equal vectors tie: the exact path returns them in ascending fact id
  // with bit-equal scores, although it scans the snapshot (node 33 = fact
  // 133) before the journal (facts 90'000 and 7).
  const db::FactId low = 7;
  ASSERT_TRUE(store.Append(low, v).ok());
  ASSERT_TRUE(store.Sync().ok());
  ASSERT_TRUE(session.Poll().ok());
  api::SimilarOptions exact;
  exact.approx = false;
  auto ties = session.SimilarTopK(Span<const double>(query, dim), 3, exact);
  ASSERT_TRUE(ties.ok()) << ties.status();
  ASSERT_EQ(ties.value().size(), 3u);
  EXPECT_EQ(ties.value()[0].fact, low);
  EXPECT_EQ(ties.value()[1].fact, 133);
  EXPECT_EQ(ties.value()[2].fact, fresh);
  for (const auto& h : ties.value()) {
    EXPECT_EQ(Bits(h.score), Bits(ties.value()[0].score));
  }

  // The overlay also wins for an *overwritten* snapshot fact: append a
  // replacement vector for node 0's fact and verify its served score
  // reflects the new bytes, not the stale indexed ones.
  la::Vector replacement(dim, 0.0);
  replacement[0] = 1.0;
  const db::FactId overwritten = 100;  // node 0
  ASSERT_TRUE(store.Append(overwritten, replacement).ok());
  ASSERT_TRUE(store.Sync().ok());
  ASSERT_TRUE(session.Poll().ok());
  auto hits = session.SimilarTopK(
      Span<const double>(replacement.data(), dim), 1);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits.value().size(), 1u);
  EXPECT_EQ(hits.value()[0].fact, overwritten);
  EXPECT_EQ(Bits(hits.value()[0].score), Bits(1.0));  // cosine with itself
}

}  // namespace
}  // namespace stedb

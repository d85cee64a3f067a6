#ifndef STEDB_ANN_HNSW_H_
#define STEDB_ANN_HNSW_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/span.h"
#include "src/common/status.h"
#include "src/db/database.h"

namespace stedb::ann {

/// Deterministic HNSW (hierarchical navigable small world) index over the
/// snapshot's φ vectors — the sublinear counterpart to the exact scan in
/// api::ServingSession::SimilarTopK. Two halves, one byte format:
///
///  * BuildHnsw() constructs the graph and serializes it to a flat,
///    position-independent payload (the 'ANN ' snapshot section). It
///    either starts from the one-node graph {facts[0]} or extends an
///    earlier payload (HnswBase), with the same insert loop: only the
///    facts not yet in the graph are searched for and linked.
///  * HnswView opens that payload zero-copy — over an mmap'd snapshot or
///    an in-memory buffer — and answers top-k queries by greedy descent
///    plus a best-first beam search at the base layer.
///
/// Every sealed search goes through HnswView over the serialized bytes,
/// so "the mmap'd index serves results identical to the in-memory
/// builder's" holds by construction: same bytes, same code.
///
/// Determinism contract (the PR 2 / PR 7 rules, applied to graph
/// construction — asserted in tests/ann_test.cc):
///  * Level draws are counter-based: node levels come from
///    `Rng(seed).Fork(fact_id)`, a pure function of (seed, fact id) —
///    never from a shared sequential generator — so they are independent
///    of insertion order and thread count, and a base's levels must equal
///    the draws of its facts.
///  * Parallelism only schedules. The facts missing from the graph are
///    inserted in ascending fact id, in batches of min(nodes already in
///    the graph, kMaxInsertBatch) with two parallel phases each — so a
///    from-scratch build runs batches of 1, 2, 4, …, 128, 128, … and an
///    extension of a large base runs batches of 128. The search phase
///    searches the *frozen* pre-batch graph and selects each batch node's
///    own neighbors into its slot. The link phase applies the reverse
///    links, one task per (target node, level) list, each in ascending
///    node order. Picked neighbors all predate the batch, so no two tasks
///    share a list and every list sees the updates a serial per-node loop
///    would apply.
///  * Every ordering decision (beam, neighbor selection, results) uses
///    the lexicographic (score, node id) order — fact id is the
///    tie-break, so equal scores cannot reorder across runs. A base's
///    node ids are remapped into the merged ascending fact order, which
///    keeps every list's order and every id comparison.
///  * Distances route through the la::kernels dispatch table, whose
///    scalar and AVX2 paths are bit-identical; the graph therefore does
///    not depend on STEDB_SIMD either.
/// Together: one (seed, config, vectors, base payload) tuple yields one
/// byte-exact payload at any thread count on any SIMD path. An extended
/// graph is not the graph a from-scratch build over the same vectors
/// gives (its early nodes were linked without the later ones); it is the
/// graph HNSW's own incremental insert gives, and its recall is tested
/// against the from-scratch build's.

/// Distance metrics; values are persisted in the payload header.
enum class Metric : uint32_t { kCosine = 0, kEuclidean = 1, kDot = 2 };

/// Payload format version persisted in the 'ANN ' section header.
constexpr uint32_t kAnnFormatVersion = 1;

/// Hard cap on a node's level: with m >= 2 the expected maximum level of
/// even 2^32 nodes is ~32, so the cap only tames a pathological draw.
constexpr uint32_t kMaxHnswLevel = 32;

struct HnswConfig {
  Metric metric = Metric::kCosine;
  /// Max links per node per level (level 0 keeps up to 2*m). [2, 1024].
  uint32_t m = 16;
  /// Beam width while inserting; larger = better graph, slower build.
  uint32_t ef_construction = 200;
  /// Root seed of the counter-based level draws.
  uint64_t seed = 0x5eedb;
  /// Build parallelism (0 = STEDB_THREADS / hardware concurrency). Never
  /// affects the produced bytes.
  int threads = 0;
};

/// Strided view over the vectors the index was built on. Node i's vector
/// is the dim doubles at `base + i * stride_bytes`; both base and stride
/// must be 8-byte aligned (the PHI section and la::Matrix rows are).
struct VectorSource {
  const char* base = nullptr;
  size_t stride_bytes = 0;

  const double* Row(size_t i) const {
    return reinterpret_cast<const double*>(base + i * stride_bytes);
  }
  /// A contiguous row-major matrix of `dim`-wide rows.
  static VectorSource Dense(const double* data, size_t dim) {
    return VectorSource{reinterpret_cast<const char*>(data),
                        dim * sizeof(double)};
  }
};

/// One search hit: node index (= PHI record index) + similarity score
/// (higher = closer for every metric; Euclidean is the negated distance).
struct ScoredNode {
  double score = 0.0;
  uint32_t node = 0;
};

/// The deterministic strict total order every queue and result list uses:
/// descending score, ascending node id on ties.
inline bool BetterHit(const ScoredNode& a, const ScoredNode& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.node < b.node;
}

/// Per-query instrumentation (feeds the stedb_ann_visited_nodes
/// histogram): nodes whose distance to the query was evaluated.
struct SearchStats {
  size_t visited = 0;
};

/// ‖v‖₂ for the cosine metric (0.0 for the others, which need no norm).
/// Routed through la::kernels, so it is bit-identical across SIMD paths.
double NormOf(Metric metric, const double* v, size_t dim);

/// Similarity score of two vectors with precomputed norms (ignored
/// except for cosine). Higher = closer:
///   cosine    dot(a,b) / (‖a‖·‖b‖), 0.0 when either norm is 0 —
///             bit-equal to la::CosineSimilarity;
///   euclidean -sqrt(dist²(a,b)) — bit-equal to -la::Distance;
///   dot       dot(a,b).
double PairScore(Metric metric, const double* a, const double* b, size_t dim,
                 double norm_a, double norm_b);

/// Convenience over PairScore for equal-sized spans (computes both
/// norms). Bit-equal to PairScore with the same norms, so an exact scan
/// that computes its query norm once still matches scores from this.
double Score(Metric metric, Span<const double> a, Span<const double> b);

struct HnswBase;  // below HnswView

/// Builds the index over `facts.size()` vectors (node i = facts[i], which
/// must be strictly ascending — the PHI record order) and returns the
/// serialized payload. Without a base the graph starts as the one node
/// facts[0]; with one it starts as the base, whose nodes keep their
/// levels and links (ids remapped into `facts`' order) while the facts
/// it lacks are inserted. A base holding every fact reproduces its own
/// payload byte for byte. InvalidArgument on empty input, a bad config,
/// unsorted facts, or a base that does not fit: built under another
/// config (HnswView::BuiltWith) or dimension, facts unsorted or missing
/// from `facts`, or a node level that disagrees with its fact's draw.
Result<std::string> BuildHnsw(const HnswConfig& config,
                              Span<const db::FactId> facts,
                              const VectorSource& vectors, size_t dim,
                              const HnswBase* base = nullptr);

/// Zero-copy reader over a serialized payload. Open() validates the
/// whole structure up front (header ranges, exact payload size, every
/// adjacency offset/count/id) so Search never needs bounds checks; the
/// buffer must stay alive and must be 8-byte aligned (snapshot sections
/// are; copy an in-memory payload into an aligned buffer first).
class HnswView {
 public:
  HnswView() = default;

  /// `expected_nodes` and `dim` come from the enclosing snapshot (PHI
  /// record count and header dim); a payload disagreeing with its
  /// container is rejected.
  static Result<HnswView> Open(const char* data, size_t size,
                               size_t expected_nodes, size_t dim);

  bool valid() const { return levels_ != nullptr; }
  size_t num_nodes() const { return num_nodes_; }
  size_t dim() const { return dim_; }
  Metric metric() const { return metric_; }
  uint32_t m() const { return m_; }
  uint32_t ef_construction() const { return ef_construction_; }
  uint64_t seed() const { return seed_; }
  uint32_t max_level() const { return max_level_; }
  uint32_t entry_node() const { return entry_; }
  /// Whether the header's metric, m, ef_construction and seed are
  /// `config`'s — the knobs that shape the graph (threads does not).
  bool BuiltWith(const HnswConfig& config) const;

  /// Node's level and per-level adjacency (level 0 first in the pool, so
  /// the base-layer hot path is one offset lookup).
  uint32_t level(uint32_t node) const { return levels_[node]; }
  Span<const uint32_t> neighbors(uint32_t node, uint32_t lvl) const;

  /// The up-to-k best nodes for `query` (best first, BetterHit order).
  /// `ef` is the base-layer beam width, clamped up to k. `vectors` must
  /// be the same vectors the index was built on, in node order.
  std::vector<ScoredNode> Search(const double* query, size_t k, size_t ef,
                                 const VectorSource& vectors,
                                 SearchStats* stats = nullptr) const;

 private:
  const uint32_t* levels_ = nullptr;
  const uint64_t* offsets_ = nullptr;  ///< node -> u32 index into pool_
  const uint32_t* pool_ = nullptr;     ///< per level: count, then ids
  const double* norms_ = nullptr;      ///< per node ‖v‖₂ (cosine only)
  size_t num_nodes_ = 0;
  size_t dim_ = 0;
  Metric metric_ = Metric::kCosine;
  uint32_t m_ = 0;
  uint32_t ef_construction_ = 0;
  uint64_t seed_ = 0;
  uint32_t max_level_ = 0;
  uint32_t entry_ = 0;
};

/// An earlier payload to extend instead of starting from one node: the
/// payload opened as a view, and the strictly ascending facts its nodes
/// stand for (node j = facts[j], the PHI record order of its snapshot).
/// The caller vouches that BuildHnsw's `vectors` hold, for each of these
/// facts, the bytes the base was built over: the builder cannot see the
/// old vectors, so EmbeddingStore::Compact compares them before it
/// extends.
struct HnswBase {
  HnswView view;
  Span<const db::FactId> facts;
};

namespace internal {

/// Test seam: sets the calling thread's visited-mark generation, which
/// searches stamp and wrap after 65535. The thread's next search runs
/// at `generation + 1`, so a test can cross the wrap in two searches.
void SetVisitedGenerationForTest(uint16_t generation);

}  // namespace internal
}  // namespace stedb::ann

#endif  // STEDB_ANN_HNSW_H_

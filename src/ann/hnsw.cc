#include "src/ann/hnsw.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>
#include <utility>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/la/kernels.h"

namespace stedb::ann {
namespace {

// ---- Payload layout (version 1) ----------------------------------------
//
// All integers little-endian, doubles raw IEEE-754; every array starts on
// an 8-byte offset within the payload (and the snapshot container keeps
// payloads on 8-byte file offsets, so the mmap'd arrays are aligned).
//
//   [0..4)    u32 format version (1)
//   [4..8)    u32 metric
//   [8..12)   u32 m
//   [12..16)  u32 ef_construction
//   [16..24)  u64 seed
//   [24..32)  u64 num_nodes                 n >= 1
//   [32..36)  u32 max_level
//   [36..40)  u32 entry node
//   [40..48)  u64 adj_words                 u32 words in the pool
//   [48..52)  u32 dim                       vector dimension built against
//   [52..56)  u32 reserved (0)
//   levels    u32[n], zero-padded to 8
//   offsets   u64[n]                        node -> first pool word
//   pool      u32[adj_words], padded to 8   per node, levels 0..level:
//                                           count, then `count` node ids
//   norms     f64[n]                        cosine metric only
constexpr size_t kHeaderBytes = 56;

constexpr uint32_t kMinM = 2;
constexpr uint32_t kMaxM = 1024;

void PutU32(std::string& out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(buf));
}

void PutU64(std::string& out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(buf));
}

void PutF64(std::string& out, double v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(buf));
}

void PadTo8(std::string& out) {
  while (out.size() % 8 != 0) out.push_back('\0');
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// PairScore over an already-resolved kernel table, so the hot loops look
/// the table up once per search or build instead of once per distance.
double PairScoreWith(const la::KernelOps& ops, Metric metric, const double* a,
                     const double* b, size_t dim, double norm_a,
                     double norm_b) {
  switch (metric) {
    case Metric::kCosine:
      // Same guard and evaluation order as la::CosineSimilarity, so the
      // scores are bit-equal to the brute-force oracle's.
      if (norm_a == 0.0 || norm_b == 0.0) return 0.0;
      return ops.dot(a, b, dim) / (norm_a * norm_b);
    case Metric::kEuclidean:
      return -std::sqrt(ops.dist2(a, b, dim));
    case Metric::kDot:
      return ops.dot(a, b, dim);
  }
  return 0.0;
}

/// Scores query/node and node/node pairs against one vector set. The
/// norms pointer is null for the norm-free metrics.
struct Scorer {
  Metric metric;
  size_t dim;
  VectorSource vecs;
  const double* norms = nullptr;
  const la::KernelOps* ops = &la::Kernels();

  double NodeNorm(uint32_t node) const {
    return norms == nullptr ? 0.0 : norms[node];
  }
  double ToQuery(const double* q, double q_norm, uint32_t node) const {
    return PairScoreWith(*ops, metric, q, vecs.Row(node), dim, q_norm,
                         NodeNorm(node));
  }
  double Between(uint32_t a, uint32_t b) const {
    return PairScoreWith(*ops, metric, vecs.Row(a), vecs.Row(b), dim,
                         NodeNorm(a), NodeNorm(b));
  }
};

/// The visited set of SearchLayer: one tag per node, stamped with the
/// current search's generation. Reused by every search on its thread —
/// across indexes too, since a new generation makes every older stamp
/// stale — so starting a search costs an increment, not an allocation.
/// The u16 generation wraps every 65535 searches; the wrap clears the
/// tags, or a node stamped exactly one wrap earlier would read as visited
/// and be skipped without any error.
class VisitedMarks {
 public:
  /// Starts a search over node ids [0, num_nodes).
  void Begin(size_t num_nodes) {
    if (tags_.size() < num_nodes) tags_.resize(num_nodes, 0);
    if (++generation_ == 0) {
      std::fill(tags_.begin(), tags_.end(), uint16_t{0});
      generation_ = 1;
    }
  }
  /// Marks `node`; false when this search had already marked it.
  bool Insert(uint32_t node) {
    uint16_t& tag = tags_[node];
    if (tag == generation_) return false;
    tag = generation_;
    return true;
  }
  void set_generation(uint16_t generation) { generation_ = generation; }

 private:
  std::vector<uint16_t> tags_;
  uint16_t generation_ = 0;
};

thread_local VisitedMarks t_visited;

/// priority_queue comparators over the BetterHit total order. Compare(a,b)
/// == "a has lower priority than b", so BestOnTop pops the best hit and
/// WorstOnTop pops the worst (the bounded result set's eviction victim).
struct BestOnTop {
  bool operator()(const ScoredNode& a, const ScoredNode& b) const {
    return BetterHit(b, a);
  }
};
struct WorstOnTop {
  bool operator()(const ScoredNode& a, const ScoredNode& b) const {
    return BetterHit(a, b);
  }
};

/// Greedy descent on one level: repeatedly move to the best neighbor
/// until no neighbor improves on the current node. BetterHit is a strict
/// total order, so the walk cannot cycle and the endpoint is a pure
/// function of the graph — independent of thread count.
template <typename Graph>
ScoredNode GreedyStep(const Graph& g, const Scorer& scorer, const double* q,
                      double q_norm, ScoredNode ep, uint32_t level,
                      SearchStats* stats) {
  bool improved = true;
  while (improved) {
    improved = false;
    for (uint32_t nb : g.neighbors(ep.node, level)) {
      const ScoredNode cand{scorer.ToQuery(q, q_norm, nb), nb};
      if (stats != nullptr) ++stats->visited;
      if (BetterHit(cand, ep)) {
        ep = cand;
        improved = true;
      }
    }
  }
  return ep;
}

/// Best-first beam search on one level, keeping the `ef` best visited
/// nodes. Terminates when the best unexpanded candidate is strictly worse
/// than the worst kept result. Returns the kept nodes best first.
template <typename Graph>
std::vector<ScoredNode> SearchLayer(const Graph& g, const Scorer& scorer,
                                    const double* q, double q_norm,
                                    ScoredNode ep, uint32_t level, size_t ef,
                                    SearchStats* stats) {
  std::priority_queue<ScoredNode, std::vector<ScoredNode>, BestOnTop> cands;
  std::priority_queue<ScoredNode, std::vector<ScoredNode>, WorstOnTop> kept;
  VisitedMarks& visited = t_visited;
  visited.Begin(g.size());
  visited.Insert(ep.node);
  cands.push(ep);
  kept.push(ep);
  while (!cands.empty()) {
    const ScoredNode c = cands.top();
    if (kept.size() >= ef && BetterHit(kept.top(), c)) break;
    cands.pop();
    for (uint32_t nb : g.neighbors(c.node, level)) {
      if (!visited.Insert(nb)) continue;
      const ScoredNode cand{scorer.ToQuery(q, q_norm, nb), nb};
      if (stats != nullptr) ++stats->visited;
      if (kept.size() < ef || BetterHit(cand, kept.top())) {
        cands.push(cand);
        kept.push(cand);
        if (kept.size() > ef) kept.pop();
      }
    }
  }
  std::vector<ScoredNode> out;
  out.reserve(kept.size());
  while (!kept.empty()) {
    out.push_back(kept.top());
    kept.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

/// The HNSW diversity heuristic over a best-first candidate list: keep a
/// candidate unless it sits closer to an already-kept neighbor than to
/// the base node, then fill any remaining slots with the skipped
/// candidates in order (keepPruned). Pure function of the (score, id)
/// ordering, so selection is deterministic.
std::vector<ScoredNode> SelectNeighbors(const Scorer& scorer,
                                        const std::vector<ScoredNode>& cands,
                                        size_t limit) {
  if (cands.size() <= limit) return cands;
  std::vector<ScoredNode> selected;
  std::vector<ScoredNode> skipped;
  selected.reserve(limit);
  for (const ScoredNode& c : cands) {
    if (selected.size() >= limit) break;
    bool diverse = true;
    for (const ScoredNode& s : selected) {
      if (scorer.Between(c.node, s.node) > c.score) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      selected.push_back(c);
    } else {
      skipped.push_back(c);
    }
  }
  for (const ScoredNode& c : skipped) {
    if (selected.size() >= limit) break;
    selected.push_back(c);
  }
  return selected;
}

/// Mutable adjacency during construction.
struct BuildGraph {
  std::vector<uint32_t> levels;
  /// adj[node][level] -> linked node ids. Sized to the node's level on
  /// insertion; nodes not yet inserted have an empty outer vector, so the
  /// frozen-graph searches of a parallel phase never see them.
  std::vector<std::vector<std::vector<uint32_t>>> adj;

  size_t size() const { return levels.size(); }
  Span<const uint32_t> neighbors(uint32_t node, uint32_t level) const {
    const auto& per_level = adj[node];
    if (level >= per_level.size()) return {};
    return {per_level[level].data(), per_level[level].size()};
  }
};

/// Counter-based level draw: a pure function of (seed, fact id), the
/// Rng::Fork contract that makes levels independent of insertion order,
/// thread count and SIMD path.
uint32_t DrawLevel(const Rng& root, db::FactId fact, double inv_log_m) {
  Rng stream = root.Fork(static_cast<uint64_t>(static_cast<int64_t>(fact)));
  const double u = stream.NextDouble();
  const double draw = -std::log(u) * inv_log_m;  // u == 0 -> +inf -> cap
  if (!(draw < static_cast<double>(kMaxHnswLevel))) return kMaxHnswLevel;
  return static_cast<uint32_t>(draw);
}

std::string Serialize(const HnswConfig& config, const BuildGraph& g,
                      uint32_t max_level, uint32_t entry, size_t dim,
                      const std::vector<double>& norms) {
  const size_t n = g.levels.size();
  uint64_t adj_words = 0;
  for (size_t i = 0; i < n; ++i) {
    for (const auto& links : g.adj[i]) {
      adj_words += 1 + links.size();
    }
  }
  std::string out;
  out.reserve(kHeaderBytes + n * 16 + adj_words * 4 + norms.size() * 8 + 16);
  PutU32(out, kAnnFormatVersion);
  PutU32(out, static_cast<uint32_t>(config.metric));
  PutU32(out, config.m);
  PutU32(out, config.ef_construction);
  PutU64(out, config.seed);
  PutU64(out, n);
  PutU32(out, max_level);
  PutU32(out, entry);
  PutU64(out, adj_words);
  PutU32(out, static_cast<uint32_t>(dim));
  PutU32(out, 0);  // reserved
  for (size_t i = 0; i < n; ++i) PutU32(out, g.levels[i]);
  PadTo8(out);
  uint64_t cursor = 0;
  for (size_t i = 0; i < n; ++i) {
    PutU64(out, cursor);
    for (const auto& links : g.adj[i]) cursor += 1 + links.size();
  }
  for (size_t i = 0; i < n; ++i) {
    for (const auto& links : g.adj[i]) {
      PutU32(out, static_cast<uint32_t>(links.size()));
      for (uint32_t id : links) PutU32(out, id);
    }
  }
  PadTo8(out);
  for (double norm : norms) PutF64(out, norm);
  return out;
}

/// Batch ceiling for the frozen-graph parallel insert. A batch is never
/// larger than the graph it searches, so a build from one node doubles
/// (1, 2, 4, ...) and keeps the early graph dense; the cap bounds how
/// stale the frozen graph a batch searches can get relative to the nodes
/// being inserted, which is what keeps recall at exact-oracle levels.
constexpr size_t kMaxInsertBatch = 128;

/// Node ids of `base`'s nodes in the merged order of `facts`: base node j
/// becomes facts' index of base.facts[j]. Both lists ascend, so one merge
/// walk finds them all, and the map keeps every id comparison.
Result<std::vector<uint32_t>> MergedIds(const HnswBase& base,
                                        Span<const db::FactId> facts) {
  if (base.facts.size() != base.view.num_nodes()) {
    return Status::InvalidArgument(
        "hnsw: base facts disagree with its node count");
  }
  std::vector<uint32_t> ids(base.facts.size());
  size_t i = 0;
  for (size_t j = 0; j < base.facts.size(); ++j) {
    if (j > 0 && base.facts[j] <= base.facts[j - 1]) {
      return Status::InvalidArgument(
          "hnsw: base facts must be strictly ascending");
    }
    while (i < facts.size() && facts[i] < base.facts[j]) ++i;
    if (i == facts.size() || facts[i] != base.facts[j]) {
      return Status::InvalidArgument("hnsw: base fact " +
                                     std::to_string(base.facts[j]) +
                                     " is missing from the facts to index");
    }
    ids[j] = static_cast<uint32_t>(i);
  }
  return ids;
}

/// One reverse-link update of the link phase: `node` joins `target`'s
/// list at `level`, scored `score` against it. Ordered by list, then by
/// node id.
struct ReverseLink {
  uint32_t target;
  uint32_t level;
  uint32_t node;
  double score;

  bool SameList(const ReverseLink& o) const {
    return target == o.target && level == o.level;
  }
  bool operator<(const ReverseLink& o) const {
    if (target != o.target) return target < o.target;
    if (level != o.level) return level < o.level;
    return node < o.node;
  }
};

}  // namespace

double NormOf(Metric metric, const double* v, size_t dim) {
  if (metric != Metric::kCosine) return 0.0;
  return std::sqrt(la::Norm2Sq(v, dim));
}

double PairScore(Metric metric, const double* a, const double* b, size_t dim,
                 double norm_a, double norm_b) {
  return PairScoreWith(la::Kernels(), metric, a, b, dim, norm_a, norm_b);
}

double Score(Metric metric, Span<const double> a, Span<const double> b) {
  return PairScore(metric, a.data(), b.data(), a.size(),
                   NormOf(metric, a.data(), a.size()),
                   NormOf(metric, b.data(), b.size()));
}

Result<std::string> BuildHnsw(const HnswConfig& config,
                              Span<const db::FactId> facts,
                              const VectorSource& vectors, size_t dim,
                              const HnswBase* base) {
  if (facts.empty()) {
    return Status::InvalidArgument("hnsw: cannot build over zero vectors");
  }
  if (dim == 0 || dim > static_cast<size_t>(UINT32_MAX)) {
    return Status::InvalidArgument("hnsw: dimension must fit in u32");
  }
  if (config.m < kMinM || config.m > kMaxM) {
    return Status::InvalidArgument("hnsw: m must be in [2, 1024]");
  }
  if (config.ef_construction == 0) {
    return Status::InvalidArgument("hnsw: ef_construction must be positive");
  }
  const size_t n = facts.size();
  if (n >= static_cast<size_t>(UINT32_MAX)) {
    return Status::InvalidArgument("hnsw: too many vectors for u32 node ids");
  }
  for (size_t i = 1; i < n; ++i) {
    if (facts[i] <= facts[i - 1]) {
      return Status::InvalidArgument(
          "hnsw: facts must be strictly ascending (PHI record order)");
    }
  }
  std::vector<uint32_t> base_ids;
  if (base != nullptr) {
    if (!base->view.valid() || !base->view.BuiltWith(config)) {
      return Status::InvalidArgument(
          "hnsw: base was built under another config");
    }
    if (base->view.dim() != dim) {
      return Status::InvalidArgument(
          "hnsw: base dimension disagrees with the vectors");
    }
    STEDB_ASSIGN_OR_RETURN(base_ids, MergedIds(*base, facts));
  }

  // Per-node levels and norms: counter-based streams / pure kernel calls,
  // one disjoint output slot per index — the ParallelFor contract.
  const Rng root(config.seed);
  const double inv_log_m = 1.0 / std::log(static_cast<double>(config.m));
  BuildGraph g;
  g.levels.resize(n);
  g.adj.resize(n);
  std::vector<double> norms;
  if (config.metric == Metric::kCosine) norms.resize(n);
  ParallelFor(config.threads, n, [&](size_t i) {
    g.levels[i] = DrawLevel(root, facts[i], inv_log_m);
    if (!norms.empty()) {
      norms[i] = NormOf(config.metric, vectors.Row(i), dim);
    }
  });

  Scorer scorer{config.metric, dim, vectors,
                norms.empty() ? nullptr : norms.data()};
  const uint32_t m0 = config.m * 2;  // base-layer link ceiling

  // The graph before the first batch — the base, or the one node
  // facts[0] — and the nodes still to insert, in ascending id.
  uint32_t entry = 0;
  uint32_t max_level = 0;
  std::vector<uint32_t> pending;
  if (base != nullptr) {
    const HnswView& view = base->view;
    for (size_t j = 0; j < base_ids.size(); ++j) {
      if (view.level(static_cast<uint32_t>(j)) != g.levels[base_ids[j]]) {
        return Status::InvalidArgument(
            "hnsw: base level of fact " + std::to_string(base->facts[j]) +
            " disagrees with its level draw");
      }
    }
    ParallelFor(config.threads, base_ids.size(), [&](size_t j) {
      const auto node = static_cast<uint32_t>(j);
      auto& per_level = g.adj[base_ids[j]];
      per_level.resize(view.level(node) + 1);
      for (uint32_t l = 0; l < per_level.size(); ++l) {
        const Span<const uint32_t> links = view.neighbors(node, l);
        per_level[l].reserve(links.size());
        for (uint32_t id : links) per_level[l].push_back(base_ids[id]);
      }
    });
    entry = base_ids[view.entry_node()];
    max_level = view.max_level();
    pending.reserve(n - base_ids.size());
    size_t j = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (j < base_ids.size() && base_ids[j] == i) {
        ++j;
      } else {
        pending.push_back(i);
      }
    }
  } else {
    g.adj[0].resize(g.levels[0] + 1);
    max_level = g.levels[0];
    pending.resize(n - 1);
    for (uint32_t i = 1; i < n; ++i) pending[i - 1] = i;
  }
  size_t in_graph = n - pending.size();

  // Per-batch slots: picked[bi][level] is the batch node's own neighbor
  // list, written by exactly one index of the search fan-out.
  std::vector<std::vector<std::vector<ScoredNode>>> picked;
  std::vector<ReverseLink> links;
  std::vector<size_t> group_starts;
  for (size_t next = 0; next < pending.size();) {
    const size_t batch_size =
        std::min({in_graph, kMaxInsertBatch, pending.size() - next});
    const uint32_t* batch = pending.data() + next;
    picked.assign(batch_size, {});
    const uint32_t frozen_entry = entry;
    const uint32_t frozen_max = max_level;

    // Search phase: each batch node searches the frozen pre-batch graph
    // (read-only) for its per-level candidates and selects its own
    // neighbors from them. No shared mutable state, so the results cannot
    // depend on scheduling.
    ParallelFor(config.threads, batch_size, [&](size_t bi) {
      const uint32_t node = batch[bi];
      const double* q = vectors.Row(node);
      const double q_norm = norms.empty() ? 0.0 : norms[node];
      const uint32_t node_level = g.levels[node];
      ScoredNode ep{scorer.ToQuery(q, q_norm, frozen_entry), frozen_entry};
      for (uint32_t l = frozen_max; l > node_level; --l) {
        ep = GreedyStep(g, scorer, q, q_norm, ep, l, nullptr);
      }
      auto& per_level = picked[bi];
      per_level.resize(node_level + 1);
      const uint32_t top = std::min(node_level, frozen_max);
      for (uint32_t l = top + 1; l-- > 0;) {
        const std::vector<ScoredNode> found = SearchLayer(
            g, scorer, q, q_norm, ep, l, config.ef_construction, nullptr);
        ep = found.front();
        per_level[l] = SelectNeighbors(scorer, found, config.m);
      }
    });

    // Own lists and the entry point, in ascending node id. The searches
    // saw only the frozen graph, so every picked neighbor predates the
    // batch: own lists belong to batch nodes, reverse targets do not.
    links.clear();
    for (size_t bi = 0; bi < batch_size; ++bi) {
      const uint32_t node = batch[bi];
      const uint32_t node_level = g.levels[node];
      g.adj[node].resize(node_level + 1);
      for (uint32_t l = 0; l <= node_level; ++l) {
        auto& own = g.adj[node][l];
        own.reserve(picked[bi][l].size());
        for (const ScoredNode& s : picked[bi][l]) {
          own.push_back(s.node);
          links.push_back({s.node, l, node, s.score});
        }
      }
      if (node_level > max_level) {
        max_level = node_level;
        entry = node;
      }
    }

    // Link phase: one group per (target, level) list, each applying its
    // updates in ascending node id — the order a serial per-node loop
    // would. No two groups share a list, so any split of the groups over
    // threads yields the same lists.
    std::sort(links.begin(), links.end());
    group_starts.clear();
    for (size_t i = 0; i < links.size(); ++i) {
      if (i == 0 || !links[i - 1].SameList(links[i])) group_starts.push_back(i);
    }
    group_starts.push_back(links.size());
    ParallelFor(config.threads, group_starts.size() - 1, [&](size_t gi) {
      const uint32_t target = links[group_starts[gi]].target;
      const uint32_t level = links[group_starts[gi]].level;
      const uint32_t cap = level == 0 ? m0 : config.m;
      auto& back = g.adj[target][level];
      for (size_t i = group_starts[gi]; i < group_starts[gi + 1]; ++i) {
        const ReverseLink& link = links[i];
        if (back.size() < cap) {
          back.push_back(link.node);
          continue;
        }
        // The list is full: re-select over existing + new, scored
        // relative to the list's owner.
        std::vector<ScoredNode> pool;
        pool.reserve(back.size() + 1);
        for (uint32_t t : back) pool.push_back({scorer.Between(t, target), t});
        pool.push_back({link.score, link.node});  // the score is symmetric
        std::sort(pool.begin(), pool.end(), BetterHit);
        const std::vector<ScoredNode> kept = SelectNeighbors(scorer, pool, cap);
        back.clear();
        for (const ScoredNode& t : kept) back.push_back(t.node);
      }
    });
    next += batch_size;
    in_graph += batch_size;
  }

  return Serialize(config, g, max_level, entry, dim, norms);
}

// ---- HnswView ----------------------------------------------------------

namespace {

/// Flat adjacency over the serialized pool; Open() validated every
/// offset, count and id, so the walks below need no bounds checks.
struct FlatGraph {
  const uint32_t* levels;
  const uint64_t* offsets;
  const uint32_t* pool;
  size_t num_nodes;

  size_t size() const { return num_nodes; }
  Span<const uint32_t> neighbors(uint32_t node, uint32_t level) const {
    if (level > levels[node]) return {};
    uint64_t c = offsets[node];
    for (uint32_t l = 0; l < level; ++l) c += 1 + pool[c];
    return {pool + c + 1, pool[c]};
  }
};

}  // namespace

Result<HnswView> HnswView::Open(const char* data, size_t size,
                                size_t expected_nodes, size_t dim) {
  if (reinterpret_cast<uintptr_t>(data) % 8 != 0) {
    return Status::InvalidArgument("hnsw: payload must be 8-byte aligned");
  }
  if (size < kHeaderBytes) {
    return Status::InvalidArgument("hnsw: payload shorter than its header");
  }
  const uint32_t version = GetU32(data);
  if (version != kAnnFormatVersion) {
    return Status::InvalidArgument("hnsw: unsupported format version " +
                                   std::to_string(version));
  }
  const uint32_t metric_raw = GetU32(data + 4);
  if (metric_raw > static_cast<uint32_t>(Metric::kDot)) {
    return Status::InvalidArgument("hnsw: unknown metric " +
                                   std::to_string(metric_raw));
  }
  HnswView view;
  view.metric_ = static_cast<Metric>(metric_raw);
  view.m_ = GetU32(data + 8);
  view.ef_construction_ = GetU32(data + 12);
  view.seed_ = GetU64(data + 16);
  const uint64_t n64 = GetU64(data + 24);
  view.max_level_ = GetU32(data + 32);
  view.entry_ = GetU32(data + 36);
  const uint64_t adj_words = GetU64(data + 40);
  if (view.m_ < kMinM || view.m_ > kMaxM) {
    return Status::InvalidArgument("hnsw: implausible m in header");
  }
  if (n64 == 0 || n64 != expected_nodes) {
    return Status::InvalidArgument(
        "hnsw: node count disagrees with the snapshot's PHI records");
  }
  if (GetU32(data + 48) != dim) {
    return Status::InvalidArgument(
        "hnsw: dimension disagrees with the snapshot header");
  }
  if (view.max_level_ > kMaxHnswLevel || view.entry_ >= n64) {
    return Status::InvalidArgument("hnsw: implausible entry point");
  }
  const size_t n = static_cast<size_t>(n64);
  view.num_nodes_ = n;
  view.dim_ = dim;

  // Exact size check before touching any array. The counts are bounded
  // by the actual payload size first, so the byte arithmetic below cannot
  // overflow on a crafted header.
  if (n64 > size / 4 || adj_words > size / 4) {
    return Status::InvalidArgument("hnsw: payload size mismatch");
  }
  const uint64_t levels_bytes = (n64 * 4 + 7) / 8 * 8;
  const uint64_t offsets_bytes = n64 * 8;
  const uint64_t pool_bytes = (adj_words * 4 + 7) / 8 * 8;
  const uint64_t norms_bytes = view.metric_ == Metric::kCosine ? n64 * 8 : 0;
  if (kHeaderBytes + levels_bytes + offsets_bytes + pool_bytes + norms_bytes !=
      size) {
    return Status::InvalidArgument("hnsw: payload size mismatch");
  }

  view.levels_ = reinterpret_cast<const uint32_t*>(data + kHeaderBytes);
  view.offsets_ =
      reinterpret_cast<const uint64_t*>(data + kHeaderBytes + levels_bytes);
  view.pool_ = reinterpret_cast<const uint32_t*>(data + kHeaderBytes +
                                                 levels_bytes + offsets_bytes);
  if (norms_bytes > 0) {
    view.norms_ = reinterpret_cast<const double*>(
        data + kHeaderBytes + levels_bytes + offsets_bytes + pool_bytes);
  }

  // Walk the whole adjacency once: offsets must tile the pool exactly,
  // counts must respect the per-level ceilings and every id must be a
  // valid node. After this, Search runs with no bounds checks at all.
  uint64_t cursor = 0;
  for (size_t i = 0; i < n; ++i) {
    if (view.levels_[i] > view.max_level_) {
      return Status::InvalidArgument("hnsw: node level above max level");
    }
    if (view.offsets_[i] != cursor) {
      return Status::InvalidArgument("hnsw: adjacency offsets do not tile");
    }
    for (uint32_t l = 0; l <= view.levels_[i]; ++l) {
      if (cursor >= adj_words) {
        return Status::InvalidArgument("hnsw: adjacency overruns the pool");
      }
      const uint32_t count = view.pool_[cursor];
      const uint32_t cap = l == 0 ? view.m_ * 2 : view.m_;
      if (count > cap || cursor + 1 + count > adj_words) {
        return Status::InvalidArgument("hnsw: adjacency list overruns");
      }
      for (uint32_t j = 0; j < count; ++j) {
        if (view.pool_[cursor + 1 + j] >= n64) {
          return Status::InvalidArgument("hnsw: neighbor id out of range");
        }
      }
      cursor += 1 + count;
    }
  }
  if (cursor != adj_words) {
    return Status::InvalidArgument("hnsw: trailing words in adjacency pool");
  }
  if (view.levels_[view.entry_] != view.max_level_) {
    return Status::InvalidArgument("hnsw: entry node level mismatch");
  }
  return view;
}

bool HnswView::BuiltWith(const HnswConfig& config) const {
  return metric_ == config.metric && m_ == config.m &&
         ef_construction_ == config.ef_construction && seed_ == config.seed;
}

Span<const uint32_t> HnswView::neighbors(uint32_t node, uint32_t lvl) const {
  return FlatGraph{levels_, offsets_, pool_, num_nodes_}.neighbors(node, lvl);
}

std::vector<ScoredNode> HnswView::Search(const double* query, size_t k,
                                         size_t ef,
                                         const VectorSource& vectors,
                                         SearchStats* stats) const {
  if (!valid() || k == 0) return {};
  const FlatGraph g{levels_, offsets_, pool_, num_nodes_};
  const Scorer scorer{metric_, dim_, vectors, norms_};
  const double q_norm = NormOf(metric_, query, dim_);
  ScoredNode ep{scorer.ToQuery(query, q_norm, entry_), entry_};
  if (stats != nullptr) ++stats->visited;
  for (uint32_t l = max_level_; l > 0; --l) {
    ep = GreedyStep(g, scorer, query, q_norm, ep, l, stats);
  }
  std::vector<ScoredNode> out = SearchLayer(g, scorer, query, q_norm, ep, 0,
                                            std::max(ef, k), stats);
  if (out.size() > k) out.resize(k);
  return out;
}

namespace internal {

void SetVisitedGenerationForTest(uint16_t generation) {
  t_visited.set_generation(generation);
}

}  // namespace internal

}  // namespace stedb::ann

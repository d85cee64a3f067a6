#include "src/n2v/skipgram.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "src/common/parallel.h"
#include "src/la/kernels.h"

namespace stedb::n2v {
namespace {

/// Numerically clamped logistic function.
inline double Sigmoid(double x) {
  if (x > 30.0) return 1.0;
  if (x < -30.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

/// Walks per mini-batch of the simulate-then-apply pipeline. Fixed (never
/// derived from the thread count): the batch boundaries define which
/// parameters a walk's simulation starts from, so they must be identical
/// at any pool size.
constexpr size_t kWalkBatch = 8;

/// Per-walk result of the simulation phase: for every embedding row the
/// walk touched, the start value it read and the value its private online
/// SGD run left behind (the row's *delta* is cur − start). Content is a
/// pure function of the walk, the batch-start matrices and the walk's RNG
/// stream, so it is identical no matter which worker produced it.
struct WalkRec {
  /// One overlay per matrix side (input/center rows, output rows).
  struct Overlay {
    std::vector<graph::NodeId> nodes;  ///< touched rows, first-touch order
    std::vector<double> start;         ///< batch-start copies, slot-major
    std::vector<double> cur;           ///< privately updated copies

    void Clear() {
      nodes.clear();
      start.clear();
      cur.clear();
    }
  };

  Overlay in;
  Overlay out;
  double loss = 0.0;
  size_t pairs = 0;

  void Clear() {
    in.Clear();
    out.Clear();
    loss = 0.0;
    pairs = 0;
  }
};

}  // namespace

SkipGramModel::SkipGramModel(size_t num_nodes, SkipGramConfig config,
                             Rng& rng)
    : config_(config),
      in_(la::Matrix::RandomGaussian(num_nodes, config.dim,
                                     0.5 / static_cast<double>(config.dim),
                                     rng)),
      out_(num_nodes, config.dim, 0.0),
      frozen_(num_nodes, 0) {}

size_t SkipGramModel::Grow(size_t extra, Rng& rng) {
  const size_t old = in_.rows();
  // In-place row growth: one buffer resize each, no per-row round trips.
  in_.ResizeRows(old + extra);
  out_.ResizeRows(old + extra, 0.0);
  for (size_t r = old; r < old + extra; ++r) {
    double* row = in_.RowPtr(r);
    for (size_t c = 0; c < config_.dim; ++c) {
      row[c] = rng.NextGaussian(0.0, 0.5 / static_cast<double>(config_.dim));
    }
  }
  frozen_.resize(old + extra, 0);
  return old;
}

void SkipGramModel::FreezeAll() {
  std::fill(frozen_.begin(), frozen_.end(), 1);
}

double SkipGramModel::Train(
    const std::vector<std::vector<graph::NodeId>>& walks,
    const NodeVocab& vocab, int epochs, Rng& rng) {
  // Pair schedule: for each epoch, iterate walks in random order and emit
  // (center, context) pairs within the window, exactly as word2vec does on
  // sentences. The learning rate decays linearly over the global position
  // schedule.
  const size_t d = config_.dim;
  std::vector<size_t> order(walks.size());

  size_t total_positions = 0;
  for (const auto& w : walks) {
    if (w.size() > 1) total_positions += w.size();
  }
  const size_t schedule_total =
      std::max<size_t>(total_positions * static_cast<size_t>(epochs), 1);

  std::vector<WalkRec> recs(kWalkBatch);
  std::vector<size_t> pos_base(walks.size(), 0);
  // Per-walk-slot node → overlay-slot indices, reused across batches and
  // reset via the touched lists (never a full O(num_nodes) clear).
  std::vector<std::vector<int32_t>> in_slot(
      kWalkBatch, std::vector<int32_t>(num_nodes(), -1));
  std::vector<std::vector<int32_t>> out_slot(
      kWalkBatch, std::vector<int32_t>(num_nodes(), -1));

  double last_epoch_loss = 0.0;
  for (int e = 0; e < epochs; ++e) {
    std::iota(order.begin(), order.end(), size_t{0});
    rng.Shuffle(order);
    // One serial fork per epoch; each walk then gets the counter-based
    // stream keyed by its position in the shuffled order.
    const Rng epoch_root = rng.Fork();

    // Global position index of each walk's first node, for the lr decay.
    size_t acc = static_cast<size_t>(e) * total_positions;
    for (size_t p = 0; p < order.size(); ++p) {
      pos_base[p] = acc;
      if (walks[order[p]].size() > 1) acc += walks[order[p]].size();
    }

    double epoch_loss = 0.0;
    size_t epoch_pairs = 0;
    for (size_t batch = 0; batch < order.size(); batch += kWalkBatch) {
      const size_t batch_size = std::min(kWalkBatch, order.size() - batch);

      // ---- Phase A: one task per walk. Each task replays the exact
      // sequential word2vec update rule, but against a private
      // copy-on-first-touch overlay of the rows it visits (seeded from the
      // batch-start matrices, which no one writes during this phase). The
      // online dynamics within a walk — including the sigmoid saturation
      // that keeps repeated pairs from overshooting — are preserved. ----
      ParallelFor(config_.threads, batch_size, [&, d](size_t k) {
        const size_t p = batch + k;
        const std::vector<graph::NodeId>& walk = walks[order[p]];
        WalkRec& rec = recs[k];
        rec.Clear();
        if (walk.size() < 2) return;
        Rng wr = epoch_root.Fork(p);
        std::vector<int32_t>& islot = in_slot[k];
        std::vector<int32_t>& oslot = out_slot[k];

        auto touch = [d](WalkRec::Overlay& ov, std::vector<int32_t>& slots,
                         const la::Matrix& m, graph::NodeId n) -> size_t {
          const size_t ni = static_cast<size_t>(n);
          if (slots[ni] < 0) {
            slots[ni] = static_cast<int32_t>(ov.nodes.size());
            ov.nodes.push_back(n);
            const double* src = m.RowPtr(ni);
            ov.start.insert(ov.start.end(), src, src + d);
            ov.cur.insert(ov.cur.end(), src, src + d);
          }
          return static_cast<size_t>(slots[ni]);
        };

        std::vector<double> grad(d);
        for (size_t pos = 0; pos < walk.size(); ++pos) {
          // Linear learning-rate decay over the whole schedule.
          const double progress =
              static_cast<double>(pos_base[p] + pos) /
              static_cast<double>(schedule_total);
          const double lr =
              std::max(config_.lr * (1.0 - progress), config_.lr * 0.01);
          const int window =
              1 + static_cast<int>(wr.NextUint(config_.window));
          const int lo = std::max<int>(0, static_cast<int>(pos) - window);
          const int hi = std::min<int>(static_cast<int>(walk.size()) - 1,
                                       static_cast<int>(pos) + window);
          for (int c = lo; c <= hi; ++c) {
            if (c == static_cast<int>(pos)) continue;
            const graph::NodeId center = walk[pos];
            const graph::NodeId context = walk[static_cast<size_t>(c)];
            const size_t cslot = touch(rec.in, islot, in_, center);
            double* vc = rec.in.cur.data() + cslot * d;
            std::fill(grad.begin(), grad.end(), 0.0);

            auto update_output = [&](graph::NodeId target, double label) {
              const size_t tslot = touch(rec.out, oslot, out_, target);
              double* vo = rec.out.cur.data() + tslot * d;
              const double pred = Sigmoid(la::Dot(vc, vo, d));
              const double err = pred - label;  // d(loss)/d(dot)
              rec.loss += label > 0.5 ? -std::log(std::max(pred, 1e-12))
                                      : -std::log(std::max(1.0 - pred, 1e-12));
              la::Axpy(err, vo, grad.data(), d);
              if (!frozen_[static_cast<size_t>(target)]) {
                la::Axpy(-(lr * err), vc, vo, d);
              }
            };

            update_output(context, 1.0);
            for (int neg = 0; neg < config_.negatives; ++neg) {
              const graph::NodeId noise = vocab.SampleNoise(wr);
              if (noise == context || noise == center) continue;
              update_output(noise, 0.0);
            }
            if (!frozen_[static_cast<size_t>(center)]) {
              la::Axpy(-lr, grad.data(), vc, d);
            }
            ++rec.pairs;
          }
        }
        // Reset the slot maps for the next batch (touched entries only).
        for (graph::NodeId n : rec.in.nodes) islot[static_cast<size_t>(n)] = -1;
        for (graph::NodeId n : rec.out.nodes) oslot[static_cast<size_t>(n)] = -1;
      });

      // ---- Phase B: apply row deltas (cur − start), sharded by node id.
      // A shard owns both the input and output row of its nodes, applies
      // them in walk order, and no other shard touches them: deterministic
      // at any shard count, so the count may follow the pool size. When
      // several walks of the batch touched the same row, their deltas are
      // *averaged* (classic data-parallel model averaging) — summing them
      // would scale the effective step by the batch's duplication factor
      // and overshoot on hub nodes. Frozen rows have zero delta by
      // construction and are skipped outright. ----
      const size_t nshards =
          static_cast<size_t>(ResolveThreadCount(config_.threads));
      ParallelFor(config_.threads, nshards, [&, d](size_t shard) {
        // Touch counts for the rows this shard owns, per matrix side.
        std::unordered_map<size_t, double> in_scale, out_scale;
        for (size_t k = 0; k < batch_size; ++k) {
          for (graph::NodeId n : recs[k].in.nodes) {
            const size_t ni = static_cast<size_t>(n);
            if (ni % nshards == shard && !frozen_[ni]) in_scale[ni] += 1.0;
          }
          for (graph::NodeId n : recs[k].out.nodes) {
            const size_t ni = static_cast<size_t>(n);
            if (ni % nshards == shard && !frozen_[ni]) out_scale[ni] += 1.0;
          }
        }
        for (size_t k = 0; k < batch_size; ++k) {
          const WalkRec& rec = recs[k];
          for (size_t s = 0; s < rec.in.nodes.size(); ++s) {
            const size_t ni = static_cast<size_t>(rec.in.nodes[s]);
            if (ni % nshards != shard || frozen_[ni]) continue;
            const double scale = 1.0 / in_scale[ni];
            double* row = in_.RowPtr(ni);
            const double* start = rec.in.start.data() + s * d;
            const double* cur = rec.in.cur.data() + s * d;
            for (size_t i = 0; i < d; ++i) {
              row[i] += scale * (cur[i] - start[i]);
            }
          }
          for (size_t s = 0; s < rec.out.nodes.size(); ++s) {
            const size_t ni = static_cast<size_t>(rec.out.nodes[s]);
            if (ni % nshards != shard || frozen_[ni]) continue;
            const double scale = 1.0 / out_scale[ni];
            double* row = out_.RowPtr(ni);
            const double* start = rec.out.start.data() + s * d;
            const double* cur = rec.out.cur.data() + s * d;
            for (size_t i = 0; i < d; ++i) {
              row[i] += scale * (cur[i] - start[i]);
            }
          }
        }
      });

      // Loss combines in walk order.
      for (size_t k = 0; k < batch_size; ++k) {
        epoch_loss += recs[k].loss;
        epoch_pairs += recs[k].pairs;
      }
    }
    last_epoch_loss =
        epoch_pairs > 0 ? epoch_loss / static_cast<double>(epoch_pairs) : 0.0;
  }
  return last_epoch_loss;
}

}  // namespace stedb::n2v

#include "src/fwd/trainer.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "src/common/parallel.h"
#include "src/common/timer.h"
#include "src/fwd/dist_cache.h"
#include "src/fwd/walk_distribution.h"
#include "src/fwd/walk_sampler.h"
#include "src/la/kernels.h"
#include "src/la/optimizer.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace stedb::fwd {
namespace {

/// Registry series of the FoRWaRD trainer. The dist-cache counters mirror
/// TrainStats::dist_cache cumulatively: each Train call adds its cache's
/// final totals, so the registry reads as lifetime counts where stats()
/// stays the per-call snapshot.
struct TrainMetrics {
  obs::Registry& reg = obs::Registry::Global();
  obs::Histogram& epoch_seconds = reg.GetHistogram(
      "stedb_train_epoch_seconds",
      "Wall time of one FoRWaRD training epoch (materialize + apply)",
      obs::Buckets::Latency());
  /// The epoch's critical path split in two: `apply` is the time spent
  /// applying gradients; `stall` is the rest — the first chunk's
  /// materialization plus, per chunk, the wait for the next chunk's
  /// materialization beyond the apply. One observation each per epoch.
  obs::Histogram& stage_apply = reg.GetHistogram(
      "stedb_train_stage_seconds",
      "Critical-path split of one FoRWaRD training epoch by stage",
      obs::Buckets::Latency(), {{"stage", "apply"}});
  obs::Histogram& stage_stall = reg.GetHistogram(
      "stedb_train_stage_seconds",
      "Critical-path split of one FoRWaRD training epoch by stage",
      obs::Buckets::Latency(), {{"stage", "stall"}});
  obs::Counter& epochs = reg.GetCounter(
      "stedb_train_epochs_total", "FoRWaRD training epochs completed");
  obs::Counter& cache_hits = reg.GetCounter(
      "stedb_train_dist_cache_lookups_total",
      "DistCache lookups by outcome", {{"result", "hit"}});
  obs::Counter& cache_misses = reg.GetCounter(
      "stedb_train_dist_cache_lookups_total",
      "DistCache lookups by outcome", {{"result", "miss"}});
  obs::Counter& cache_duplicates = reg.GetCounter(
      "stedb_train_dist_cache_lookups_total",
      "DistCache lookups by outcome", {{"result", "duplicate_compute"}});
  obs::Counter& cache_locked = reg.GetCounter(
      "stedb_train_dist_cache_lookups_total",
      "DistCache lookups by outcome", {{"result", "locked"}});
};

TrainMetrics& Metrics() {
  static TrainMetrics m;
  return m;
}

[[maybe_unused]] const TrainMetrics& g_eager_metrics = Metrics();

/// One materialized training tuple of the epoch pipeline: dense indices
/// into the embedded relation's fact vector plus the regression target κ
/// (paper Eq. 5). κ depends only on the database — never on model
/// parameters — which is what lets whole batches be simulated up front by
/// parallel workers.
struct Sample {
  uint32_t f;   ///< center fact index (the position's fact)
  uint32_t f2;  ///< contrast fact index
  uint32_t t;   ///< target index
  double kappa;
};

/// Positions materialized per wave. Fixed (never derived from the thread
/// count): the decomposition, and with it every per-fact RNG stream, must
/// be identical at any pool size.
constexpr size_t kMaterializeChunk = 64;

}  // namespace

Result<ForwardModel> ForwardTrainer::Train(db::RelationId rel,
                                           const AttrKeySet& excluded) {
  const db::Schema& schema = db_->schema();
  if (rel < 0 || static_cast<size_t>(rel) >= schema.num_relations()) {
    return Status::OutOfRange("relation id out of range");
  }
  const std::vector<db::FactId>& facts = db_->FactsOf(rel);
  if (facts.size() < 2) {
    return Status::FailedPrecondition(
        "FoRWaRD needs at least two facts in the embedded relation");
  }

  std::vector<WalkScheme> schemes = EnumerateWalkSchemes(
      schema, rel, config_.max_walk_len, config_.max_schemes);
  std::vector<SchemeTarget> targets = BuildTargets(schema, schemes, excluded);
  if (targets.empty()) {
    return Status::FailedPrecondition(
        "T(R, lmax) is empty: no FK-free attributes reachable");
  }

  Rng rng(config_.seed);
  ForwardModel model(rel, config_.dim, std::move(schemes), std::move(targets));
  model.InitPsi(config_.init_stddev, rng);
  for (db::FactId f : facts) {
    model.set_phi(f, la::RandomVector(config_.dim, config_.init_stddev, rng));
  }

  const size_t F = facts.size();
  const size_t T = model.targets().size();
  const size_t d = config_.dim;
  // Optimizer blocks: [0, F) for φ rows (by dense fact index), then one
  // block per ψ. Reserve makes concurrent sharded Step calls race-free.
  const size_t psi_base = F;

  std::unique_ptr<la::Optimizer> opt;
  if (config_.use_adam) {
    opt = std::make_unique<la::AdamOptimizer>(config_.lr);
  } else {
    opt = std::make_unique<la::SgdOptimizer>(config_.lr);
  }
  opt->Reserve(F + T);

  // Roots for the parallel phases, forked serially so their stream spaces
  // are disjoint. Counter-based Fork(stream_id) off these roots gives every
  // task its own reproducible stream regardless of execution order.
  Rng sample_root = rng.Fork();
  Rng dist_root = rng.Fork();

  WalkSampler sampler(db_);
  DistCache dists(db_, dist_root);

  // Dense φ-row index: facts of a relation map to contiguous blocks, so one
  // pointer array replaces the seed's per-sample unordered_map lookups (a
  // single-thread win on its own). Pointers stay valid: phi_ is node-based
  // and fully populated above.
  std::vector<la::Vector*> phi(F);
  for (size_t i = 0; i < F; ++i) phi[i] = model.mutable_phi(facts[i]);

  // Produces the regression target for a pair (f, f2, t), or < 0 when the
  // destination random variable does not exist for either side. Pure walk
  // simulation over the (immutable) database: thread-safe, deterministic
  // given the task's stream.
  auto sample_target = [&](db::FactId f, db::FactId f2, size_t t,
                           const WalkScheme& s, db::AttrId attr,
                           const Kernel& kernel, Rng& task_rng) -> double {
    switch (config_.kd_estimator) {
      case KdEstimator::kExactCached: {
        const ValueDistribution& da = dists.Get(model, f, t);
        if (!da.exists()) return -1.0;
        const ValueDistribution& dben = dists.Get(model, f2, t);
        if (!dben.exists()) return -1.0;
        return WalkDistribution::ExpectedKernel(da, dben, kernel);
      }
      case KdEstimator::kMultiSample: {
        double acc = 0.0;
        int got = 0;
        for (int m = 0; m < config_.kd_samples; ++m) {
          std::optional<db::Value> gv =
              sampler.SampleDestinationValue(s, attr, f, task_rng);
          std::optional<db::Value> g2v =
              sampler.SampleDestinationValue(s, attr, f2, task_rng);
          if (!gv.has_value() || !g2v.has_value()) continue;
          acc += kernel.Evaluate(*gv, *g2v);
          ++got;
        }
        return got > 0 ? acc / got : -1.0;
      }
      case KdEstimator::kSingleSample: {
        std::optional<db::Value> gv =
            sampler.SampleDestinationValue(s, attr, f, task_rng);
        std::optional<db::Value> g2v =
            sampler.SampleDestinationValue(s, attr, f2, task_rng);
        if (!gv.has_value() || !g2v.has_value()) return -1.0;
        return kernel.Evaluate(*gv, *g2v);
      }
    }
    return -1.0;
  };

  // Materializes the samples of one position of the shuffled epoch order
  // into `out`. Pure walk simulation on the task's own stream: runs on any
  // worker, concurrently with gradient application (κ never reads model
  // parameters).
  auto materialize = [&](int epoch, size_t fi, std::vector<Sample>& out) {
    const db::FactId f = facts[fi];
    Rng task_rng =
        sample_root.Fork(static_cast<uint64_t>(epoch) * F + fi);
    out.clear();
    for (size_t t = 0; t < T; ++t) {
      const WalkScheme& s = model.scheme_of(t);
      const db::AttrId attr = model.targets()[t].attr;
      const Kernel& kernel = kernels_->Get(s.End(schema), attr);
      // In exact mode, skip the whole (f, t) block when d_{s,f}[A] does
      // not exist (checked once, cached).
      if (config_.kd_estimator == KdEstimator::kExactCached &&
          !dists.Get(model, f, t).exists()) {
        continue;
      }
      for (int k = 0; k < config_.nsamples; ++k) {
        // f' uniform among the other facts.
        const size_t f2i = task_rng.NextIndex(F);
        if (f2i == fi) continue;
        const double kappa =
            sample_target(f, facts[f2i], t, s, attr, kernel, task_rng);
        if (kappa < 0.0) continue;
        out.push_back({static_cast<uint32_t>(fi), static_cast<uint32_t>(f2i),
                       static_cast<uint32_t>(t), kappa});
      }
    }
  };

  // Applies one position's samples with the classic online SGD inner loop:
  // fresh gradients per sample, three optimizer steps per sample. Exactly
  // one worker runs this at a time, so every parameter block sees its
  // updates in sample order — the training dynamics of the serial
  // reference, bit-identical at any thread count.
  // All inner-loop arithmetic goes through the dispatched kernel layer
  // (la/kernels.h) on preallocated buffers: MatVec for the two ψφ
  // products, Scale for the φ gradients, ScaleAdd per ψ-gradient row —
  // no per-sample allocation, and bit-identical on either SIMD path.
  la::Vector grad_f(d), grad_f2(d), psi_pf(d), psi_pf2(d);
  la::Matrix grad_psi(d, d);
  auto apply_chunk = [&](const std::vector<std::vector<Sample>>& batches,
                         size_t count) {
    for (size_t ci = 0; ci < count; ++ci) {
      for (const Sample& smp : batches[ci]) {
        la::Vector& pf = *phi[smp.f];
        la::Vector& pf2 = *phi[smp.f2];
        la::Matrix& psi = *model.mutable_psi(smp.t);
        la::MatVec(psi.data().data(), d, d, pf2.data(), psi_pf2.data());
        la::MatVec(psi.data().data(), d, d, pf.data(), psi_pf.data());
        const double err = la::Dot(pf.data(), psi_pf2.data(), d) - smp.kappa;
        la::Scale(grad_f.data(), err, psi_pf2.data(), d);
        la::Scale(grad_f2.data(), err, psi_pf.data(), d);
        // ∂L/∂ψ_ij = err/2 (φ(f)_i φ(f')_j + φ(f')_i φ(f)_j), one
        // ScaleAdd per row.
        const double half_err = 0.5 * err;
        for (size_t i = 0; i < d; ++i) {
          la::ScaleAdd(grad_psi.RowPtr(i), half_err * pf[i], pf2.data(),
                       half_err * pf2[i], pf.data(), d);
        }
        opt->Step(smp.f, pf.data(), grad_f.data(), d);
        opt->Step(smp.f2, pf2.data(), grad_f2.data(), d);
        opt->Step(psi_base + smp.t, psi.data().data(),
                  grad_psi.data().data(), d * d);
      }
    }
  };

  // Double-buffered chunk pipeline: while the (sequentially consistent)
  // apply of chunk c runs as one task, the walk simulation of chunk c + 1
  // fans out over the remaining workers. The two sides are independent —
  // materialization reads only the database, application only the model.
  std::vector<std::vector<Sample>> cur(std::min(kMaterializeChunk, F));
  std::vector<std::vector<Sample>> next(std::min(kMaterializeChunk, F));
  std::vector<size_t> order(F);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::ScopedTimer epoch_timer(Metrics().epoch_seconds);
    // Mild decay stabilizes the tail of training.
    opt->SetLearningRateScale(1.0 / (1.0 + 0.25 * epoch));
    std::iota(order.begin(), order.end(), size_t{0});
    rng.Shuffle(order);

    Timer stage_timer;
    const size_t first = std::min(kMaterializeChunk, F);
    ParallelFor(config_.threads, first, [&](size_t ci) {
      materialize(epoch, order[ci], cur[ci]);
    });
    double apply_s = 0.0;
    double stall_s = stage_timer.ElapsedSeconds();
    for (size_t chunk = 0; chunk < F; chunk += kMaterializeChunk) {
      const size_t chunk_size = std::min(kMaterializeChunk, F - chunk);
      const size_t next_begin = chunk + chunk_size;
      const size_t next_size =
          next_begin < F ? std::min(kMaterializeChunk, F - next_begin) : 0;
      double chunk_apply_s = 0.0;  // written by task 0, read after the join
      stage_timer.Reset();
      ParallelFor(config_.threads, 1 + next_size, [&](size_t task) {
        if (task == 0) {
          Timer apply_timer;
          apply_chunk(cur, chunk_size);
          chunk_apply_s = apply_timer.ElapsedSeconds();
        } else {
          const size_t ci = task - 1;
          materialize(epoch, order[next_begin + ci], next[ci]);
        }
      });
      apply_s += chunk_apply_s;
      stall_s += stage_timer.ElapsedSeconds() - chunk_apply_s;
      std::swap(cur, next);
    }
    Metrics().stage_apply.Observe(apply_s);
    Metrics().stage_stall.Observe(stall_s);
    Metrics().epochs.Inc();
  }
  stats_.dist_cache = dists.GetStats();
  TrainMetrics& m = Metrics();
  m.cache_hits.Inc(stats_.dist_cache.hits);
  m.cache_misses.Inc(stats_.dist_cache.misses);
  m.cache_duplicates.Inc(stats_.dist_cache.duplicate_computes);
  m.cache_locked.Inc(stats_.dist_cache.locked_lookups);
  return model;
}

void TouchTrainMetrics() { Metrics(); }

double ForwardTrainer::EvaluateLoss(const ForwardModel& model,
                                    int samples_per_fact, Rng& rng) const {
  const db::Schema& schema = db_->schema();
  const std::vector<db::FactId>& facts = db_->FactsOf(model.relation());
  WalkSampler sampler(db_);
  double total = 0.0;
  size_t count = 0;
  for (db::FactId f : facts) {
    for (int k = 0; k < samples_per_fact; ++k) {
      const size_t t = rng.NextIndex(model.targets().size());
      const WalkScheme& s = model.scheme_of(t);
      const db::AttrId attr = model.targets()[t].attr;
      std::optional<db::Value> gv =
          sampler.SampleDestinationValue(s, attr, f, rng);
      if (!gv.has_value()) continue;
      db::FactId f2 = facts[rng.NextIndex(facts.size())];
      if (f2 == f || !model.HasEmbedding(f2)) continue;
      std::optional<db::Value> g2v =
          sampler.SampleDestinationValue(s, attr, f2, rng);
      if (!g2v.has_value()) continue;
      const Kernel& kernel = kernels_->Get(s.End(schema), attr);
      const double err =
          model.Score(f, f2, t) - kernel.Evaluate(*gv, *g2v);
      total += err * err;
      ++count;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

}  // namespace stedb::fwd

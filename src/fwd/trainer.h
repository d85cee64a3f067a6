#ifndef STEDB_FWD_TRAINER_H_
#define STEDB_FWD_TRAINER_H_

#include <memory>

#include "src/common/status.h"
#include "src/db/database.h"
#include "src/fwd/dist_cache.h"
#include "src/fwd/kernel.h"
#include "src/fwd/model.h"

namespace stedb::fwd {

/// Forces registration of the trainer's obs metric families (epoch wall
/// time, DistCache hit/miss). Serving-only processes call this so their
/// /metrics exposition carries the training schema at zero.
void TouchTrainMetrics();

/// Counters from the most recent Train call, for observability and tests.
struct TrainStats {
  /// Distribution-cache behavior under the kExactCached estimator (all
  /// zeros for the sampling estimators, which bypass the cache). A high
  /// hit/miss ratio with few locked lookups means the wait-free read path
  /// carried the materialization phase.
  DistCacheStats dist_cache;
};

/// Static-phase FoRWaRD training (paper Section V-D).
///
/// Stochastic objective: for sampled tuples (f, f', s, A, g, g') where g, g'
/// are destinations of independent random walks with scheme s from f and f',
/// minimize   L = 1/2 | φ(f)^T ψ(s,A) φ(f') − κ(g[A], g'[A]) |^2   (Eq. 5),
/// using κ(g[A], g'[A]) as the one-sample estimate of the expected kernel
/// distance KD (Eq. 2). Samples are regenerated every epoch (streaming),
/// which matches the objective in expectation without materializing the
/// paper's full sample set.
///
/// Execution model: each epoch is a materialize-then-apply pipeline of
/// `config.threads`-wide ParallelFor fan-outs. The walk-dependent part —
/// the (f, f', t, κ) sample batches, where κ never depends on model
/// parameters — is simulated by parallel workers using counter-based
/// per-fact RNG streams and a sharded deterministic distribution cache
/// with wait-free reads (fwd/dist_cache.h), double-buffered one chunk
/// ahead of gradient application; the
/// application itself replays the classic online SGD inner loop as a
/// single pipelined task, so every parameter block sees fresh gradients in
/// sample order. Training is bit-identical for a fixed seed at any thread
/// count.
class ForwardTrainer {
 public:
  ForwardTrainer(const db::Database* database, const KernelRegistry* kernels,
                 ForwardConfig config)
      : db_(database), kernels_(kernels), config_(config) {}

  /// Trains an embedding of relation `rel`. `excluded` attributes (e.g. the
  /// downstream label) are removed from T(R, lmax) so the embedding never
  /// sees them. Returns the trained model.
  Result<ForwardModel> Train(db::RelationId rel, const AttrKeySet& excluded);

  /// Mean squared residual |score − κ|² over a fresh sample batch; exposed
  /// for convergence tests.
  double EvaluateLoss(const ForwardModel& model, int samples_per_fact,
                      Rng& rng) const;

  /// Counters from the most recent Train call (empty before the first).
  const TrainStats& stats() const { return stats_; }

 private:
  const db::Database* db_;
  const KernelRegistry* kernels_;
  ForwardConfig config_;
  TrainStats stats_;
};

}  // namespace stedb::fwd

#endif  // STEDB_FWD_TRAINER_H_

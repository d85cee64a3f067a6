#ifndef STEDB_FWD_EXTENDER_H_
#define STEDB_FWD_EXTENDER_H_

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/db/database.h"
#include "src/fwd/dist_cache.h"
#include "src/fwd/kernel.h"
#include "src/fwd/model.h"
#include "src/fwd/walk_distribution.h"

namespace stedb::fwd {

/// Dynamic-phase FoRWaRD: extends a trained model to newly inserted facts
/// without touching any existing embedding (paper Section V-E).
///
/// For sampled triples (f_i, s_i, A_i) with known φ(f_i) it builds the
/// overdetermined linear system (Eqs. 7-9)
///     C_i = ψ(s_i, A_i) · φ(f_i),
///     b_i = KD(d_{s_i, f_i}[A_i], d_{s_i, f_new}[A_i]),
///     C · φ(f_new) = b,
/// and solves for φ(f_new) in the least-squares sense, by the Moore-Penrose
/// pseudoinverse (Eq. 10) or ridge-regularized normal equations. Stability
/// of old embeddings is guaranteed by construction: only φ(f_new) is
/// written.
///
/// This is the paper's hot dynamic path, and the per-fact solves are
/// independent — ExtendBatch fans one arrival batch's solves out with
/// ParallelFor. Determinism at any thread count comes from two rules:
///  * every fact solves on its own counter-based RNG stream (keyed by the
///    fact id off one serial draw per batch), so neither scheduling order
///    nor batch composition perturbs a fact's samples;
///  * cached old-fact distributions are computed on streams keyed by
///    (fact, target) alone, so *which* thread (or which batch) first needs
///    a distribution cannot change its value — the cache is a pure
///    function of its key, and the solves of one batch run against the
///    model as of batch entry.
///
/// Old facts' destination distributions are cached across calls in a
/// fwd::DistCache (the trainer's wait-free cache, rooted at its own seed);
/// this is the paper's one-by-one mode, which does not recompute paths
/// starting at old tuples. Call InvalidateCache() before an all-at-once
/// batch to recompute them against the grown database.
class ForwardExtender {
 public:
  ForwardExtender(const db::Database* database, const KernelRegistry* kernels,
                  ForwardConfig config)
      : db_(database),
        kernels_(kernels),
        config_(config),
        dist_(database),
        cache_seed_(Rng::MixSeed(config.seed, 0x0DD1D157ull)),
        cache_(std::make_unique<DistCache>(database, Rng(cache_seed_))) {}

  /// Computes φ(f_new) and stores it into `model`. `f_new` must be a live
  /// fact of the model's relation without an embedding yet.
  Result<la::Vector> Extend(ForwardModel& model, db::FactId f_new, Rng& rng);

  /// Batch extension: solves φ for every fact in `facts` (each must be a
  /// live, not-yet-embedded fact of the model's relation; duplicates are
  /// solved once) against the model state at entry, fanned out over
  /// `threads` (0 = STEDB_THREADS, else hardware concurrency; see
  /// ResolveThreadCount). Solutions are installed into `model` — and
  /// appended to `*extended` when non-null — in ascending fact-id order;
  /// on a solver error, facts preceding the failing one (in that order)
  /// are still installed and the first error is returned. Bit-identical
  /// results at any thread count. `rng` advances exactly once per call.
  Status ExtendBatch(ForwardModel& model, const std::vector<db::FactId>& facts,
                     int threads, Rng& rng,
                     std::vector<db::FactId>* extended);

  /// Drops cached old-fact walk distributions (all-at-once mode). Not
  /// safe while an Extend or ExtendBatch runs.
  void InvalidateCache() {
    cache_ = std::make_unique<DistCache>(db_, Rng(cache_seed_));
  }

  /// Old-fact distributions cached so far.
  size_t cache_size() const { return cache_->size(); }

 private:
  /// The least-squares solve for one new fact against `model`'s current
  /// embeddings (`old_facts`, ascending). Does not write the model; safe
  /// to call concurrently (the distribution cache is wait-free for reads
  /// and deterministic per key).
  Result<la::Vector> SolveOne(const ForwardModel& model,
                              const std::vector<db::FactId>& old_facts,
                              db::FactId f_new, Rng& rng);

  const db::Database* db_;
  const KernelRegistry* kernels_;
  ForwardConfig config_;
  WalkDistribution dist_;
  /// Root of the per-key cache streams (fixed at construction): a miss on
  /// (fact f, target t) computes on Rng(cache_seed_).Fork(f * #targets + t).
  uint64_t cache_seed_;
  /// Old facts' distributions (unique_ptr keeps the extender movable).
  std::unique_ptr<DistCache> cache_;
};

}  // namespace stedb::fwd

#endif  // STEDB_FWD_EXTENDER_H_

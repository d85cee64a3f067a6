#ifndef STEDB_FWD_DIST_CACHE_H_
#define STEDB_FWD_DIST_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_annotations.h"
#include "src/db/database.h"
#include "src/fwd/model.h"
#include "src/fwd/walk_distribution.h"

namespace stedb::fwd {

/// Counters aggregated over all shards of a DistCache. A snapshot, not a
/// live view; taken with relaxed loads, so totals can lag in-flight
/// lookups by a few counts when sampled mid-training.
struct DistCacheStats {
  uint64_t hits = 0;     ///< resolved by the wait-free probe alone
  uint64_t misses = 0;   ///< wait-free probe failed; caller computed the entry
  uint64_t duplicate_computes = 0;  ///< computed value lost the insert race
  uint64_t locked_lookups = 0;      ///< lookups that took a shard lock
};

/// Lazily computed per-(fact, target) destination value distributions:
/// the kExactCached estimator's, the hottest shared structure of the
/// FoRWaRD materialization phase, and the dynamic extender's old-fact
/// distributions. Redesigned for contention-free reads.
///
/// Layout: 64 shards selected by a splitmix64 mix of the key. Each shard
/// owns an open-addressing table (linear probing, grown at 7/8 load)
/// published through a single atomic pointer; slots hold an atomic key and
/// an atomic pointer to an immutable heap-allocated ValueDistribution.
///
/// Concurrency contract:
///  * Readers are wait-free and lock-free: one acquire load of the table
///    pointer, a linear probe, no CAS, no lock. Steady state — after the
///    first epoch has populated the cache — every Get is a pure read.
///  * Writers (cache misses) compute the distribution OUTSIDE any lock,
///    then insert under the shard mutex; a racing duplicate computation
///    produces bit-identical bytes (the stream is derived from the key,
///    `root.Fork(key)` with key = fact · #targets + target) and the first
///    insert wins, so the cache stays deterministic under any schedule.
///  * Inserts publish value-then-key with release stores, so a reader
///    that observes a key (acquire) always observes its value.
///  * Grown-out tables are retired, not freed, until the cache is
///    destroyed: a reader still probing an old table sees a correct
///    (possibly incomplete) view and at worst reports a miss, which the
///    locked path then resolves against the newest table.
///
/// Missing distributions are cached too (as empty), so a non-existing
/// d_{s,f}[A] is detected once. Returned references stay valid for the
/// cache's lifetime (values are individually heap-allocated, never moved,
/// never erased).
///
/// The cache holds no model: each Get names the model whose walk schemes
/// and targets the key refers to, so an owner may move its model freely.
/// Every Get on one cache must pass models with the same targets.
class DistCache {
 public:
  DistCache(const db::Database* database, Rng root);
  ~DistCache();

  DistCache(const DistCache&) = delete;
  DistCache& operator=(const DistCache&) = delete;

  /// The value distribution d_{s,f}[A] for `model`'s target index
  /// `target`, computing and caching it on first request. Thread-safe;
  /// deterministic.
  const ValueDistribution& Get(const ForwardModel& model, db::FactId f,
                               size_t target);

  /// Relaxed-load snapshot of the per-shard counters, summed.
  DistCacheStats GetStats() const;

  /// Distributions cached so far: every miss inserted one unless it lost
  /// the insert race. Exact while no Get is in flight.
  size_t size() const {
    const DistCacheStats s = GetStats();
    return s.misses - s.duplicate_computes;
  }

 private:
  static constexpr size_t kShards = 64;
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  struct Slot {
    std::atomic<uint64_t> key{kEmptyKey};
    std::atomic<const ValueDistribution*> value{nullptr};
  };

  /// One immutable-capacity probe table. `mask` = capacity − 1 (power of
  /// two). Slots mutate (inserts), the table itself never reallocates —
  /// growth swaps in a new Table and retires this one.
  struct Table {
    explicit Table(size_t capacity) : mask(capacity - 1), slots(capacity) {}
    const size_t mask;
    std::vector<Slot> slots;
  };

  /// Padded to a cache line so per-shard counters and locks of neighboring
  /// shards do not false-share.
  struct alignas(64) Shard {
    std::atomic<Table*> table{nullptr};
    // Counters are per-shard precisely so the hot hit path increments a
    // line this shard's readers already own.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> duplicate_computes{0};
    std::atomic<uint64_t> locked_lookups{0};

    Mutex mu;  ///< serializes inserts and growth (writers only)
    size_t size STEDB_GUARDED_BY(mu) = 0;
    /// Incl. the live table.
    std::vector<std::unique_ptr<Table>> retired STEDB_GUARDED_BY(mu);
    std::vector<std::unique_ptr<ValueDistribution>> values
        STEDB_GUARDED_BY(mu);
  };

  /// splitmix64 finalizer: shard index from the high bits, probe start
  /// from the low — decorrelated from the sequential fact ids.
  static uint64_t Mix(uint64_t key);
  /// Probes `t` for `key`; null on miss. Wait-free.
  static const ValueDistribution* Probe(const Table* t, uint64_t key);
  /// Inserts under the shard lock (caller holds it). Grows at 7/8 load.
  const ValueDistribution& InsertLocked(Shard& shard, uint64_t key,
                                        ValueDistribution d)
      STEDB_REQUIRES(shard.mu);

  WalkDistribution dist_;
  Rng root_;
  std::array<Shard, kShards> shards_;
};

}  // namespace stedb::fwd

#endif  // STEDB_FWD_DIST_CACHE_H_

#include "src/fwd/dist_cache.h"

#include <utility>

namespace stedb::fwd {

namespace {
constexpr size_t kInitialCapacity = 32;  // per shard; power of two
}  // namespace

DistCache::DistCache(const db::Database* database, Rng root)
    : dist_(database), root_(root) {
  for (Shard& shard : shards_) {
    auto t = std::make_unique<Table>(kInitialCapacity);
    shard.table.store(t.get(), std::memory_order_relaxed);
    shard.retired.push_back(std::move(t));
  }
}

DistCache::~DistCache() = default;

uint64_t DistCache::Mix(uint64_t key) {
  uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// stedb:wait-free-begin — the reader fast path: atomic loads only, no
// lock, no CAS (stedb_lint enforces this region stays that way).
const ValueDistribution* DistCache::Probe(const Table* t, uint64_t key) {
  const uint64_t h = Mix(key);
  for (size_t i = h & t->mask;; i = (i + 1) & t->mask) {
    const Slot& slot = t->slots[i];
    const uint64_t k = slot.key.load(std::memory_order_acquire);
    if (k == key) {
      // The insert published value (release) before key (release), so the
      // acquire above makes the value visible; the defensive null check
      // only matters for hypothetical reorderings on exotic memory models
      // and costs nothing.
      return slot.value.load(std::memory_order_acquire);
    }
    if (k == kEmptyKey) return nullptr;  // probe chain ends: miss
  }
}
// stedb:wait-free-end

const ValueDistribution& DistCache::InsertLocked(Shard& shard, uint64_t key,
                                                 ValueDistribution d) {
  Table* t = shard.table.load(std::memory_order_relaxed);
  // Grow at 7/8 load so probe chains stay short. The old table is retired,
  // not freed: concurrent readers may still be probing it.
  if ((shard.size + 1) * 8 > (t->mask + 1) * 7) {
    auto grown = std::make_unique<Table>((t->mask + 1) * 2);
    for (const Slot& slot : t->slots) {
      const uint64_t k = slot.key.load(std::memory_order_relaxed);
      if (k == kEmptyKey) continue;
      const ValueDistribution* v = slot.value.load(std::memory_order_relaxed);
      const uint64_t h = Mix(k);
      for (size_t i = h & grown->mask;; i = (i + 1) & grown->mask) {
        Slot& dst = grown->slots[i];
        if (dst.key.load(std::memory_order_relaxed) != kEmptyKey) continue;
        dst.value.store(v, std::memory_order_relaxed);
        dst.key.store(k, std::memory_order_relaxed);
        break;
      }
    }
    t = grown.get();
    // Release-publish the rehashed table: a reader that acquires the new
    // pointer sees every copied slot.
    shard.table.store(t, std::memory_order_release);
    shard.retired.push_back(std::move(grown));
  }

  auto value = std::make_unique<ValueDistribution>(std::move(d));
  const ValueDistribution* v = value.get();
  shard.values.push_back(std::move(value));
  const uint64_t h = Mix(key);
  for (size_t i = h & t->mask;; i = (i + 1) & t->mask) {
    Slot& slot = t->slots[i];
    if (slot.key.load(std::memory_order_relaxed) != kEmptyKey) continue;
    // Publication order is the reader's correctness hinge: value first,
    // key second, both release.
    slot.value.store(v, std::memory_order_release);
    slot.key.store(key, std::memory_order_release);
    break;
  }
  ++shard.size;
  return *v;
}

const ValueDistribution& DistCache::Get(const ForwardModel& model,
                                        db::FactId f, size_t target) {
  const uint64_t key =
      static_cast<uint64_t>(f) * model.targets().size() + target;
  Shard& shard = shards_[Mix(key) >> 58];  // top 6 bits

  // Wait-free fast path: one acquire load of the table pointer, one probe.
  {
    const Table* t = shard.table.load(std::memory_order_acquire);
    if (const ValueDistribution* v = Probe(t, key)) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      return *v;
    }
  }

  // Miss: compute OUTSIDE the lock. A racing duplicate computation yields
  // bit-identical bytes (key-derived stream) and the first insert wins, so
  // the cache content is schedule-independent.
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  Rng rng = root_.Fork(key);
  ValueDistribution d = dist_.Compute(
      model.scheme_of(target), model.targets()[target].attr, f, rng);

  shard.locked_lookups.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(shard.mu);
  // Re-probe the newest table: a racing worker may have inserted first.
  const Table* t = shard.table.load(std::memory_order_relaxed);
  if (const ValueDistribution* v = Probe(t, key)) {
    shard.duplicate_computes.fetch_add(1, std::memory_order_relaxed);
    return *v;
  }
  return InsertLocked(shard, key, std::move(d));
}

// stedb:wait-free-begin — stats snapshot: relaxed loads, never a lock.
DistCacheStats DistCache::GetStats() const {
  DistCacheStats s;
  for (const Shard& shard : shards_) {
    s.hits += shard.hits.load(std::memory_order_relaxed);
    s.misses += shard.misses.load(std::memory_order_relaxed);
    s.duplicate_computes +=
        shard.duplicate_computes.load(std::memory_order_relaxed);
    s.locked_lookups += shard.locked_lookups.load(std::memory_order_relaxed);
  }
  return s;
}
// stedb:wait-free-end

}  // namespace stedb::fwd

#ifndef STEDB_OBS_METRICS_H_
#define STEDB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/thread_annotations.h"

namespace stedb::obs {

/// Process-wide metric layer: counters, gauges and fixed-bucket
/// histograms registered once in a Registry and scraped as Prometheus
/// text exposition (RenderPrometheus / the serve layer's GET /metrics).
///
/// Design contract — the same wait-free discipline as fwd::DistCache:
///  * The recording side (Inc/Set/Add/Observe) is lock-free relaxed
///    atomics on cache-line-padded per-thread shards; no mutex, no
///    fence, no allocation. Hot paths (WAL appends, HTTP handlers,
///    ParallelFor fan-outs) record unconditionally.
///  * All aggregation happens at scrape time: Value()/Render() sum the
///    shards with relaxed loads. Totals can lag in-flight updates by a
///    few counts when sampled mid-operation — fine for monitoring,
///    and exact once the writers quiesce (tests rely on that).
///  * Registration allocates; it happens once per series at startup
///    (instrumented sites hold the returned reference in a static),
///    so the steady state is allocation-free.
///
/// Metric identity is `name{label="value",...}` with a small fixed-arity
/// label set (at most kMaxLabels pairs, checked at registration).
/// Registering the same identity twice returns the same instance;
/// re-registering it as a different type aborts (it is a programming
/// error that would silently corrupt the exposition).

namespace internal {

/// Shard count for the per-thread striping of counters and histograms.
constexpr size_t kShards = 16;

/// A stable per-thread shard index in [0, kShards).
size_t ThreadShard();

/// Relaxed CAS-add of a double stored as its bit pattern. Lock-free (not
/// wait-free); contention is already diluted by the per-thread shards.
void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta);

double LoadDouble(const std::atomic<uint64_t>& bits);

}  // namespace internal

/// Monotone event count. Inc() touches only the calling thread's padded
/// shard, so concurrent writers never share a cache line.
class Counter {
 public:
  // stedb:wait-free-begin — the record path: one relaxed fetch_add,
  // no lock, no allocation (stedb_lint enforces this region).
  void Inc(uint64_t n = 1) {
    cells_[internal::ThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  // stedb:wait-free-end
  /// Scrape-time sum over the shards.
  uint64_t Value() const;

 private:
  friend class Registry;
  Counter() = default;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, internal::kShards> cells_;
};

/// Last-written value (Set) or running sum (Add), as a double. Set is
/// wait-free; Add and SetMax are lock-free CAS loops.
class Gauge {
 public:
  void Set(double v);
  void Add(double delta) { internal::AtomicAddDouble(&bits_, delta); }
  /// Ratchets the gauge up to `v` if it exceeds the current value.
  void SetMax(double v);
  double Value() const { return internal::LoadDouble(bits_); }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<uint64_t> bits_{0};  ///< IEEE-754 bits of the value
};

/// Upper bucket bounds of a histogram, ascending; the +Inf bucket is
/// implicit. Fixed at registration — the hot path never reshapes.
struct Buckets {
  std::vector<double> bounds;

  /// Log-scaled latency buckets in seconds: 1us doubling up to ~16.8s
  /// (25 bounds). One scheme for every duration histogram, so p99s of
  /// different subsystems land on comparable grids.
  static Buckets Latency();
  /// Powers of two from 1 to 65536, for size/count distributions
  /// (coalesced batch sizes, group-commit batches, fan-out widths).
  static Buckets PowersOfTwo();
  /// `count` bounds starting at `first`, each `factor` times the last.
  static Buckets Exponential(double first, double factor, size_t count);
};

/// Fixed-bucket histogram. Observe() is two relaxed atomic updates on the
/// calling thread's shard (bucket count + sum); Count/Sum/bucket sums are
/// computed at scrape time.
class Histogram {
 public:
  void Observe(double v);

  uint64_t Count() const;
  double Sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative count of bucket `i` (i == bounds().size() is +Inf).
  uint64_t BucketCount(size_t i) const;

 private:
  friend class Registry;
  explicit Histogram(Buckets buckets);
  struct alignas(64) Shard {
    explicit Shard(size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<uint64_t>> counts;  ///< bounds + the +Inf bucket
    std::atomic<uint64_t> sum_bits{0};
  };
  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// One label pair of a series identity. Keys and values are expected to
/// come from a small fixed set (endpoint names, result classes) — never
/// from unbounded user input, which would explode series cardinality.
struct Label {
  std::string key;
  std::string value;
};
using Labels = std::vector<Label>;

/// Ceiling on labels per series; exceeding it aborts at registration.
constexpr size_t kMaxLabels = 4;

/// Insertion-ordered collection of named series. One process-global
/// instance (Global()) backs every instrumented subsystem and the
/// /metrics endpoint; tests construct private registries for golden
/// rendering checks.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-global registry every subsystem records into.
  static Registry& Global();

  /// Returns the series for `name{labels}`, registering it on first use.
  /// Aborts on a malformed name, too many labels, or a type conflict
  /// with an existing series of the same identity.
  Counter& GetCounter(const std::string& name, const std::string& help,
                      Labels labels = {});
  Gauge& GetGauge(const std::string& name, const std::string& help,
                  Labels labels = {});
  Histogram& GetHistogram(const std::string& name, const std::string& help,
                          const Buckets& buckets, Labels labels = {});

  /// Appends the Prometheus text exposition (one # HELP/# TYPE block per
  /// family, series grouped under it in registration order).
  void Render(std::string* out) const;

  /// Scrape-time lookups for tests and tools; null when the identity was
  /// never registered (or is a different type).
  const Counter* FindCounter(const std::string& name,
                             const Labels& labels = {}) const;
  const Gauge* FindGauge(const std::string& name,
                         const Labels& labels = {}) const;
  const Histogram* FindHistogram(const std::string& name,
                                 const Labels& labels = {}) const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Series {
    std::string name;
    std::string label_str;  ///< rendered `{k="v",...}`, empty when unlabeled
    Type type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Registration slow path. Creates the series AND its typed instance
  /// under mu_ in one shot (`buckets` only read for kHistogram), so two
  /// threads racing to register the same identity can never observe a
  /// series whose instance pointer is still being written.
  Series& GetOrCreate(const std::string& name, const std::string& help,
                      const Labels& labels, Type type,
                      const Buckets* buckets);
  const Series* Find(const std::string& name, const Labels& labels,
                     Type type) const;

  mutable Mutex mu_;
  /// Registration order.
  std::vector<std::unique_ptr<Series>> series_ STEDB_GUARDED_BY(mu_);
  /// identity -> series.
  std::unordered_map<std::string, Series*> index_ STEDB_GUARDED_BY(mu_);
  /// First-seen names.
  std::vector<std::string> family_order_ STEDB_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::string> family_help_
      STEDB_GUARDED_BY(mu_);
};

/// Renders the global registry — the function tools and benches call to
/// dump the same bytes GET /metrics serves.
void RenderPrometheus(std::string* out);

}  // namespace stedb::obs

#endif  // STEDB_OBS_METRICS_H_

// The benchmark's own arithmetic: percentiles, the percentile a sample
// supports, span self time and open-loop lag. Pure functions, no stedb
// dependency, so selftest.cc can pin them down exactly.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// ceil(p * n), with the product's rounding error (0.999 * 10000 lands a
/// hair above 9990) kept from bumping the rank.
inline double NearestRank(size_t n, double p) {
  return std::ceil(p * static_cast<double>(n) - 1e-9);
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(p * n) (1-based), so p = 0.5 of {1, 2, 3, 4} is 2. 0 when empty.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = NearestRank(sorted.size(), p);
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Samples ranked strictly above the nearest-rank p-th percentile of n.
inline size_t SamplesBeyond(size_t n, double p) {
  const auto rank = static_cast<size_t>(std::max(0.0, NearestRank(n, p)));
  return n > rank ? n - rank : 0;
}

/// The highest of `candidates` (descending order expected) that has at
/// least `min_beyond` samples beyond it in a sample of n; 0 when none
/// does. A tail percentile is only reported where it rests on at least
/// ten samples.
inline double SupportedPercentile(size_t n,
                                  const std::vector<double>& candidates,
                                  size_t min_beyond = 10) {
  for (double p : candidates) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

/// Latency samples of one operation type. A failed operation misses every
/// latency limit, so it ranks as +infinity. Samples are floats: a long
/// run keeps hundreds of thousands, and the benchmark's own bookkeeping
/// should not dominate the process's peak memory.
struct LatencySample {
  std::vector<float> ok;
  size_t failed = 0;

  /// Nearest-rank percentile over ok + failed samples (sorts `ok`).
  double At(double p) {
    if (!std::is_sorted(ok.begin(), ok.end())) std::sort(ok.begin(), ok.end());
    const size_t n = count();
    if (n == 0) return 0.0;
    const double rank = NearestRank(n, p);
    const size_t idx = std::min(rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1,
                                n - 1);
    return idx < ok.size() ? static_cast<double>(ok[idx])
                           : std::numeric_limits<double>::infinity();
  }
  size_t count() const { return ok.size() + failed; }
};

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

/// One recorded span: [start, end) in nanoseconds and the index of the
/// span that caused it (-1 for a root). Indices refer to one buffer.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t trace_id = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent,
/// and overlapping or touching children are merged first, so the covered
/// time is never counted twice; grandchildren lie inside their own
/// parent and do not count again. O(n log n) over one buffer.
inline std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const SpanRecord& c : spans) {
    if (c.parent < 0 || static_cast<size_t>(c.parent) >= spans.size()) {
      continue;
    }
    const SpanRecord& p = spans[static_cast<size_t>(c.parent)];
    const int64_t lo = std::max(c.start_ns, p.start_ns);
    const int64_t hi = std::min(c.end_ns, p.end_ns);
    if (hi > lo) kids[static_cast<size_t>(c.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = std::numeric_limits<int64_t>::min();
    for (const auto& [lo, hi] : k) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

/// One open-loop arrival, in seconds on one clock: when it was due, when
/// the generator actually issued it, and when a reader first saw it
/// served (negative when it never was).
struct Arrival {
  double due_s = 0.0;
  double issued_s = 0.0;
  double visible_s = -1.0;
};

/// Freshness and generator health of an open-loop run. Lag is timed from
/// the due time, so a stalled writer charges its stall to every arrival
/// queued behind it; lateness says how far the generator itself slipped.
struct LagReport {
  std::vector<double> lag_s;  ///< visible - due, arrivals that were seen
  size_t unseen = 0;          ///< arrivals never observed as served
  double lateness_p50_s = 0.0;
  double lateness_max_s = 0.0;
};

inline LagReport MeasureLag(const std::vector<Arrival>& arrivals) {
  LagReport r;
  std::vector<double> late;
  for (const Arrival& a : arrivals) {
    late.push_back(std::max(0.0, a.issued_s - a.due_s));
    if (a.visible_s < 0.0) {
      ++r.unseen;
    } else {
      r.lag_s.push_back(a.visible_s - a.due_s);
    }
  }
  std::sort(late.begin(), late.end());
  r.lateness_p50_s = Percentile(late, 0.5);
  r.lateness_max_s = late.empty() ? 0.0 : late.back();
  return r;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

// Checks the benchmark's own arithmetic (stats.h). Exits 1 on the first
// failed check. Run by run.py after every build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentile() {
  const std::vector<double> v = {1, 2, 3, 4};
  Check(Percentile(v, 0.5) == 2, "p50 of 1..4 is 2 (nearest rank)");
  Check(Percentile(v, 0.75) == 3, "p75 of 1..4 is 3");
  Check(Percentile(v, 1.0) == 4, "p100 is the max");
  Check(Percentile(v, 0.0) == 1, "p0 is the min");
  Check(Percentile({}, 0.5) == 0, "empty sample gives 0");

  // The highest percentile with >= 10 samples beyond it.
  const std::vector<double> c = {0.999, 0.99, 0.95, 0.9, 0.5};
  Check(SupportedPercentile(10000, c) == 0.999, "n=10000 supports p99.9");
  Check(SupportedPercentile(9999, c) == 0.99, "n=9999 leaves 9 beyond p99.9");
  Check(SupportedPercentile(1000, c) == 0.99, "n=1000 supports p99");
  Check(SupportedPercentile(999, c) == 0.95, "n=999 leaves 9 beyond p99");
  Check(SupportedPercentile(100, c) == 0.9, "n=100 supports p90");
  Check(SupportedPercentile(20, c) == 0.5, "n=20 supports p50 only");
  Check(SupportedPercentile(19, c) == 0.0, "n=19 supports none");

  // A failed request ranks as +inf: it misses every latency limit.
  LatencySample s;
  s.ok = {5, 1, 3};
  s.failed = 1;
  Check(s.At(0.5) == 3, "failures shift the median up");
  Check(std::isinf(s.At(1.0)), "a failure is the worst latency");
  Check(s.count() == 4, "failures are counted as samples");
}

void TestSelfTime() {
  // parent [0,100); children [10,30) and [30,50) touch; a grandchild
  // [15,20) sits inside the first child and must not count again.
  std::vector<SpanRecord> spans(4);
  spans[0] = {"p", 0, 100, -1, 1};
  spans[1] = {"c1", 10, 30, 0, 1};
  spans[2] = {"c2", 30, 50, 0, 1};
  spans[3] = {"g", 15, 20, 1, 1};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Check(self[0] == 60, "touching children merge: self 60");
  Check(self[1] == 15, "child minus grandchild: self 15");
  Check(self[2] == 20 && self[3] == 5, "leaf self time is its duration");

  // Overlapping children (parallel work) and a child past the parent end.
  std::vector<SpanRecord> par(4);
  par[0] = {"p", 0, 100, -1, 2};
  par[1] = {"a", 10, 30, 0, 2};
  par[2] = {"b", 20, 40, 0, 2};
  par[3] = {"late", 90, 120, 0, 2};
  Check(SelfTimesNs(par)[0] == 60, "overlap counted once, overhang clipped");

  // A child nested in another child of the same parent (mis-parented
  // input) still cannot push coverage past the union.
  std::vector<SpanRecord> nest(3);
  nest[0] = {"p", 0, 10, -1, 3};
  nest[1] = {"a", 2, 8, 0, 3};
  nest[2] = {"b", 3, 5, 0, 3};
  Check(SelfTimesNs(nest)[0] == 4, "contained sibling adds nothing");
}

void TestLag() {
  // Due every 10 ms; the generator issues the second arrival 5 ms late,
  // the third is never seen.
  std::vector<Arrival> a = {
      {0.000, 0.000, 0.004},
      {0.010, 0.015, 0.022},
      {0.020, 0.021, -1.0},
  };
  LagReport r = MeasureLag(a);
  Check(r.lag_s.size() == 2 && r.unseen == 1, "unseen arrivals are counted");
  Check(std::fabs(r.lag_s[0] - 0.004) < 1e-12, "lag from due time");
  Check(std::fabs(r.lag_s[1] - 0.012) < 1e-12,
        "a late issue is charged to the lag (measured from due)");
  Check(std::fabs(r.lateness_max_s - 0.005) < 1e-12, "max lateness");
  Check(std::fabs(r.lateness_p50_s - 0.001) < 1e-12, "median lateness");
}

}  // namespace

int main() {
  TestPercentile();
  TestSelfTime();
  TestLag();
  if (failures > 0) return 1;
  std::fprintf(stderr, "selftest: ok\n");
  return 0;
}

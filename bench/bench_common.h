#ifndef STEDB_BENCH_BENCH_COMMON_H_
#define STEDB_BENCH_BENCH_COMMON_H_

// Shared setup for the paper-table bench binaries. Every binary honors
//   STEDB_SCALE=smoke|default|paper
// (dataset size + embedding hyperparameters; see MethodConfig::ForScale)
// and an optional dataset-name filter as argv[1]. The system benches write
// their numbers through bench::Report.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/timer.h"
#include "src/data/registry.h"
#include "src/exp/embedding_method.h"

namespace stedb::bench {

inline const char* ScaleName(exp::RunScale scale) {
  switch (scale) {
    case exp::RunScale::kSmoke:
      return "smoke";
    case exp::RunScale::kDefault:
      return "default";
    case exp::RunScale::kPaper:
      return "paper";
  }
  return "?";
}

/// Datasets to run: all five (Table I order) or the one named in argv[1].
inline std::vector<std::string> SelectDatasets(int argc, char** argv) {
  if (argc > 1) return {argv[1]};
  return data::DatasetNames();
}

/// Generates one dataset at the configured scale; exits on failure.
inline data::GeneratedDataset MakeDatasetOrDie(const std::string& name,
                                               double data_scale,
                                               uint64_t seed = 97) {
  data::GenConfig gen;
  gen.scale = data_scale;
  gen.seed = seed;
  auto ds = data::MakeDataset(name, gen);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", name.c_str(),
                 ds.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(ds).value();
}

inline void PrintHeader(const char* table, const char* description,
                        exp::RunScale scale) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // live progress under tee
  std::printf("=== %s — %s ===\n", table, description);
  std::printf("(scale: %s; set STEDB_SCALE=smoke|default|paper; shapes, not "
              "absolute numbers, are the reproduction target)\n",
              ScaleName(scale));
  std::printf("(threads: %d; set STEDB_THREADS=N — results are "
              "bit-identical at any thread count)\n\n",
              ResolveThreadCount(0));
}

/// Wall-clock seconds of each of `reps` runs of `fn`, ascending.
template <typename Fn>
std::vector<double> TimeReps(int reps, Fn&& fn) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    seconds.push_back(t.ElapsedSeconds());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds;
}

/// Median-of-`reps` wall-clock seconds for `fn`.
template <typename Fn>
double TimeMedian(int reps, Fn&& fn) {
  const std::vector<double> seconds = TimeReps(reps, fn);
  return seconds[seconds.size() / 2];
}

/// Nearest-rank `p` quantile of an ascending sample; 0 when it is empty.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

/// One BENCH_<bench>.json report, streamed member by member into memory:
/// nested sections, and rows keyed by "name" (scripts/bench_compare.py
/// matches rows by it). Numbers print in the shortest form that reads back
/// to the same value, so counts are exact. Every report starts with
/// "bench" and "hardware_concurrency": the compare gate reads the core
/// count to skip ratio comparisons across unlike machines.
class Report {
 public:
  explicit Report(std::string bench) : bench_(std::move(bench)) {
    Set("bench", bench_);
    Set("hardware_concurrency", std::thread::hardware_concurrency());
  }

  template <typename Number,
            typename = std::enable_if_t<std::is_arithmetic_v<Number>>>
  void Set(std::string_view key, Number value) {
    char buf[32];
    Member(key);
    text_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  }
  void Set(std::string_view key, std::string_view value) {
    Member(key);
    Quote(value);
  }

  /// Opens a section under `key`: an object ('{') or an array ('[').
  void Begin(std::string_view key, char open) {
    Member(key);
    text_ += open;
    closers_.push_back(open == '[' ? ']' : '}');
    first_ = true;
  }

  /// Opens an element of the enclosing array: an object on one line whose
  /// first member is "name".
  void Row(std::string_view name) {
    Begin({}, '{');
    if (row_depth_ == 0) row_depth_ = closers_.size();
    Set("name", name);
  }

  /// Closes the innermost open section or row.
  void End() {
    if (closers_.empty()) return;
    if (row_depth_ == 0) NewLine(closers_.size() - 1);
    text_ += closers_.back();
    if (closers_.size() == row_depth_) row_depth_ = 0;
    closers_.pop_back();
    first_ = false;
  }

  /// The report with every section still open closed.
  std::string Text() const {
    Report closed = *this;
    while (!closed.closers_.empty()) closed.End();
    return closed.text_ + "\n";
  }

  /// Writes Text() to BENCH_<bench>.json in the working directory,
  /// replacing any earlier file of that name.
  void Write() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << Text();
    out.close();
    if (!out) {
      std::fprintf(stderr, "%s: cannot write the report\n", path.c_str());
      return;
    }
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  void NewLine(size_t depth) {
    text_ += '\n';
    text_.append(2 * depth, ' ');
  }
  /// Separator, then `"key": ` (array elements pass an empty key).
  void Member(std::string_view key) {
    if (!first_) text_ += row_depth_ == 0 ? "," : ", ";
    if (row_depth_ == 0) NewLine(closers_.size());
    first_ = false;
    if (key.empty()) return;
    Quote(key);
    text_ += ": ";
  }
  void Quote(std::string_view s) {
    text_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') text_ += '\\';
      text_ += c;
    }
    text_ += '"';
  }

  std::string bench_;
  std::string text_ = "{";
  std::vector<char> closers_ = {'}'};
  size_t row_depth_ = 0;  ///< depth of the open row; 0 outside rows
  bool first_ = true;     ///< nothing written yet in the innermost section
};

}  // namespace stedb::bench

#endif  // STEDB_BENCH_BENCH_COMMON_H_

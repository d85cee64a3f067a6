#ifndef STEDB_EXP_REPORT_H_
#define STEDB_EXP_REPORT_H_

#include <string>
#include <utility>
#include <vector>

namespace stedb::exp {

/// Fixed-width text table builder used by the bench binaries to print
/// paper-style tables.
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  /// Renders with a header rule, columns padded to content width.
  std::string Render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// "84.20% ±4.94" formatting used throughout the paper's tables.
std::string AccuracyCell(double mean, double stddev);

/// Seconds with `decimals` decimals: 3 (ms resolution) unless a table
/// needs finer.
std::string SecondsCell(double seconds, int decimals = 3);

/// Renders an ASCII line chart of one or more series over shared x values
/// (used to "plot" Figure 5 in terminal output). Values are percentages in
/// [0, 100].
std::string AsciiChart(const std::vector<double>& xs,
                       const std::vector<std::pair<std::string,
                                                   std::vector<double>>>& series,
                       int height = 12);

}  // namespace stedb::exp

#endif  // STEDB_EXP_REPORT_H_

#include "src/exp/report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/string_util.h"

namespace stedb::exp {

TableWriter::TableWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TableWriter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TableWriter::Render() const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      line += cell;
      line.append(width[c] - cell.size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    return line + "\n";
  };
  std::string out = render_row(headers_);
  size_t total = 0;
  for (size_t w : width) total += w + 2;
  out.append(total > 2 ? total - 2 : 0, '-');
  out += "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string AccuracyCell(double mean, double stddev) {
  return FormatDouble(mean * 100.0, 2) + "% ±" +
         FormatDouble(stddev * 100.0, 2);
}

std::string SecondsCell(double seconds, int decimals) {
  return FormatDouble(seconds, decimals) + "s";
}

std::string AsciiChart(
    const std::vector<double>& xs,
    const std::vector<std::pair<std::string, std::vector<double>>>& series,
    int height) {
  if (xs.empty() || series.empty()) return "";
  const int width = static_cast<int>(xs.size());
  // Grid rows from 100% (top) to 0% (bottom).
  std::vector<std::string> grid(height, std::string(width * 6, ' '));
  const char* marks = "*o+x#@";
  for (size_t s = 0; s < series.size(); ++s) {
    const std::vector<double>& ys = series[s].second;
    for (int i = 0; i < width && i < static_cast<int>(ys.size()); ++i) {
      const double frac = std::clamp(ys[i] / 100.0, 0.0, 1.0);
      int row = static_cast<int>((1.0 - frac) * (height - 1) + 0.5);
      grid[row][i * 6 + 2] = marks[s % 6];
    }
  }
  std::ostringstream os;
  for (int r = 0; r < height; ++r) {
    const double pct = 100.0 * (1.0 - static_cast<double>(r) / (height - 1));
    os << (r % 2 == 0 ? FormatDouble(pct, 0) : std::string(3, ' '));
    os << std::string(r % 2 == 0 ? 4 - FormatDouble(pct, 0).size() : 1, ' ');
    os << "|" << grid[r] << "\n";
  }
  os << "    +" << std::string(width * 6, '-') << "\n     ";
  for (int i = 0; i < width; ++i) {
    std::string label = FormatDouble(xs[i], 0);
    os << label << std::string(6 - label.size(), ' ');
  }
  os << "(% new data)\n";
  for (size_t s = 0; s < series.size(); ++s) {
    os << "    " << marks[s % 6] << " = " << series[s].first << "\n";
  }
  return os.str();
}

}  // namespace stedb::exp

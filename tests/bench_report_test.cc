// bench::Report is the one writer of the BENCH_*.json reports that
// scripts/bench_compare.py diffs against bench/baselines/. These tests pin
// its text byte for byte (the compare script matches rows by their "name"
// member, and a baseline holds numbers in the printed form) and its file
// handling (a report replaces the file of its name, never adds to it).
#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

namespace stedb::bench {
namespace {

/// Every construct of a report: a count past 2^32, the double 0.1, a
/// nested section holding a string that needs escaping, and an array of
/// two rows. The two sections are left open for Text() to close.
Report SampleReport(const std::string& bench) {
  Report report(bench);
  report.Set("requests", uint64_t{5000000000});
  report.Set("share", 0.1);
  report.Begin("simd", '{');
  report.Set("active_path", "avx2 \"fma\"");
  report.Begin("kernels", '[');
  report.Row("dot_d16");
  report.Set("dim", 16);
  report.Set("speedup", 54.322);
  report.End();
  report.Row("axpy_d16");
  report.Set("dim", 16);
  report.End();
  return report;
}

std::string Stamps(const std::string& bench) {
  return "{\n  \"bench\": \"" + bench + "\",\n  \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(BenchReportTest, TextMatchesTheGoldenLayout) {
  const std::string golden =
      Stamps("golden") +
      "  \"requests\": 5000000000,\n"
      "  \"share\": 0.1,\n"
      "  \"simd\": {\n"
      "    \"active_path\": \"avx2 \\\"fma\\\"\",\n"
      "    \"kernels\": [\n"
      "      {\"name\": \"dot_d16\", \"dim\": 16, \"speedup\": 54.322},\n"
      "      {\"name\": \"axpy_d16\", \"dim\": 16}\n"
      "    ]\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(SampleReport("golden").Text(), golden);
}

TEST(BenchReportTest, StampsComeFirstAndRowsLeadWithTheirName) {
  Report report("stamps");
  report.Begin("rows", '[');
  report.Row("only");
  const std::string text = report.Text();
  EXPECT_EQ(text, Stamps("stamps") +
                      "  \"rows\": [\n"
                      "    {\"name\": \"only\"}\n"
                      "  ]\n"
                      "}\n");
}

TEST(BenchReportTest, CountsPrintExactlyAndDoublesRoundTrip) {
  Report report("numbers");
  // 2^53 + 1 has no double: a count must not pass through one.
  report.Set("count", uint64_t{9007199254740993});
  report.Set("seconds", 9.5e-05);
  report.Set("third", 1.0 / 3.0);
  const std::string text = report.Text();
  EXPECT_NE(text.find("\"count\": 9007199254740993,"), std::string::npos);
  EXPECT_NE(text.find("\"seconds\": 9.5e-05,"), std::string::npos);
  EXPECT_NE(text.find("\"third\": 0.3333333333333333\n"), std::string::npos);
}

TEST(BenchReportTest, WriteReplacesTheFileOfItsName) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "stedb_bench_report";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);

  const Report first = SampleReport("replace");
  first.Write();
  EXPECT_EQ(ReadFile("BENCH_replace.json"), first.Text());

  Report second("replace");
  second.Set("share", 0.5);
  second.Write();
  EXPECT_EQ(ReadFile("BENCH_replace.json"), second.Text());

  std::filesystem::current_path(cwd);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stedb::bench

// Regenerates the paper's Table VI: average wall-clock seconds to embed one
// newly arrived tuple (training + inference), in the all-at-once and
// one-by-one setups.
//
// Shape expectation (paper): in the one-by-one setting FoRWaRD is
// significantly faster than Node2Vec on every dataset — Node2Vec must
// re-run gradient descent per arrival while FoRWaRD solves a linear
// system. "This insight was essential in the design of FoRWaRD."
#include "bench/bench_common.h"
#include "src/exp/dynamic_experiment.h"
#include "src/exp/report.h"

using namespace stedb;

int main(int argc, char** argv) {
  exp::RunScale scale = exp::ScaleFromEnv();
  exp::MethodConfig mcfg = exp::MethodConfig::ForScale(scale);
  bench::PrintHeader("Table VI", "average time to embed a new tuple", scale);

  exp::DynamicConfig dcfg;
  dcfg.new_ratio = 0.1;
  dcfg.runs = scale == exp::RunScale::kPaper ? 5 : 1;
  dcfg.check_stability = false;  // timing run

  exp::TableWriter table({"Task", "N2V (all at once)", "FWD (all at once)",
                          "N2V (one by one)", "FWD (one by one)"});
  for (const std::string& name : bench::SelectDatasets(argc, argv)) {
    data::GeneratedDataset ds = bench::MakeDatasetOrDie(
        name, scale == exp::RunScale::kPaper ? mcfg.data_scale
                                             : mcfg.data_scale * 0.6);
    std::vector<std::string> row = {name};
    for (bool one_by_one : {false, true}) {
      dcfg.one_by_one = one_by_one;
      for (const char* kind :
           {"node2vec", "forward"}) {
        auto res = exp::RunDynamicExperiment(ds, kind, mcfg, dcfg);
        // µs resolution: one-by-one FoRWaRD takes about a millisecond per
        // tuple, below what 3 decimals of a second can tell apart.
        row.push_back(res.ok()
                          ? exp::SecondsCell(
                                res.value().seconds_per_new_tuple, 6)
                          : "-");
      }
    }
    table.AddRow(std::move(row));
    std::printf("%s done\n", name.c_str());
  }
  std::printf("\n%s\n", table.Render().c_str());
  std::printf("paper Table VI (s/tuple, all-at-once N2V/FWD then one-by-one "
              "N2V/FWD): hepatitis 0.265/0.620/0.679/0.111, genes "
              "0.062/0.176/0.173/0.079, mutagenesis 0.650/0.280/0.764/0.134, "
              "world 0.640/0.733/0.283/0.149, mondial "
              "1.550/1.090/1.710/0.385\n");
  return 0;
}

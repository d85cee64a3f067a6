#include <gtest/gtest.h>

#include "src/data/registry.h"
#include "src/exp/dynamic_experiment.h"
#include "src/exp/report.h"
#include "src/exp/static_experiment.h"
#include "src/exp/timing.h"

namespace stedb::exp {
namespace {

data::GeneratedDataset SmokeGenes() {
  data::GenConfig cfg;
  cfg.scale = 0.1;
  cfg.seed = 17;
  return std::move(data::MakeGenes(cfg)).value();
}

MethodConfig SmokeMethods() {
  MethodConfig cfg = MethodConfig::ForScale(RunScale::kSmoke);
  return cfg;
}

TEST(StaticExperimentTest, ForwardBeatsMajorityOnGenes) {
  data::GeneratedDataset ds = SmokeGenes();
  StaticConfig scfg;
  scfg.folds = 3;
  scfg.embedding_per_fold = false;
  auto res = RunStaticExperiment(ds, "forward", SmokeMethods(),
                                 scfg);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_GT(res.value().mean_accuracy,
            res.value().majority_baseline + 0.05);
  EXPECT_GT(res.value().embed_train_seconds, 0.0);
}

TEST(StaticExperimentTest, Node2VecBeatsMajorityOnGenes) {
  data::GeneratedDataset ds = SmokeGenes();
  StaticConfig scfg;
  scfg.folds = 3;
  scfg.embedding_per_fold = false;
  auto res = RunStaticExperiment(ds, "node2vec", SmokeMethods(),
                                 scfg);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_GT(res.value().mean_accuracy,
            res.value().majority_baseline + 0.05);
}

TEST(StaticExperimentTest, PerFoldEmbeddingPath) {
  data::GeneratedDataset ds = SmokeGenes();
  StaticConfig scfg;
  scfg.folds = 2;
  scfg.embedding_per_fold = true;
  auto res = RunStaticExperiment(ds, "forward", SmokeMethods(),
                                 scfg);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res.value().method, "FoRWaRD");
}

TEST(StaticExperimentTest, FlatBaselineRuns) {
  data::GeneratedDataset ds = SmokeGenes();
  StaticConfig scfg;
  scfg.folds = 3;
  auto res = RunFlatBaseline(ds, scfg);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res.value().method, "FlatBaseline");
  EXPECT_GE(res.value().mean_accuracy, 0.0);
  EXPECT_LE(res.value().mean_accuracy, 1.0);
}

TEST(DynamicExperimentTest, StabilityAndAccuracy) {
  data::GeneratedDataset ds = SmokeGenes();
  DynamicConfig dcfg;
  dcfg.new_ratio = 0.2;
  dcfg.runs = 3;  // averages enough new tuples to keep the margin stable
  dcfg.one_by_one = true;
  auto res = RunDynamicExperiment(ds, "forward", SmokeMethods(),
                                  dcfg);
  ASSERT_TRUE(res.ok()) << res.status();
  // The headline stability contract, checked end to end.
  EXPECT_EQ(res.value().stability_drift, 0.0);
  EXPECT_GT(res.value().mean_accuracy, res.value().majority_baseline);
  EXPECT_GT(res.value().seconds_per_new_tuple, 0.0);
  EXPECT_GT(res.value().avg_new_facts, 0u);
}

TEST(DynamicExperimentTest, JournalingModeRecoversBitExact) {
  data::GeneratedDataset ds = SmokeGenes();
  DynamicConfig dcfg;
  dcfg.new_ratio = 0.2;
  dcfg.runs = 2;
  dcfg.one_by_one = true;
  dcfg.journal_dir = ::testing::TempDir() + "/stedb_dyn_journal";
  auto res = RunDynamicExperiment(ds, "forward", SmokeMethods(),
                                  dcfg);
  ASSERT_TRUE(res.ok()) << res.status();
  // Every run journaled its model and a cold store recovery matched the
  // in-memory embeddings bit for bit.
  EXPECT_TRUE(res.value().journaled);
  EXPECT_EQ(res.value().journal_drift, 0.0);
  EXPECT_EQ(res.value().stability_drift, 0.0);
}

TEST(DynamicExperimentTest, JournalingRecoversBitExactForNode2Vec) {
  // Since the Node2Vec codec landed, AttachJournal is no longer a
  // FoRWaRD-only affair: the same knob journals node2vec runs and the
  // cold-recovery drift must be exactly 0 for it too.
  data::GeneratedDataset ds = SmokeGenes();
  DynamicConfig dcfg;
  dcfg.new_ratio = 0.2;
  dcfg.runs = 1;
  dcfg.journal_dir = ::testing::TempDir() + "/stedb_dyn_journal_n2v";
  auto res = RunDynamicExperiment(ds, "node2vec", SmokeMethods(),
                                  dcfg);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_TRUE(res.value().journaled);
  EXPECT_EQ(res.value().journal_drift, 0.0);
  EXPECT_EQ(res.value().stability_drift, 0.0);
}

TEST(DynamicExperimentTest, AllAtOnceMode) {
  data::GeneratedDataset ds = SmokeGenes();
  DynamicConfig dcfg;
  dcfg.new_ratio = 0.2;
  dcfg.runs = 1;
  dcfg.one_by_one = false;
  auto res = RunDynamicExperiment(ds, "forward", SmokeMethods(),
                                  dcfg);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res.value().stability_drift, 0.0);
  EXPECT_FALSE(res.value().one_by_one);
}

TEST(DynamicExperimentTest, Node2VecStability) {
  data::GeneratedDataset ds = SmokeGenes();
  DynamicConfig dcfg;
  dcfg.new_ratio = 0.15;
  dcfg.runs = 1;
  auto res = RunDynamicExperiment(ds, "node2vec", SmokeMethods(),
                                  dcfg);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res.value().stability_drift, 0.0);
}

TEST(TimingTest, MeasuresBothMethods) {
  data::GeneratedDataset ds = SmokeGenes();
  auto timing = MeasureStaticTime(ds, SmokeMethods(), 5);
  ASSERT_TRUE(timing.ok()) << timing.status();
  EXPECT_GT(timing.value().node2vec_seconds, 0.0);
  EXPECT_GT(timing.value().forward_seconds, 0.0);
}

TEST(MethodConfigTest, ScalePresetsOrdered) {
  MethodConfig smoke = MethodConfig::ForScale(RunScale::kSmoke);
  MethodConfig def = MethodConfig::ForScale(RunScale::kDefault);
  MethodConfig paper = MethodConfig::ForScale(RunScale::kPaper);
  EXPECT_LT(smoke.data_scale, def.data_scale);
  EXPECT_LT(def.data_scale, paper.data_scale);
  EXPECT_LE(smoke.forward.dim, def.forward.dim);
  EXPECT_EQ(paper.forward.dim, 100u);   // paper Table II
  EXPECT_EQ(paper.node2vec.sg.dim, 100u);
  EXPECT_EQ(paper.node2vec.walk.walks_per_node, 40);
  EXPECT_EQ(paper.node2vec.walk.walk_length, 30);
}

TEST(CreateMethodTest, NamesAndErrors) {
  auto fwd =
      std::move(api::CreateMethod("forward", SmokeMethods(), 1)).value();
  auto n2v =
      std::move(api::CreateMethod("node2vec", SmokeMethods(), 1)).value();
  EXPECT_EQ(fwd->Name(), "FoRWaRD");
  EXPECT_EQ(n2v->Name(), "Node2Vec");
  // Method names are case-insensitive; display names resolve too.
  EXPECT_TRUE(api::CreateMethod("FoRWaRD", SmokeMethods(), 1).ok());
  // An unknown name is NotFound, both here and in the experiment runners.
  EXPECT_EQ(
      api::CreateMethod("no_such_method", SmokeMethods(), 1).status().code(),
      StatusCode::kNotFound);
  StaticConfig scfg;
  EXPECT_EQ(RunStaticExperiment(SmokeGenes(), "no_such_method",
                                SmokeMethods(), scfg)
                .status()
                .code(),
            StatusCode::kNotFound);
  // Using a method before TrainStatic is a FailedPrecondition.
  EXPECT_EQ(fwd->Embed(0).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(n2v->ExtendToFacts({1}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ReportTest, TableRendering) {
  TableWriter table({"a", "long_header"});
  table.AddRow({"x", "1"});
  table.AddRow({"yy"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_NE(out.find("yy"), std::string::npos);
}

TEST(ReportTest, AccuracyCellFormat) {
  EXPECT_EQ(AccuracyCell(0.842, 0.0494), "84.20% ±4.94");
  EXPECT_EQ(SecondsCell(1.2345), "1.234s");
}

TEST(ReportTest, AsciiChartContainsSeries) {
  const std::string chart =
      AsciiChart({10, 20, 30}, {{"FoRWaRD", {90.0, 85.0, 80.0}},
                                {"baseline", {50.0, 50.0, 50.0}}});
  EXPECT_NE(chart.find("FoRWaRD"), std::string::npos);
  EXPECT_NE(chart.find("baseline"), std::string::npos);
  EXPECT_NE(chart.find("% new data"), std::string::npos);
}

}  // namespace
}  // namespace stedb::exp

// End-to-end integration tests: the full stable-embedding workflow of the
// paper on the running movie example (Example 3.1) and on generated
// benchmark data, for both embedding methods.
#include <gtest/gtest.h>

#include "src/data/registry.h"
#include "src/exp/embedding_method.h"
#include "src/exp/partition.h"
#include "src/exp/static_experiment.h"
#include "src/ml/logistic.h"
#include "src/n2v/dynamic_node2vec.h"
#include "tests/test_util.h"

namespace stedb {
namespace {

using stedb::testing::InsertC4;
using stedb::testing::MovieDatabase;

class MethodIntegrationTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(MethodIntegrationTest, Example31WorkflowOnMovies) {
  // Static phase on D (without c4), dynamic phase extends to c4 with every
  // old embedding frozen — exactly Example 3.1.
  db::Database database = MovieDatabase();
  exp::MethodConfig mcfg = exp::MethodConfig::ForScale(exp::RunScale::kSmoke);
  auto method = std::move(api::CreateMethod(GetParam(), mcfg, 42)).value();
  ASSERT_TRUE(method
                  ->TrainStatic(&database,
                                database.schema().RelationIndex(
                                    "COLLABORATIONS"),
                                {})
                  .ok());

  n2v::EmbeddingSnapshot snapshot;
  const db::RelationId collab =
      database.schema().RelationIndex("COLLABORATIONS");
  for (db::FactId f : database.FactsOf(collab)) {
    snapshot.Record(f, method->Embed(f).value());
  }

  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(method->ExtendToFacts({c4}).ok());

  EXPECT_EQ(snapshot.MaxDrift(
                [&](db::FactId f) { return method->Embed(f).value(); }),
            0.0);
  auto v = method->Embed(c4);
  ASSERT_TRUE(v.ok());
  for (double x : v.value()) EXPECT_TRUE(std::isfinite(x));
}

TEST_P(MethodIntegrationTest, StreamOfArrivalsStaysStable) {
  // Partition hepatitis, then replay arrivals one batch at a time; after
  // every batch the stability contract must hold for ALL prior facts
  // (static ones and previously arrived ones).
  data::GenConfig gen;
  gen.scale = 0.06;
  gen.seed = 23;
  data::GeneratedDataset ds = std::move(data::MakeHepatitis(gen)).value();
  db::Database& database = ds.database;

  Rng rng(31);
  auto part = exp::PartitionDynamic(database, ds.pred_rel, ds.pred_attr,
                                    0.25, rng);
  ASSERT_TRUE(part.ok());

  exp::MethodConfig mcfg = exp::MethodConfig::ForScale(exp::RunScale::kSmoke);
  auto method = std::move(api::CreateMethod(GetParam(), mcfg, 7)).value();
  ASSERT_TRUE(method
                  ->TrainStatic(&database, ds.pred_rel,
                                exp::LabelExclusion(ds))
                  .ok());

  n2v::EmbeddingSnapshot snapshot;
  for (db::FactId f : part.value().old_pred_facts) {
    snapshot.Record(f, method->Embed(f).value());
  }

  const auto& batches = part.value().batches;
  for (size_t b = batches.size(); b > 0; --b) {
    auto ids = exp::ReplayBatch(database, batches[b - 1]);
    ASSERT_TRUE(ids.ok());
    ASSERT_TRUE(method->ExtendToFacts(ids.value()).ok());
    // Stability of everything embedded so far.
    EXPECT_EQ(snapshot.MaxDrift(
                  [&](db::FactId f) { return method->Embed(f).value(); }),
              0.0)
        << "drift after batch " << b;
    // The new prediction tuples join the protected set.
    for (db::FactId f : ids.value()) {
      if (database.fact(f).rel == ds.pred_rel) {
        snapshot.Record(f, method->Embed(f).value());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, MethodIntegrationTest,
                         ::testing::Values("forward", "node2vec"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

TEST(IntegrationTest, DownstreamClassifierOnFrozenEmbeddings) {
  // The paper's separation contract: the classifier sees only vectors. We
  // train it before arrivals, extend the embedding, and verify its
  // predictions on OLD tuples are unchanged afterwards (a consequence of
  // stability).
  data::GenConfig gen;
  gen.scale = 0.08;
  gen.seed = 29;
  data::GeneratedDataset ds = std::move(data::MakeGenes(gen)).value();
  db::Database& database = ds.database;

  Rng rng(41);
  auto part =
      exp::PartitionDynamic(database, ds.pred_rel, ds.pred_attr, 0.2, rng);
  ASSERT_TRUE(part.ok());

  exp::MethodConfig mcfg = exp::MethodConfig::ForScale(exp::RunScale::kSmoke);
  auto method = std::move(api::CreateMethod("forward", mcfg, 13)).value();
  ASSERT_TRUE(method
                  ->TrainStatic(&database, ds.pred_rel,
                                exp::LabelExclusion(ds))
                  .ok());

  ml::LabelEncoder encoder;
  for (const std::string& c : ds.class_names) encoder.Encode(c);
  auto features = exp::EmbeddingFeatures(database, ds.pred_attr, *method,
                                         part.value().old_pred_facts,
                                         encoder);
  ASSERT_TRUE(features.ok());
  ml::LogisticClassifier clf;
  ASSERT_TRUE(clf.Fit(features.value()).ok());

  std::vector<int> before;
  for (db::FactId f : part.value().old_pred_facts) {
    before.push_back(clf.Predict(method->Embed(f).value()));
  }

  for (size_t b = part.value().batches.size(); b > 0; --b) {
    auto ids = exp::ReplayBatch(database, part.value().batches[b - 1]);
    ASSERT_TRUE(ids.ok());
    ASSERT_TRUE(method->ExtendToFacts(ids.value()).ok());
  }

  for (size_t i = 0; i < part.value().old_pred_facts.size(); ++i) {
    EXPECT_EQ(clf.Predict(
                  method->Embed(part.value().old_pred_facts[i]).value()),
              before[i])
        << "prediction for an old tuple changed after arrivals";
  }
}

}  // namespace
}  // namespace stedb

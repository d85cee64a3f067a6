// The public api layer: CreateMethod's name lookup, journaling through
// the Embedder interface, the batch read path (EmbedBatch vs scalar Embed
// must be bit-identical for both methods, before and after dynamic
// extensions, at any thread count), and the fatal STEDB_SCALE rejection.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>

#include "src/api/embedder.h"
#include "src/exp/embedding_method.h"
#include "tests/test_util.h"

namespace stedb {
namespace {

using stedb::testing::InsertC4;
using stedb::testing::MovieDatabase;

exp::MethodConfig SmokeOptions() {
  return exp::MethodConfig::ForScale(exp::RunScale::kSmoke);
}

/// Creates `method` and trains it on the movie database's collaborations.
Result<std::unique_ptr<api::Embedder>> Train(const db::Database& database,
                                             const std::string& method,
                                             const api::MethodOptions& options,
                                             uint64_t seed) {
  STEDB_ASSIGN_OR_RETURN(std::unique_ptr<api::Embedder> embedder,
                         api::CreateMethod(method, options, seed));
  STEDB_RETURN_IF_ERROR(embedder->TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {}));
  return embedder;
}

// ---- CreateMethod ------------------------------------------------------

TEST(CreateMethodTest, BothMethodsInAnyCase) {
  for (const char* name : {"forward", "FoRWaRD", "FORWARD"}) {
    auto made = api::CreateMethod(name, SmokeOptions(), 1);
    ASSERT_TRUE(made.ok()) << name << ": " << made.status();
    EXPECT_EQ(made.value()->Name(), "FoRWaRD");
  }
  for (const char* name : {"node2vec", "Node2Vec", "NODE2VEC"}) {
    auto made = api::CreateMethod(name, SmokeOptions(), 1);
    ASSERT_TRUE(made.ok()) << name << ": " << made.status();
    EXPECT_EQ(made.value()->Name(), "Node2Vec");
  }
}

TEST(CreateMethodTest, UnknownMethodIsNotFoundAndNamesBoth) {
  for (const char* name : {"no_such_method", "", "forward2vec"}) {
    auto res = api::CreateMethod(name, SmokeOptions(), 1);
    ASSERT_FALSE(res.ok()) << name;
    EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
    // The error is actionable: it names the methods that exist.
    EXPECT_NE(res.status().message().find("forward, node2vec"),
              std::string::npos)
        << res.status();
  }
}

// ---- Journaling (both methods) -----------------------------------------

class EmbedderJournalTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EmbedderJournalTest, AttachExtendVerifyIsBitExact) {
  // Every method journals through the same Embedder surface and recovers
  // bit-exactly.
  db::Database database = MovieDatabase();
  auto trained = Train(database, GetParam(), SmokeOptions(), 7);
  ASSERT_TRUE(trained.ok()) << trained.status();
  api::Embedder& embedder = *trained.value();

  const std::string dir = ::testing::TempDir() + "/stedb_journal_" +
                          std::string(GetParam());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(embedder.AttachJournal(dir).ok());

  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(embedder.ExtendToFacts({c4}).ok());

  auto drift = embedder.VerifyJournal();
  ASSERT_TRUE(drift.ok()) << drift.status();
  EXPECT_EQ(drift.value(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(BothMethods, EmbedderJournalTest,
                         ::testing::Values("forward", "node2vec"));

// ---- Batch reads -------------------------------------------------------

class EmbedderBatchTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EmbedderBatchTest, BatchMatchesScalarThroughExtension) {
  db::Database database = MovieDatabase();
  const db::RelationId collab =
      database.schema().RelationIndex("COLLABORATIONS");
  auto trained = Train(database, GetParam(), SmokeOptions(), 42);
  ASSERT_TRUE(trained.ok()) << trained.status();
  api::Embedder& embedder = *trained.value();
  EXPECT_GT(embedder.dim(), 0u);

  auto check_equivalence = [&](const std::vector<db::FactId>& facts) {
    la::Matrix batch(facts.size(), embedder.dim());
    ASSERT_TRUE(embedder.EmbedBatch(facts, batch).ok());
    for (size_t i = 0; i < facts.size(); ++i) {
      // Bit-identical, not approximately equal: the batch path must be
      // the same read, only vectorized.
      EXPECT_EQ(batch.Row(i), embedder.Embed(facts[i]).value())
          << "fact " << facts[i];
    }
  };

  std::vector<db::FactId> facts = database.FactsOf(collab);
  ASSERT_FALSE(facts.empty());
  check_equivalence(facts);

  // After a dynamic extension the new fact must round-trip too.
  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(embedder.ExtendToFacts({c4}).ok());
  facts.push_back(c4);
  check_equivalence(facts);
}

TEST_P(EmbedderBatchTest, ParallelBatchIsBitIdenticalToSerial) {
  db::Database database = MovieDatabase();
  const db::RelationId collab =
      database.schema().RelationIndex("COLLABORATIONS");
  // Two embedders, same seed, different thread pins: the batch gather
  // must not depend on the pool size.
  exp::MethodConfig serial_cfg = SmokeOptions();
  serial_cfg.forward.threads = 1;
  serial_cfg.node2vec.sg.threads = 1;
  serial_cfg.node2vec.walk.threads = 1;
  exp::MethodConfig parallel_cfg = SmokeOptions();
  parallel_cfg.forward.threads = 4;
  parallel_cfg.node2vec.sg.threads = 4;
  parallel_cfg.node2vec.walk.threads = 4;
  auto serial = Train(database, GetParam(), serial_cfg, 42);
  auto parallel = Train(database, GetParam(), parallel_cfg, 42);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  // Cycle the fact list well past the parallel-gather threshold so the
  // 4-thread embedder actually fans out.
  const std::vector<db::FactId> base = database.FactsOf(collab);
  std::vector<db::FactId> many;
  for (size_t i = 0; i < 200; ++i) many.push_back(base[i % base.size()]);
  const size_t dim = serial.value()->dim();
  la::Matrix a(many.size(), dim);
  la::Matrix b(many.size(), dim);
  ASSERT_TRUE(serial.value()->EmbedBatch(many, a).ok());
  ASSERT_TRUE(parallel.value()->EmbedBatch(many, b).ok());
  EXPECT_EQ(a.data(), b.data());
}

TEST_P(EmbedderBatchTest, BatchErrorCases) {
  db::Database database = MovieDatabase();
  const db::RelationId collab =
      database.schema().RelationIndex("COLLABORATIONS");
  auto trained = Train(database, GetParam(), SmokeOptions(), 7);
  ASSERT_TRUE(trained.ok()) << trained.status();
  const api::Embedder& embedder = *trained.value();

  const std::vector<db::FactId> facts = database.FactsOf(collab);
  la::Matrix wrong_rows(facts.size() + 1, embedder.dim());
  EXPECT_EQ(embedder.EmbedBatch(facts, wrong_rows).code(),
            StatusCode::kInvalidArgument);
  la::Matrix wrong_cols(facts.size(), embedder.dim() + 1);
  EXPECT_EQ(embedder.EmbedBatch(facts, wrong_cols).code(),
            StatusCode::kInvalidArgument);

  std::vector<db::FactId> with_missing = facts;
  with_missing.push_back(123456);  // never embedded
  la::Matrix out(with_missing.size(), embedder.dim());
  EXPECT_EQ(embedder.EmbedBatch(with_missing, out).code(),
            StatusCode::kNotFound);

  la::Matrix empty(0, embedder.dim());
  EXPECT_TRUE(embedder.EmbedBatch(Span<const db::FactId>(), empty).ok());
}

INSTANTIATE_TEST_SUITE_P(Methods, EmbedderBatchTest,
                         ::testing::Values("forward", "node2vec"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

// ---- STEDB_SCALE hard rejection ---------------------------------------

using ScaleFromEnvDeathTest = ::testing::Test;

TEST(ScaleFromEnvDeathTest, UnknownScaleIsFatal) {
  EXPECT_EXIT(
      {
        ::setenv("STEDB_SCALE", "smokee", 1);
        exp::ScaleFromEnv();
      },
      ::testing::ExitedWithCode(1), "unknown STEDB_SCALE");
}

TEST(ScaleFromEnvTest, KnownScalesParse) {
  ::setenv("STEDB_SCALE", "smoke", 1);
  EXPECT_EQ(exp::ScaleFromEnv(), exp::RunScale::kSmoke);
  ::setenv("STEDB_SCALE", "default", 1);
  EXPECT_EQ(exp::ScaleFromEnv(), exp::RunScale::kDefault);
  ::setenv("STEDB_SCALE", "paper", 1);
  EXPECT_EQ(exp::ScaleFromEnv(), exp::RunScale::kPaper);
  ::setenv("STEDB_SCALE", "", 1);
  EXPECT_EQ(exp::ScaleFromEnv(), exp::RunScale::kDefault);
  ::unsetenv("STEDB_SCALE");
  EXPECT_EQ(exp::ScaleFromEnv(), exp::RunScale::kDefault);
}

}  // namespace
}  // namespace stedb

#include "src/db/database.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace stedb::db {
namespace {

using stedb::testing::FindFact;
using stedb::testing::MovieDatabase;

TEST(DatabaseTest, InsertAndCount) {
  Database database = MovieDatabase();
  EXPECT_EQ(database.NumFacts(), 3u + 6u + 5u + 3u);
  EXPECT_EQ(database.NumFacts(database.schema().RelationIndex("MOVIES")), 6u);
  EXPECT_TRUE(database.ValidateAll().ok());
}

TEST(DatabaseTest, FindByKey) {
  Database database = MovieDatabase();
  FactId m1 = FindFact(database, "MOVIES", {"m01"});
  ASSERT_NE(m1, kNoFact);
  EXPECT_EQ(database.value(m1, 2).as_text(), "Titanic");
  EXPECT_EQ(FindFact(database, "MOVIES", {"zzz"}), kNoFact);
}

TEST(DatabaseTest, RejectsArityMismatch) {
  Database database = MovieDatabase();
  auto r = database.Insert("ACTORS", {Value::Text("a99")});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, RejectsTypeMismatch) {
  Database database = MovieDatabase();
  auto r = database.Insert(
      "ACTORS", {Value::Int(1), Value::Text("x"), Value::Text("y")});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, RejectsNullKey) {
  Database database = MovieDatabase();
  auto r = database.Insert(
      "ACTORS", {Value::Null(), Value::Text("x"), Value::Text("y")});
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST(DatabaseTest, RejectsDuplicateKey) {
  Database database = MovieDatabase();
  auto r = database.Insert(
      "ACTORS", {Value::Text("a01"), Value::Text("Clone"), Value::Text("0")});
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST(DatabaseTest, RejectsDanglingFk) {
  Database database = MovieDatabase();
  auto r = database.Insert("COLLABORATIONS", {Value::Text("a01"),
                                              Value::Text("a02"),
                                              Value::Text("m99")});
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
  // Failed insert must leave the database untouched.
  EXPECT_TRUE(database.ValidateAll().ok());
  EXPECT_EQ(database.NumFacts(database.schema().RelationIndex(
                "COLLABORATIONS")),
            3u);
}

TEST(DatabaseTest, NullFkImageIsAllowed) {
  Database database = MovieDatabase();
  auto r = database.Insert(
      "MOVIES", {Value::Text("m99"), Value::Null(), Value::Text("Mystery"),
                 Value::Null(), Value::Text("1M")});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(database.Referenced(r.value(), 0), kNoFact);
  EXPECT_TRUE(database.ValidateAll().ok());
}

TEST(DatabaseTest, ForwardReferences) {
  Database database = MovieDatabase();
  FactId m1 = FindFact(database, "MOVIES", {"m01"});
  FactId s3 = FindFact(database, "STUDIOS", {"s03"});
  EXPECT_EQ(database.Referenced(m1, 0), s3);
}

TEST(DatabaseTest, BackwardReferences) {
  Database database = MovieDatabase();
  FactId s1 = FindFact(database, "STUDIOS", {"s01"});
  // m02, m03, m06 reference s01.
  EXPECT_EQ(database.Referencing(s1, 0).size(), 3u);
  FactId a4 = FindFact(database, "ACTORS", {"a04"});
  EXPECT_EQ(database.Referencing(a4, 1).size(), 2u);  // actor1 of c2, c3
  EXPECT_EQ(database.Referencing(a4, 2).size(), 0u);  // actor2 of none
}

TEST(DatabaseTest, InboundCount) {
  Database database = MovieDatabase();
  FactId a4 = FindFact(database, "ACTORS", {"a04"});
  EXPECT_EQ(database.InboundCount(a4), 2u);
  FactId m1 = FindFact(database, "MOVIES", {"m01"});
  EXPECT_EQ(database.InboundCount(m1), 0u);
}

TEST(DatabaseTest, DeleteUnreferencedFact) {
  Database database = MovieDatabase();
  FactId m1 = FindFact(database, "MOVIES", {"m01"});
  ASSERT_TRUE(database.Delete(m1).ok());
  EXPECT_FALSE(database.IsLive(m1));
  EXPECT_EQ(FindFact(database, "MOVIES", {"m01"}), kNoFact);
  EXPECT_TRUE(database.ValidateAll().ok());
  // Studio s03's inbound shrank (m01 gone, m04 remains).
  FactId s3 = FindFact(database, "STUDIOS", {"s03"});
  EXPECT_EQ(database.Referencing(s3, 0).size(), 1u);
}

TEST(DatabaseTest, DeletedFactHasNoReferences) {
  Database database = MovieDatabase();
  FactId m1 = FindFact(database, "MOVIES", {"m01"});
  ASSERT_NE(database.Referenced(m1, 0), kNoFact);  // m01's studio, s03
  ASSERT_TRUE(database.Delete(m1).ok());
  const FkId num_fks = static_cast<FkId>(database.schema().num_foreign_keys());
  for (FkId fk = 0; fk < num_fks; ++fk) {
    EXPECT_EQ(database.Referenced(m1, fk), kNoFact) << "fk " << fk;
    EXPECT_TRUE(database.Referencing(m1, fk).empty()) << "fk " << fk;
  }
}

TEST(DatabaseTest, DeleteReferencedFactFails) {
  Database database = MovieDatabase();
  FactId a1 = FindFact(database, "ACTORS", {"a01"});
  EXPECT_EQ(database.Delete(a1).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(database.IsLive(a1));
}

TEST(DatabaseTest, DeleteThenReinsertSameKey) {
  Database database = MovieDatabase();
  FactId m1 = FindFact(database, "MOVIES", {"m01"});
  Fact copy = database.fact(m1);
  ASSERT_TRUE(database.Delete(m1).ok());
  auto r = database.Insert(copy);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value(), m1);  // ids are never reused
  EXPECT_EQ(FindFact(database, "MOVIES", {"m01"}), r.value());
}

TEST(DatabaseTest, DeleteDeadFactFails) {
  Database database = MovieDatabase();
  FactId m1 = FindFact(database, "MOVIES", {"m01"});
  ASSERT_TRUE(database.Delete(m1).ok());
  EXPECT_EQ(database.Delete(m1).code(), StatusCode::kNotFound);
  EXPECT_EQ(database.Delete(99999).code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, ActiveDomain) {
  Database database = MovieDatabase();
  RelationId movies = database.schema().RelationIndex("MOVIES");
  AttrId genre = database.schema().relation(movies).AttrIndex("genre");
  std::vector<Value> dom = database.ActiveDomain(movies, genre);
  // Drama, SciFi (x2 dedup), Action, Bio; m03's ⊥ excluded.
  EXPECT_EQ(dom.size(), 4u);
}

TEST(DatabaseTest, ProjectExtractsTuple) {
  Database database = MovieDatabase();
  FactId m1 = FindFact(database, "MOVIES", {"m01"});
  ValueTuple t = database.Project(m1, {0, 2});
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].as_text(), "m01");
  EXPECT_EQ(t[1].as_text(), "Titanic");
}

TEST(DatabaseTest, CopyIsIndependent) {
  Database database = MovieDatabase();
  Database copy = database;
  FactId m1 = FindFact(copy, "MOVIES", {"m01"});
  ASSERT_TRUE(copy.Delete(m1).ok());
  EXPECT_TRUE(database.IsLive(m1));
  EXPECT_EQ(database.NumFacts(), copy.NumFacts() + 1);
}

TEST(DatabaseTest, StatsStringMentionsRelations) {
  Database database = MovieDatabase();
  const std::string stats = database.StatsString();
  EXPECT_NE(stats.find("MOVIES: 6"), std::string::npos);
  EXPECT_NE(stats.find("total: 17"), std::string::npos);
}

TEST(DatabaseTest, CompositeKeyLookup) {
  Database database = MovieDatabase();
  RelationId collab = database.schema().RelationIndex("COLLABORATIONS");
  FactId c1 = database.FindByKey(
      collab, {Value::Text("a01"), Value::Text("a02"), Value::Text("m03")});
  EXPECT_NE(c1, kNoFact);
  FactId missing = database.FindByKey(
      collab, {Value::Text("a01"), Value::Text("a02"), Value::Text("m04")});
  EXPECT_EQ(missing, kNoFact);
}

}  // namespace
}  // namespace stedb::db

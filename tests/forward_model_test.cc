#include "src/fwd/model.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace stedb::fwd {
namespace {

ForwardModel SmallModel(const db::Schema& schema) {
  auto schemes = EnumerateWalkSchemes(schema,
                                      schema.RelationIndex("ACTORS"), 2);
  auto targets = BuildTargets(schema, schemes, {});
  return ForwardModel(schema.RelationIndex("ACTORS"), 4, std::move(schemes),
                      std::move(targets));
}

TEST(ForwardModelTest, ConstructionShape) {
  auto schema = stedb::testing::MovieSchema();
  ForwardModel model = SmallModel(*schema);
  EXPECT_EQ(model.relation(), schema->RelationIndex("ACTORS"));
  EXPECT_EQ(model.dim(), 4u);
  EXPECT_GT(model.targets().size(), 0u);
  EXPECT_EQ(model.num_embedded(), 0u);
}

TEST(ForwardModelTest, PhiStorage) {
  auto schema = stedb::testing::MovieSchema();
  ForwardModel model = SmallModel(*schema);
  EXPECT_FALSE(model.HasEmbedding(7));
  EXPECT_EQ(model.Embed(7).status().code(), StatusCode::kNotFound);
  model.set_phi(7, {1.0, 2.0, 3.0, 4.0});
  EXPECT_TRUE(model.HasEmbedding(7));
  EXPECT_EQ(model.Embed(7).value(), (la::Vector{1.0, 2.0, 3.0, 4.0}));
  ASSERT_NE(model.mutable_phi(7), nullptr);
  EXPECT_EQ(model.mutable_phi(8), nullptr);
}

TEST(ForwardModelTest, InitPsiSymmetric) {
  auto schema = stedb::testing::MovieSchema();
  ForwardModel model = SmallModel(*schema);
  Rng rng(3);
  model.InitPsi(0.1, rng);
  for (size_t t = 0; t < model.targets().size(); ++t) {
    const la::Matrix& psi = model.psi(t);
    ASSERT_EQ(psi.rows(), 4u);
    for (size_t i = 0; i < 4; ++i) {
      for (size_t j = 0; j < 4; ++j) {
        EXPECT_DOUBLE_EQ(psi(i, j), psi(j, i));
      }
    }
  }
}

TEST(ForwardModelTest, ScoreMatchesBilinearForm) {
  auto schema = stedb::testing::MovieSchema();
  ForwardModel model = SmallModel(*schema);
  Rng rng(4);
  model.InitPsi(0.1, rng);
  model.set_phi(1, la::RandomVector(4, 1.0, rng));
  model.set_phi(2, la::RandomVector(4, 1.0, rng));
  const double score = model.Score(1, 2, 0);
  // Score is Dot(ψᵀφ(1), φ(2)) through la::LeftProject, bit for bit — the
  // formula the serving scorers share.
  la::Vector u(4);
  la::LeftProject(model.phi(1).data(), model.psi(0).data().data(), 4, 4,
                  u.data());
  EXPECT_EQ(score, la::Dot(u, model.phi(2)));
  // The same bilinear form, summed in another order.
  const double expected = stedb::testing::ReferenceBilinearForm(
      model.phi(1).data(), model.psi(0).data().data(), model.phi(2).data(),
      4, 4);
  EXPECT_DOUBLE_EQ(score, expected);
  // ψ symmetric => score symmetric in its fact arguments.
  EXPECT_NEAR(score, model.Score(2, 1, 0), 1e-12);
}

TEST(ForwardModelTest, SchemeOfResolvesTargetScheme) {
  auto schema = stedb::testing::MovieSchema();
  ForwardModel model = SmallModel(*schema);
  for (size_t t = 0; t < model.targets().size(); ++t) {
    const WalkScheme& s = model.scheme_of(t);
    EXPECT_EQ(s.start, schema->RelationIndex("ACTORS"));
  }
}

}  // namespace
}  // namespace stedb::fwd

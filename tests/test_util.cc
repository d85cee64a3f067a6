#include "tests/test_util.h"

#include <cassert>
#include <cmath>
#include <vector>

namespace stedb::testing {

using db::AttrType;
using db::Value;

std::shared_ptr<const db::Schema> MovieSchema() {
  auto schema = std::make_shared<db::Schema>();
  auto check = [](auto result) {
    assert(result.ok());
    (void)result;
  };
  check(schema->AddRelation("MOVIES",
                            {{"mid", AttrType::kText},
                             {"studio", AttrType::kText},
                             {"title", AttrType::kText},
                             {"genre", AttrType::kText},
                             {"budget", AttrType::kText}},
                            {"mid"}));
  check(schema->AddRelation("ACTORS",
                            {{"aid", AttrType::kText},
                             {"name", AttrType::kText},
                             {"worth", AttrType::kText}},
                            {"aid"}));
  check(schema->AddRelation("STUDIOS",
                            {{"sid", AttrType::kText},
                             {"name", AttrType::kText},
                             {"loc", AttrType::kText}},
                            {"sid"}));
  check(schema->AddRelation("COLLABORATIONS",
                            {{"actor1", AttrType::kText},
                             {"actor2", AttrType::kText},
                             {"movie", AttrType::kText}},
                            {"actor1", "actor2", "movie"}));
  check(schema->AddForeignKey("MOVIES", {"studio"}, "STUDIOS"));
  check(schema->AddForeignKey("COLLABORATIONS", {"actor1"}, "ACTORS"));
  check(schema->AddForeignKey("COLLABORATIONS", {"actor2"}, "ACTORS"));
  check(schema->AddForeignKey("COLLABORATIONS", {"movie"}, "MOVIES"));
  return schema;
}

db::Database MovieDatabase() {
  db::Database database(MovieSchema());
  auto ins = [&](const std::string& rel, db::ValueTuple values) {
    auto r = database.Insert(rel, std::move(values));
    assert(r.ok());
    (void)r;
  };
  ins("STUDIOS", {Value::Text("s01"), Value::Text("Warner Bros."),
                  Value::Text("LA")});
  ins("STUDIOS",
      {Value::Text("s02"), Value::Text("Universal"), Value::Text("LA")});
  ins("STUDIOS",
      {Value::Text("s03"), Value::Text("Paramount"), Value::Text("LA")});
  ins("MOVIES", {Value::Text("m01"), Value::Text("s03"),
                 Value::Text("Titanic"), Value::Text("Drama"),
                 Value::Text("200M")});
  ins("MOVIES", {Value::Text("m02"), Value::Text("s01"),
                 Value::Text("Inception"), Value::Text("SciFi"),
                 Value::Text("160M")});
  ins("MOVIES", {Value::Text("m03"), Value::Text("s01"),
                 Value::Text("Godzilla"), Value::Null(),
                 Value::Text("150M")});
  ins("MOVIES", {Value::Text("m04"), Value::Text("s03"),
                 Value::Text("Interstellar"), Value::Text("SciFi"),
                 Value::Text("160M")});
  ins("MOVIES", {Value::Text("m05"), Value::Text("s02"),
                 Value::Text("Tropic Thunder"), Value::Text("Action"),
                 Value::Text("90M")});
  ins("MOVIES", {Value::Text("m06"), Value::Text("s01"),
                 Value::Text("Wolf of Wall St."), Value::Text("Bio"),
                 Value::Text("100M")});
  ins("ACTORS",
      {Value::Text("a01"), Value::Text("DiCaprio"), Value::Text("230M")});
  ins("ACTORS",
      {Value::Text("a02"), Value::Text("Watanabe"), Value::Text("40M")});
  ins("ACTORS",
      {Value::Text("a03"), Value::Text("Cruise"), Value::Text("600M")});
  ins("ACTORS",
      {Value::Text("a04"), Value::Text("McConaughey"), Value::Text("140M")});
  ins("ACTORS",
      {Value::Text("a05"), Value::Text("Damon"), Value::Text("170M")});
  ins("COLLABORATIONS",
      {Value::Text("a01"), Value::Text("a02"), Value::Text("m03")});
  ins("COLLABORATIONS",
      {Value::Text("a04"), Value::Text("a05"), Value::Text("m04")});
  ins("COLLABORATIONS",
      {Value::Text("a04"), Value::Text("a03"), Value::Text("m05")});
  return database;
}

db::FactId InsertC4(db::Database& database) {
  auto r = database.Insert(
      "COLLABORATIONS",
      {Value::Text("a01"), Value::Text("a04"), Value::Text("m06")});
  assert(r.ok());
  return r.value();
}

db::FactId FindFact(const db::Database& database, const std::string& rel,
                    const std::vector<std::string>& key) {
  db::RelationId r = database.schema().RelationIndex(rel);
  db::ValueTuple tuple;
  for (const std::string& k : key) tuple.push_back(Value::Text(k));
  return database.FindByKey(r, tuple);
}

void ReferenceAdamStep(const la::AdamCoeffs& c, double* p, double* m,
                       double* v, const double* g, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * g[i];
    v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * g[i] * g[i];
    const double mhat = m[i] / c.bc1;
    const double vhat = v[i] / c.bc2;
    p[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

double ReferenceBilinearForm(const double* x, const double* m,
                             const double* y, size_t rows, size_t cols) {
  std::vector<double> dots(rows);
  la::MatVec(m, rows, cols, y, dots.data());
  double acc = 0.0;
  for (size_t i = 0; i < rows; ++i) {
    if (x[i] != 0.0) acc = std::fma(x[i], dots[i], acc);
  }
  return acc;
}

bool HasAvx2() {
  return la::internal::Avx2Ops() != nullptr &&
         la::internal::CpuSupportsAvx2Fma();
}

}  // namespace stedb::testing

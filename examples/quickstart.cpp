// Quickstart: the full stable-embedding workflow through the public
// api::Embedder — static training of a method made by api::CreateMethod,
// a batch read, a dynamic insertion, and the stability guarantee, in ~80
// lines.
//
//   $ ./quickstart
#include <cstdio>

#include "src/api/embedder.h"
#include "src/data/registry.h"
#include "src/db/cascade.h"
#include "src/exp/embedding_method.h"
#include "src/n2v/dynamic_node2vec.h"

using namespace stedb;

int main() {
  // 1. A relational database. Generators mirror the paper's benchmarks;
  //    here: Genes (3 relations, FK-linked, 15-class localization task).
  data::GenConfig gen;
  gen.scale = 0.15;
  gen.seed = 7;
  auto ds_result = data::MakeGenes(gen);
  if (!ds_result.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 ds_result.status().ToString().c_str());
    return 1;
  }
  data::GeneratedDataset ds = std::move(ds_result).value();
  std::printf("database: %zu facts across %zu relations\n",
              ds.database.NumFacts(), ds.database.schema().num_relations());

  // 2. Static phase: CreateMethod makes "forward" (or "node2vec") and
  //    TrainStatic trains it. The label column is excluded — embeddings
  //    never see it.
  api::MethodOptions options = exp::MethodConfig::ForScale(
      exp::RunScale::kSmoke);  // preset hyperparameters
  api::AttrKeySet excluded;
  excluded.insert({ds.pred_rel, ds.pred_attr});
  auto made = api::CreateMethod("forward", options, /*seed=*/1);
  if (!made.ok()) {
    std::fprintf(stderr, "method: %s\n", made.status().ToString().c_str());
    return 1;
  }
  api::Embedder& embedder = *made.value();
  Status st = embedder.TrainStatic(&ds.database, ds.pred_rel, excluded);
  if (!st.ok()) {
    std::fprintf(stderr, "train: %s\n", st.ToString().c_str());
    return 1;
  }
  la::Vector v = embedder.Embed(ds.Samples().front()).value();
  std::printf("static phase done (%s); dim=%zu, |phi(f0)|=%.3f\n",
              embedder.Name().c_str(), embedder.dim(), la::Norm2(v));

  // 3. The batch read path: every sample in one call (one row per fact).
  la::Matrix all(ds.Samples().size(), embedder.dim());
  st = embedder.EmbedBatch(ds.Samples(), all);
  if (!st.ok()) {
    std::fprintf(stderr, "batch: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("batch read: %zu x %zu embedding matrix\n", all.rows(),
              all.cols());

  // 4. Dynamic phase: simulate an arrival by deleting one prediction tuple
  //    (with cascade) and re-inserting it as "new".
  db::Database& database = ds.database;
  db::FactId victim = ds.Samples().back();
  auto cascade = db::CascadeDelete(database, victim);
  if (!cascade.ok()) {
    std::fprintf(stderr, "cascade: %s\n",
                 cascade.status().ToString().c_str());
    return 1;
  }
  std::printf("cascade removed %zu facts\n", cascade.value().facts.size());

  // Snapshot old embeddings to demonstrate stability.
  n2v::EmbeddingSnapshot snapshot;
  for (db::FactId f : ds.Samples()) {
    auto e = embedder.Embed(f);
    if (e.ok()) snapshot.Record(f, std::move(e).value());
  }

  auto new_ids = db::ReinsertBatch(database, cascade.value());
  if (!new_ids.ok()) {
    std::fprintf(stderr, "reinsert: %s\n",
                 new_ids.status().ToString().c_str());
    return 1;
  }
  st = embedder.ExtendToFacts(new_ids.value());
  if (!st.ok()) {
    std::fprintf(stderr, "extend: %s\n", st.ToString().c_str());
    return 1;
  }

  // 5. The stability contract: every old vector is bit-identical.
  double drift = snapshot.MaxDrift(
      [&](db::FactId f) { return embedder.Embed(f).value(); });
  db::FactId new_pred = db::kNoFact;
  for (db::FactId f : new_ids.value()) {
    if (database.fact(f).rel == ds.pred_rel) new_pred = f;
  }
  la::Vector nv = embedder.Embed(new_pred).value();
  std::printf("dynamic phase done; |phi(new)|=%.3f, old-embedding drift=%g\n",
              la::Norm2(nv), drift);
  std::printf(drift == 0.0 ? "stability: OK (old embeddings frozen)\n"
                           : "stability: VIOLATED\n");
  return drift == 0.0 ? 0 : 1;
}

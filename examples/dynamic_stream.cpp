// Simulates a live database receiving a stream of inserts: 30% of the
// Hepatitis patients are held out, then arrive one batch at a time. After
// each arrival the embedding is extended (old vectors frozen) and the
// downstream classifier — trained once, before the stream started — scores
// the new patient. This is the paper's one-by-one regime as an application.
//
// The stream is journaled into a store::EmbeddingStore (binary snapshot of
// the trained model + an append-only WAL of the extensions), and the run
// ends with a kill-and-recover drill: a torn write is injected into the
// journal, then the store is opened cold — exactly what a restarted
// process would do — and the recovered embeddings are checked against the
// live model bit for bit.
//
// Journaling is method-agnostic: `dynamic_stream node2vec` runs the exact
// same drill against a Node2Vec journal ('N2V ' snapshot + the same WAL
// format), and the cold recovery resolves the right codec from the
// snapshot header alone.
//
//   $ ./dynamic_stream [forward|node2vec]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "src/data/registry.h"
#include "src/exp/embedding_method.h"
#include "src/exp/partition.h"
#include "src/exp/static_experiment.h"
#include "src/ml/svm.h"
#include "src/store/embedding_store.h"

using namespace stedb;

int main(int argc, char** argv) {
  // "forward" or "node2vec", in any case (api::CreateMethod).
  const std::string kind = argc > 1 ? argv[1] : "forward";

  data::GenConfig gen;
  gen.scale = 0.12;
  gen.seed = 11;
  data::GeneratedDataset ds = data::MakeHepatitis(gen).value();
  db::Database& database = ds.database;

  Rng rng(5);
  auto part =
      exp::PartitionDynamic(database, ds.pred_rel, ds.pred_attr, 0.3, rng);
  if (!part.ok()) {
    std::fprintf(stderr, "partition: %s\n",
                 part.status().ToString().c_str());
    return 1;
  }
  std::printf("held out %zu batches (%zu facts) as the arrival stream\n",
              part.value().batches.size(), part.value().total_removed);

  exp::MethodConfig mcfg = exp::MethodConfig::ForScale(exp::RunScale::kSmoke);
  auto made = api::CreateMethod(kind, mcfg, 3);
  if (!made.ok()) {
    std::fprintf(stderr, "method: %s\n", made.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<api::Embedder> embedder = std::move(made).value();
  Status st = embedder->TrainStatic(&database, ds.pred_rel,
                                    exp::LabelExclusion(ds));
  if (!st.ok()) {
    std::fprintf(stderr, "train: %s\n", st.ToString().c_str());
    return 1;
  }

  // Journal the model: snapshot now, one WAL record per extension below.
  const std::string store_dir =
      (std::filesystem::temp_directory_path() / "stedb_dynamic_stream")
          .string();
  std::filesystem::remove_all(store_dir);
  st = embedder->AttachJournal(store_dir);
  if (!st.ok()) {
    std::fprintf(stderr, "journal: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("journaling extensions into %s\n", store_dir.c_str());

  // Downstream model trained on the pre-stream snapshot only.
  ml::LabelEncoder encoder;
  for (const std::string& c : ds.class_names) encoder.Encode(c);
  auto features = exp::EmbeddingFeatures(ds, *embedder,
                                         part.value().old_pred_facts,
                                         encoder);
  ml::LogisticClassifier clf;
  st = clf.Fit(features.value());
  if (!st.ok()) {
    std::fprintf(stderr, "classifier: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%s trained on %zu patients; streaming arrivals...\n\n",
              embedder->Name().c_str(), features.value().size());

  size_t correct = 0, seen = 0;
  const auto& batches = part.value().batches;
  for (size_t b = batches.size(); b > 0; --b) {
    auto new_ids = exp::ReplayBatch(database, batches[b - 1]);
    if (!new_ids.ok()) {
      std::fprintf(stderr, "replay: %s\n",
                   new_ids.status().ToString().c_str());
      return 1;
    }
    st = embedder->ExtendToFacts(new_ids.value());
    if (!st.ok()) {
      std::fprintf(stderr, "extend: %s\n", st.ToString().c_str());
      return 1;
    }
    for (db::FactId f : new_ids.value()) {
      if (database.fact(f).rel != ds.pred_rel) continue;
      la::Vector v = embedder->Embed(f).value();
      const int pred = clf.Predict(v);
      const int truth = encoder.Lookup(ds.LabelOf(f));
      ++seen;
      if (pred == truth) ++correct;
      if (seen % 5 == 0 || seen == 1) {
        std::printf("  after %3zu arrivals: rolling accuracy %.1f%%\n", seen,
                    100.0 * static_cast<double>(correct) /
                        static_cast<double>(seen));
      }
    }
  }
  std::printf("\nfinal: %zu/%zu new patients classified correctly (%.1f%%)\n",
              correct, seen,
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(seen > 0 ? seen : 1));

  // ---- Kill-and-recover drill ------------------------------------------
  // Simulate a process killed mid-append: leave half a record (a length
  // header and some payload bytes, no valid checksum) at the journal tail.
  {
    std::ofstream wal(store::EmbeddingStore::WalPath(store_dir),
                      std::ios::binary | std::ios::app);
    const char torn[] = "\x48\x00\x00\x00\xde\xad\xbe\xef torn!";
    wal.write(torn, sizeof(torn) - 1);
  }
  std::printf("\ninjected a torn write into the journal; recovering...\n");

  auto recovered = store::EmbeddingStore::Open(store_dir);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recover: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  std::printf("  recovered a '%s' store: %zu embeddings (%zu from the "
              "WAL), torn tail %s\n",
              recovered.value().method().c_str(),
              recovered.value().model().num_embedded(),
              recovered.value().wal_records(),
              recovered.value().recovered_torn_tail() ? "dropped" : "absent");

  auto drift = embedder->VerifyJournal();
  if (!drift.ok()) {
    std::fprintf(stderr, "verify: %s\n", drift.status().ToString().c_str());
    return 1;
  }
  std::printf("  max |recovered - live| = %g %s\n", drift.value(),
              drift.value() == 0.0 ? "(bit-exact)" : "(MISMATCH)");
  return drift.value() == 0.0 ? 0 : 1;
}

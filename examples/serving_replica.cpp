// Trainer + serving replica over one store directory — the process
// separation the serving path exists for. One side owns the model and
// journals into a store::EmbeddingStore (via api::Embedder::AttachJournal);
// the other side never touches the trainer: it opens the directory cold
// with api::ServingSession (mmap'd snapshot, zero-copy reads) and tails
// the WAL with Poll() to pick up extensions as they are journaled.
//
// Everything runs in one process here so the example is self-checking,
// but nothing below shares state across the trainer/reader line except
// the directory — run the reader half in a second process and it behaves
// identically.
//
//   $ ./serving_replica
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "src/api/embedder.h"
#include "src/api/serving.h"
#include "src/data/registry.h"
#include "src/db/cascade.h"
#include "src/exp/embedding_method.h"

using namespace stedb;

namespace {

/// Bit-exact comparison between a served view and the trainer's vector.
bool SameBits(Span<const double> served, const la::Vector& expected) {
  return served.size() == expected.size() &&
         std::memcmp(served.data(), expected.data(),
                     expected.size() * sizeof(double)) == 0;
}

}  // namespace

int main() {
  // ---- Trainer process -------------------------------------------------
  data::GenConfig gen;
  gen.scale = 0.15;
  gen.seed = 7;
  data::GeneratedDataset ds = std::move(data::MakeGenes(gen)).value();
  api::MethodOptions options =
      exp::MethodConfig::ForScale(exp::RunScale::kSmoke);
  api::AttrKeySet excluded;
  excluded.insert({ds.pred_rel, ds.pred_attr});
  std::unique_ptr<api::Embedder> embedder =
      std::move(api::CreateMethod("forward", options, /*seed=*/1)).value();
  Status st = embedder->TrainStatic(&ds.database, ds.pred_rel, excluded);
  if (!st.ok()) {
    std::fprintf(stderr, "train: %s\n", st.ToString().c_str());
    return 1;
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() / "stedb_serving_replica")
          .string();
  std::filesystem::remove_all(dir);
  st = embedder->AttachJournal(dir);
  if (!st.ok()) {
    std::fprintf(stderr, "journal: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("trainer: %s model journaled into %s\n",
              embedder->Name().c_str(), dir.c_str());

  // ---- Reader process: cold open --------------------------------------
  auto opened = api::ServingSession::Open(dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  api::ServingSession session = std::move(opened).value();
  size_t checked = 0, mismatched = 0;
  for (db::FactId f : ds.Samples()) {
    auto live = embedder->Embed(f);
    if (!live.ok()) continue;
    auto served = session.Embed(f);
    ++checked;
    if (!served.ok() || !SameBits(served.value(), live.value())) {
      ++mismatched;
    }
  }
  std::printf("reader: cold open serves %zu vectors (dim %zu), %zu/%zu "
              "bit-identical to the trainer\n",
              session.num_embedded(), session.dim(), checked - mismatched,
              checked);

  // ---- Trainer: a dynamic arrival (cascade delete + reinsert) ----------
  db::FactId victim = ds.Samples().back();
  auto cascade = db::CascadeDelete(ds.database, victim);
  if (!cascade.ok()) {
    std::fprintf(stderr, "cascade: %s\n",
                 cascade.status().ToString().c_str());
    return 1;
  }
  auto new_ids = db::ReinsertBatch(ds.database, cascade.value());
  if (!new_ids.ok()) {
    std::fprintf(stderr, "reinsert: %s\n",
                 new_ids.status().ToString().c_str());
    return 1;
  }
  st = embedder->ExtendToFacts(new_ids.value());
  if (!st.ok()) {
    std::fprintf(stderr, "extend: %s\n", st.ToString().c_str());
    return 1;
  }
  db::FactId new_pred = db::kNoFact;
  for (db::FactId f : new_ids.value()) {
    if (ds.database.fact(f).rel == ds.pred_rel) new_pred = f;
  }
  std::printf("trainer: extended to %zu new facts (journaled as WAL "
              "records)\n",
              new_ids.value().size());

  // ---- Reader: catch up without reopening ------------------------------
  const bool visible_before = session.Embed(new_pred).ok();
  auto polled = session.Poll();
  if (!polled.ok()) {
    std::fprintf(stderr, "poll: %s\n", polled.status().ToString().c_str());
    return 1;
  }
  const bool identical =
      SameBits(session.Embed(new_pred).value(),
               embedder->Embed(new_pred).value());
  std::printf("reader: new fact visible before poll: %s; Poll() applied "
              "%zu records; new embedding bit-identical: %s\n",
              visible_before ? "yes (unexpected!)" : "no",
              polled.value(), identical ? "yes" : "NO");

  const bool ok = mismatched == 0 && !visible_before &&
                  polled.value() > 0 && identical;
  std::printf(ok ? "serving replica: OK\n" : "serving replica: FAILED\n");
  return ok ? 0 : 1;
}

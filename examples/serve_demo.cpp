// The networked serving drill, end to end over real HTTP: a trainer owns
// the model and journals extensions into a store directory; stedb_serve's
// service layer (serve::EmbeddingService) serves that directory over a
// loopback socket; an HTTP client sees a fact that did not exist at
// server start — after one Poll — with the exact bytes the trainer
// computed. Self-checking: exits nonzero if any step (or the bit-equality)
// fails, so CI runs it as the serve smoke drill.
//
//   $ ./serve_demo
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "src/api/embedder.h"
#include "src/data/registry.h"
#include "src/db/cascade.h"
#include "src/exp/embedding_method.h"
#include "src/serve/http.h"
#include "src/serve/service.h"

using namespace stedb;

namespace {

/// Bit-exact comparison between a raw=1 HTTP body and the trainer vector.
bool SameBits(const std::string& body, const la::Vector& expected) {
  return body.size() == expected.size() * sizeof(double) &&
         std::memcmp(body.data(), expected.data(), body.size()) == 0;
}

}  // namespace

int main() {
  // ---- Trainer: train, persist, keep journaling -------------------------
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
      (std::filesystem::temp_directory_path() / "stedb_serve_demo")
          .string();
  std::filesystem::remove_all(dir);
  if (!embedder->AttachJournal(dir).ok()) {
    std::fprintf(stderr, "journal attach failed\n");
    return 1;
  }
  std::printf("trainer: %s model journaled into %s\n",
              embedder->Name().c_str(), dir.c_str());

  // ---- Server: the service stedb_serve wraps, on an ephemeral port ------
  serve::ServeOptions serve_options;
  serve_options.poll_interval_ms = 0;  // we Poll deterministically below
  auto opened = serve::EmbeddingService::Open(dir, serve_options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<serve::EmbeddingService> service = std::move(opened).value();
  if (!service->Start("127.0.0.1", 0).ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }
  std::printf("server: listening on 127.0.0.1:%d (dim %zu)\n",
              service->port(), service->dim());

  auto conn = serve::HttpClient::Connect("127.0.0.1", service->port());
  if (!conn.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 conn.status().ToString().c_str());
    return 1;
  }
  serve::HttpClient client = std::move(conn).value();

  // ---- Client: every trained sample served bit-identically --------------
  size_t checked = 0, mismatched = 0;
  for (db::FactId f : ds.Samples()) {
    auto live = embedder->Embed(f);
    if (!live.ok()) continue;
    auto resp =
        client.Get("/embed?fact=" + std::to_string(f) + "&raw=1");
    ++checked;
    if (!resp.ok() || resp.value().status != 200 ||
        !SameBits(resp.value().body, live.value())) {
      ++mismatched;
    }
  }
  std::printf("client: %zu/%zu embeddings bit-identical over HTTP\n",
              checked - mismatched, checked);

  // A /topk sanity probe against the serving-side scorer.
  const db::FactId probe = ds.Samples().front();
  auto top =
      client.Get("/topk?fact=" + std::to_string(probe) + "&k=3");
  const bool topk_ok = top.ok() && top.value().status == 200 &&
                       top.value().body.find("\"results\":[{\"fact\":") !=
                           std::string::npos;
  std::printf("client: /topk(%d) -> %s\n", probe,
              topk_ok ? "ranked results" : "FAILED");

  // ---- Trainer: a dynamic arrival while the server runs -----------------
  db::FactId victim = ds.Samples().back();
  auto cascade = db::CascadeDelete(ds.database, victim);
  if (!cascade.ok()) return 1;
  auto new_ids = db::ReinsertBatch(ds.database, cascade.value());
  if (!new_ids.ok()) return 1;
  if (!embedder->ExtendToFacts(new_ids.value()).ok()) return 1;
  db::FactId new_pred = db::kNoFact;
  for (db::FactId f : new_ids.value()) {
    if (ds.database.fact(f).rel == ds.pred_rel) new_pred = f;
  }
  std::printf("trainer: extended to %zu new facts while the server was "
              "up\n",
              new_ids.value().size());

  // ---- Server catches up; client sees the new fact ----------------------
  auto before =
      client.Get("/embed?fact=" + std::to_string(new_pred) + "&raw=1");
  const bool invisible_before =
      before.ok() && before.value().status == 404;
  auto polled = service->PollNow();
  if (!polled.ok()) {
    std::fprintf(stderr, "poll: %s\n",
                 polled.status().ToString().c_str());
    return 1;
  }
  auto after =
      client.Get("/embed?fact=" + std::to_string(new_pred) + "&raw=1");
  const bool identical = after.ok() && after.value().status == 200 &&
                         SameBits(after.value().body,
                                  embedder->Embed(new_pred).value());
  std::printf("client: new fact 404 before poll: %s; Poll applied %zu "
              "records; served bit-identical after: %s\n",
              invisible_before ? "yes" : "NO",
              polled.value(), identical ? "yes" : "NO");

  service->Stop();
  const bool ok = mismatched == 0 && topk_ok && invisible_before &&
                  polled.value() > 0 && identical;
  std::printf(ok ? "serve demo: OK\n" : "serve demo: FAILED\n");
  return ok ? 0 : 1;
}

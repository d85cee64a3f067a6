// Record-similarity search over tuple embeddings — the downstream task
// family motivating the paper's introduction (record similarity / linking
// / entity resolution). Trains a FoRWaRD embedding on the Genes database,
// persists it as a store directory, serves it with api::ServingSession and
// shows that a tuple's closest neighbors in embedding space
// overwhelmingly share its (hidden) class. Exits 1 when a served vector
// differs from the trained one or the label purity is at most 25%.
//
//   $ ./similarity_search [k]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "src/api/serving.h"
#include "src/data/registry.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"

using namespace stedb;

namespace {

int Run(const std::string& dir, size_t k) {
  data::GenConfig gen;
  gen.scale = 0.2;
  gen.seed = 31;
  data::GeneratedDataset ds = std::move(data::MakeGenes(gen)).value();

  fwd::ForwardConfig cfg;
  cfg.dim = 24;
  cfg.max_walk_len = 2;
  cfg.nsamples = 24;
  cfg.epochs = 12;
  cfg.lr = 0.01;
  fwd::AttrKeySet excluded;
  excluded.insert({ds.pred_rel, ds.pred_attr});
  auto emb = fwd::ForwardEmbedder::TrainStatic(&ds.database, ds.pred_rel,
                                               excluded, cfg);
  if (!emb.ok()) {
    std::fprintf(stderr, "train: %s\n", emb.status().ToString().c_str());
    return 1;
  }
  const fwd::ForwardModel& model = emb.value().model();

  // Freeze the embedding into a store directory (no ANN index, so
  // SimilarTopK is the exact cosine scan) and serve it as a reader would.
  auto created = fwd::CreateForwardStore(dir, model);
  if (!created.ok()) {
    std::fprintf(stderr, "store: %s\n", created.status().ToString().c_str());
    return 1;
  }
  auto opened = api::ServingSession::Open(dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  const api::ServingSession& session = opened.value();

  size_t differing = 0;
  for (db::FactId f : session.ServedFacts()) {
    const Span<const double> served = session.Embed(f).value();
    const la::Vector* trained = model.FindPhi(f);
    if (trained == nullptr || trained->size() != served.size() ||
        std::memcmp(trained->data(), served.data(),
                    served.size() * sizeof(double)) != 0) {
      ++differing;
    }
  }
  if (session.num_embedded() != model.num_embedded()) ++differing;
  std::printf("served %zu gene embeddings (dim %zu) from %s; %zu differ "
              "from the trained model\n\n",
              session.num_embedded(), session.dim(), dir.c_str(), differing);

  // How often do a tuple's top-k neighbors share its class? (The search
  // never saw the labels.)
  size_t same = 0, total = 0;
  for (db::FactId f : ds.Samples()) {
    const auto hits = session.SimilarTopK(f, k).value();
    for (const auto& n : hits) {
      ++total;
      if (ds.LabelOf(n.fact) == ds.LabelOf(f)) ++same;
    }
  }
  const double purity = 100.0 * static_cast<double>(same) /
                        static_cast<double>(total > 0 ? total : 1);
  // Chance level = average class prior mass.
  std::printf("top-%zu neighbor label purity: %.1f%% (chance would be "
              "~%.1f%% under the class priors)\n\n",
              k, purity, 100.0 / 6.0);

  // Show one query.
  db::FactId query = ds.Samples().front();
  std::printf("query %s (localization %s):\n",
              ds.database.value(query, 0).ToString().c_str(),
              ds.LabelOf(query).c_str());
  const auto query_hits = session.SimilarTopK(query, k).value();
  for (const auto& n : query_hits) {
    std::printf("  %-8s sim=%.3f  localization=%s\n",
                ds.database.value(n.fact, 0).ToString().c_str(), n.score,
                ds.LabelOf(n.fact).c_str());
  }
  return differing == 0 && purity > 25.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t k = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 5;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "stedb_similarity_search")
          .string();
  std::filesystem::remove_all(dir);
  const int rc = Run(dir, k);
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  return rc;
}

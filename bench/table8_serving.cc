// Serving-path throughput and load time (no paper analogue — this is the
// ROADMAP's "serve heavy traffic" direction): how fast embeddings come out
// of a trained FoRWaRD model via
//   * scalar Embed on the in-memory embedder (per-fact copy+return),
//   * EmbedBatch on the in-memory embedder (the batch read path),
//   * api::ServingSession over an mmap'd store directory (zero-copy
//     scalar reads + copying batch reads),
// and how long it takes to get a cold process serving: the copying
// snapshot decode vs the mmap open.
//
// Shape expectations: batch beats scalar (no per-fact Vector allocation),
// and mmap open beats the copying snapshot load (no parse, no per-fact
// allocation — the acceptance bar for the serving path).
//
// Emits BENCH_serving.json to the cwd (STEDB_BENCH_SERVING_JSON overrides
// the path; "off" disables), uploaded as a CI artifact next to
// BENCH_parallel.json.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/serving.h"
#include "src/common/timer.h"
#include "src/exp/report.h"
#include "src/exp/static_experiment.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"
#include "src/store/embedding_store.h"
#include "src/store/format.h"

using namespace stedb;

namespace {

/// Median-of-`reps` wall-clock seconds for `fn`.
template <typename Fn>
double TimeMedian(int reps, Fn&& fn) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    seconds.push_back(t.ElapsedSeconds());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

struct ServingNumbers {
  std::string dataset;
  size_t vectors = 0;
  size_t dim = 0;
  double snap_load_s = 0.0;
  double mmap_open_s = 0.0;
  double scalar_ns = 0.0;      ///< per lookup, in-memory Embed
  double batch_ns = 0.0;       ///< per lookup, in-memory EmbedBatch
  double serving_ns = 0.0;     ///< per lookup, ServingSession zero-copy
  double serving_batch_ns = 0.0;
};

void EmitServingJson(const std::vector<ServingNumbers>& rows) {
  const char* out_env = std::getenv("STEDB_BENCH_SERVING_JSON");
  std::string path = out_env != nullptr && *out_env != '\0'
                         ? out_env
                         : "BENCH_serving.json";
  if (path == "off" || path == "0") return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_serving.json: cannot open %s\n",
                 path.c_str());
    return;
  }
  // The core count is a machine descriptor, not a result: the compare
  // gate uses it to skip timing comparisons across unlike machines.
  std::fprintf(f,
               "{\n  \"bench\": \"serving\",\n"
               "  \"hardware_concurrency\": %u,\n  \"datasets\": [\n",
               std::thread::hardware_concurrency());
  bool first = true;
  for (const ServingNumbers& r : rows) {
    std::fprintf(
        f,
        "%s    {\"name\": \"%s\", \"vectors\": %zu, \"dim\": %zu,\n"
        "     \"snapshot_load_seconds\": %.6f, \"mmap_open_seconds\": %.6f,\n"
        "     \"scalar_ns_per_lookup\": %.1f, \"batch_ns_per_lookup\": %.1f,"
        " \"serving_ns_per_lookup\": %.1f,"
        " \"serving_batch_ns_per_lookup\": %.1f,\n"
        "     \"mmap_vs_snapshot_speedup\": %.2f}",
        first ? "" : ",\n", r.dataset.c_str(), r.vectors, r.dim,
        r.snap_load_s, r.mmap_open_s, r.scalar_ns,
        r.batch_ns, r.serving_ns, r.serving_batch_ns,
        r.mmap_open_s > 0.0 ? r.snap_load_s / r.mmap_open_s : 0.0);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  exp::RunScale scale = exp::ScaleFromEnv();
  exp::MethodConfig mcfg = exp::MethodConfig::ForScale(scale);
  bench::PrintHeader("Table VIII",
                     "serving: load time + lookup throughput "
                     "(scalar vs batch vs mmap session)",
                     scale);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "stedb_serving_bench")
          .string();
  std::filesystem::create_directories(dir);
  const int reps = scale == exp::RunScale::kPaper ? 3 : 5;
  // Enough lookups to dominate timer noise even at smoke scale.
  const size_t kLookups = 200000;

  exp::TableWriter table({"Task", "snap load", "mmap open", "scalar",
                          "batch", "mmap scalar", "mmap batch"});
  std::vector<ServingNumbers> json_rows;
  bool mmap_beats_copy = true;
  for (const std::string& name : bench::SelectDatasets(argc, argv)) {
    data::GeneratedDataset ds =
        bench::MakeDatasetOrDie(name, mcfg.data_scale);
    fwd::ForwardConfig fcfg = mcfg.forward;
    fcfg.seed = 7;
    auto emb = fwd::ForwardEmbedder::TrainStatic(
        &ds.database, ds.pred_rel, exp::LabelExclusion(ds), fcfg);
    if (!emb.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   emb.status().ToString().c_str());
      continue;
    }
    const fwd::ForwardModel& model = emb.value().model();

    // A store directory (snapshot + empty WAL).
    const std::string store_dir = dir + "/" + name;
    if (!fwd::CreateForwardStore(store_dir, model).ok()) std::exit(1);

    ServingNumbers row;
    row.dataset = name;
    row.vectors = model.num_embedded();
    row.dim = model.dim();
    row.snap_load_s = TimeMedian(reps, [&] {
      std::string bytes;
      if (!store::ReadFileToString(
               store::EmbeddingStore::SnapshotPath(store_dir), &bytes)
               .ok() ||
          !fwd::DecodeForwardSnapshot(bytes).ok()) {
        std::exit(1);
      }
    });
    row.mmap_open_s = TimeMedian(reps, [&] {
      if (!api::ServingSession::Open(store_dir).ok()) std::exit(1);
    });

    // Lookup throughput over a shuffled, repeating fact sequence.
    std::vector<db::FactId> facts;
    facts.reserve(model.num_embedded());
    for (const auto& [f, v] : model.all_phi()) facts.push_back(f);
    std::sort(facts.begin(), facts.end());
    Rng rng(13);
    std::vector<db::FactId> sequence(kLookups);
    for (size_t i = 0; i < kLookups; ++i) {
      sequence[i] = facts[rng.NextIndex(facts.size())];
    }

    auto session = std::move(api::ServingSession::Open(store_dir)).value();
    volatile double sink = 0.0;  // defeats dead-code elimination
    row.scalar_ns = TimeMedian(reps, [&] {
                      for (db::FactId f : sequence) {
                        sink = sink + emb.value().Embed(f).value()[0];
                      }
                    }) /
                    static_cast<double>(kLookups) * 1e9;
    la::Matrix out(sequence.size(), model.dim());
    row.batch_ns = TimeMedian(reps, [&] {
                     if (!emb.value().EmbedBatch(sequence, out).ok()) {
                       std::exit(1);
                     }
                     sink = sink + out(0, 0);
                   }) /
                   static_cast<double>(kLookups) * 1e9;
    row.serving_ns = TimeMedian(reps, [&] {
                       for (db::FactId f : sequence) {
                         sink = sink + session.Embed(f).value()[0];
                       }
                     }) /
                     static_cast<double>(kLookups) * 1e9;
    row.serving_batch_ns = TimeMedian(reps, [&] {
                             if (!session.EmbedBatch(sequence, out).ok()) {
                               std::exit(1);
                             }
                             sink = sink + out(0, 0);
                           }) /
                           static_cast<double>(kLookups) * 1e9;

    char scalar_c[32], batch_c[32], serve_c[32], serve_b[32];
    std::snprintf(scalar_c, sizeof(scalar_c), "%.0fns", row.scalar_ns);
    std::snprintf(batch_c, sizeof(batch_c), "%.0fns", row.batch_ns);
    std::snprintf(serve_c, sizeof(serve_c), "%.0fns", row.serving_ns);
    std::snprintf(serve_b, sizeof(serve_b), "%.0fns",
                  row.serving_batch_ns);
    table.AddRow({name, exp::SecondsCell(row.snap_load_s),
                  exp::SecondsCell(row.mmap_open_s), scalar_c, batch_c,
                  serve_c, serve_b});
    if (row.mmap_open_s >= row.snap_load_s) mmap_beats_copy = false;
    json_rows.push_back(row);
    std::printf("%s done (%zu vectors, dim %zu)\n", name.c_str(),
                row.vectors, row.dim);
  }

  std::printf("\n%s\n", table.Render().c_str());
  std::printf("(per-lookup times over %zu random lookups; mmap open %s the "
              "copying snapshot load)\n",
              kLookups,
              mmap_beats_copy ? "beats" : "DID NOT BEAT — investigate");
  EmitServingJson(json_rows);
  std::filesystem::remove_all(dir);
  return 0;
}

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
// allocation — the acceptance bar for the serving path). The note on the
// latter is printed per dataset from the reps: "beats" only when every
// open is faster than every load, "within noise" when their ranges
// overlap. It never fails the run.
//
// Writes BENCH_serving.json to the working directory, uploaded as a CI
// artifact next to table9's BENCH_serve.json.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/serving.h"
#include "src/exp/report.h"
#include "src/exp/static_experiment.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"
#include "src/store/embedding_store.h"
#include "src/store/format.h"

using namespace stedb;

namespace {

/// How the mmap open compares with the copying snapshot load, from the
/// seconds of their reps (ascending).
const char* OpenVersusLoad(const std::vector<double>& open_s,
                           const std::vector<double>& load_s) {
  if (open_s.back() < load_s.front()) return "beats";
  if (open_s.front() > load_s.back()) return "is slower than";
  return "is within noise of";
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
  bench::Report report("serving");
  report.Begin("datasets", '[');
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

    const std::vector<double> snap_load_reps = bench::TimeReps(reps, [&] {
      std::string bytes;
      if (!store::ReadFileToString(
               store::EmbeddingStore::SnapshotPath(store_dir), &bytes)
               .ok() ||
          !fwd::DecodeForwardSnapshot(bytes).ok()) {
        std::exit(1);
      }
    });
    const std::vector<double> mmap_open_reps = bench::TimeReps(reps, [&] {
      if (!api::ServingSession::Open(store_dir).ok()) std::exit(1);
    });
    const double snap_load_s = bench::Percentile(snap_load_reps, 0.5);
    const double mmap_open_s = bench::Percentile(mmap_open_reps, 0.5);

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
    auto ns_per_lookup = [&](auto&& lookups) {
      return bench::TimeMedian(reps, lookups) /
             static_cast<double>(kLookups) * 1e9;
    };
    const double scalar_ns = ns_per_lookup([&] {
      for (db::FactId f : sequence) {
        sink = sink + emb.value().Embed(f).value()[0];
      }
    });
    la::Matrix out(sequence.size(), model.dim());
    const double batch_ns = ns_per_lookup([&] {
      if (!emb.value().EmbedBatch(sequence, out).ok()) std::exit(1);
      sink = sink + out(0, 0);
    });
    const double serving_ns = ns_per_lookup([&] {
      for (db::FactId f : sequence) {
        sink = sink + session.Embed(f).value()[0];
      }
    });
    const double serving_batch_ns = ns_per_lookup([&] {
      if (!session.EmbedBatch(sequence, out).ok()) std::exit(1);
      sink = sink + out(0, 0);
    });

    char load_c[32], open_c[32], scalar_c[32], batch_c[32], serve_c[32],
        serve_b[32];
    std::snprintf(load_c, sizeof(load_c), "%.1fus", snap_load_s * 1e6);
    std::snprintf(open_c, sizeof(open_c), "%.1fus", mmap_open_s * 1e6);
    std::snprintf(scalar_c, sizeof(scalar_c), "%.0fns", scalar_ns);
    std::snprintf(batch_c, sizeof(batch_c), "%.0fns", batch_ns);
    std::snprintf(serve_c, sizeof(serve_c), "%.0fns", serving_ns);
    std::snprintf(serve_b, sizeof(serve_b), "%.0fns", serving_batch_ns);
    table.AddRow({name, load_c, open_c, scalar_c, batch_c, serve_c, serve_b});
    report.Row(name);
    report.Set("vectors", model.num_embedded());
    report.Set("dim", model.dim());
    report.Set("snapshot_load_seconds", snap_load_s);
    report.Set("mmap_open_seconds", mmap_open_s);
    report.Set("scalar_ns_per_lookup", scalar_ns);
    report.Set("batch_ns_per_lookup", batch_ns);
    report.Set("serving_ns_per_lookup", serving_ns);
    report.Set("serving_batch_ns_per_lookup", serving_batch_ns);
    report.Set("mmap_vs_snapshot_speedup",
               mmap_open_s > 0.0 ? snap_load_s / mmap_open_s : 0.0);
    report.End();
    std::printf("%s done (%zu vectors, dim %zu); mmap open %s the copying "
                "snapshot load (%d reps each: %.1f-%.1fus vs %.1f-%.1fus)\n",
                name.c_str(), model.num_embedded(), model.dim(),
                OpenVersusLoad(mmap_open_reps, snap_load_reps), reps,
                mmap_open_reps.front() * 1e6, mmap_open_reps.back() * 1e6,
                snap_load_reps.front() * 1e6, snap_load_reps.back() * 1e6);
  }

  std::printf("\n%s\n", table.Render().c_str());
  std::printf("(per-lookup times over %zu random lookups)\n", kLookups);
  report.Write();
  std::filesystem::remove_all(dir);
  return 0;
}

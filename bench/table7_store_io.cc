// Persistence I/O for the embedding store (src/store/): v2 snapshot
// save/load through the FoRWaRD codec, the per-extension WAL append cost,
// and the group-commit fsync batching, on a FoRWaRD model trained at the
// configured scale.
//
// Shape expectations: a buffered WAL append costs microseconds; and group
// commit (StoreOptions::group_commit_bytes) cuts the fsync count of
// a sync_every_append workload by the window factor while recovering the
// identical model — the durability layer stays off the dynamic-extension
// critical path even at power-loss-grade durability.
//
// Writes BENCH_store.json to the working directory, uploaded as a CI
// artifact and diffed against the committed baseline by
// scripts/bench_compare.py.
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/timer.h"
#include "src/exp/report.h"
#include "src/fwd/codec.h"
#include "src/store/embedding_store.h"
#include "src/store/format.h"

using namespace stedb;

namespace {

/// Appends `n` synthetic records into a fresh store under `options` and
/// returns (us per append, fsyncs issued). The recovered model is checked
/// against `expect_records` so the durability modes cannot silently drop
/// data while looking fast.
std::pair<double, uint64_t> AppendWorkload(const std::string& dir,
                                           const fwd::ForwardModel& model,
                                           store::StoreOptions options,
                                           size_t n) {
  auto created = fwd::CreateForwardStore(dir, model, options);
  if (!created.ok()) std::exit(1);
  store::EmbeddingStore st = std::move(created).value();
  la::Vector phi(model.dim(), 0.25);
  Timer append_timer;
  for (size_t i = 0; i < n; ++i) {
    if (!st.Append(static_cast<db::FactId>(1000000 + i), phi).ok()) {
      std::exit(1);
    }
  }
  if (!st.Sync().ok()) std::exit(1);
  const double us =
      append_timer.ElapsedSeconds() / static_cast<double>(n) * 1e6;
  auto recovered = store::EmbeddingStore::Open(dir);
  if (!recovered.ok() || recovered.value().wal_records() != n) {
    std::fprintf(stderr, "append workload: bad recovery from %s\n",
                 dir.c_str());
    std::exit(1);
  }
  return {us, st.fsync_count()};
}

}  // namespace

int main(int argc, char** argv) {
  exp::RunScale scale = exp::ScaleFromEnv();
  exp::MethodConfig mcfg = exp::MethodConfig::ForScale(scale);
  bench::PrintHeader("Table VII", "embedding store I/O (snapshot, "
                     "WAL append, group commit)", scale);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "stedb_store_bench")
          .string();
  std::filesystem::create_directories(dir);
  const int reps = scale == exp::RunScale::kPaper ? 3 : 5;

  exp::TableWriter table({"Task", "snap load", "append/vec", "synced",
                          "grouped", "fsyncs s/g"});
  bench::Report report("store");
  report.Begin("datasets", '[');
  bool group_commit_wins = true;
  for (const std::string& name : bench::SelectDatasets(argc, argv)) {
    data::GeneratedDataset ds =
        bench::MakeDatasetOrDie(name, mcfg.data_scale);
    fwd::ForwardConfig fcfg = mcfg.forward;
    fcfg.seed = 7;
    fwd::AttrKeySet excluded;
    excluded.insert({ds.pred_rel, ds.pred_attr});
    auto emb = fwd::ForwardEmbedder::TrainStatic(&ds.database, ds.pred_rel,
                                                 excluded, fcfg);
    if (!emb.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   emb.status().ToString().c_str());
      continue;
    }
    const fwd::ForwardModel& model = emb.value().model();

    const std::string snap_path = dir + "/" + name + ".snap";
    const double snap_save_s = bench::TimeMedian(reps, [&] {
      if (!store::AtomicWriteFile(snap_path,
                                  fwd::EncodeForwardSnapshot(model))
               .ok()) {
        std::exit(1);
      }
    });
    const double snap_load_s = bench::TimeMedian(reps, [&] {
      std::string bytes;
      if (!store::ReadFileToString(snap_path, &bytes).ok() ||
          !fwd::DecodeForwardSnapshot(bytes).ok()) {
        std::exit(1);
      }
    });

    // Per-extension append cost under the three durability modes: journal
    // synthetic φ vectors (the I/O path neither knows nor cares that they
    // came from the solver). Group commit batches 16 records per fsync.
    const size_t kAppends = 512;
    store::StoreOptions buffered;
    store::StoreOptions synced;
    synced.sync_every_append = true;
    store::StoreOptions grouped = synced;
    grouped.group_commit_bytes =
        16 * store::WalWriter::RecordBytes(model.dim());

    const double append_us =
        AppendWorkload(dir + "/" + name + "_buf", model, buffered, kAppends)
            .first;
    const auto [synced_us, synced_fsyncs] =
        AppendWorkload(dir + "/" + name + "_sync", model, synced, kAppends);
    const auto [grouped_us, grouped_fsyncs] = AppendWorkload(
        dir + "/" + name + "_group", model, grouped, kAppends);
    if (grouped_fsyncs * 2 > synced_fsyncs) group_commit_wins = false;

    char load_cell[32], append_cell[32], synced_cell[32], grouped_cell[32],
        fsync_cell[48];
    std::snprintf(load_cell, sizeof(load_cell), "%.1fus", snap_load_s * 1e6);
    std::snprintf(append_cell, sizeof(append_cell), "%.1fus", append_us);
    std::snprintf(synced_cell, sizeof(synced_cell), "%.1fus", synced_us);
    std::snprintf(grouped_cell, sizeof(grouped_cell), "%.1fus", grouped_us);
    std::snprintf(fsync_cell, sizeof(fsync_cell), "%llu/%llu",
                  static_cast<unsigned long long>(synced_fsyncs),
                  static_cast<unsigned long long>(grouped_fsyncs));
    table.AddRow({name, load_cell, append_cell, synced_cell, grouped_cell,
                  fsync_cell});
    report.Row(name);
    report.Set("vectors", model.num_embedded());
    report.Set("dim", model.dim());
    report.Set("snapshot_save_seconds", snap_save_s);
    report.Set("snapshot_load_seconds", snap_load_s);
    report.Set("append_us", append_us);
    report.Set("synced_append_us", synced_us);
    report.Set("grouped_append_us", grouped_us);
    report.Set("synced_fsyncs", synced_fsyncs);
    report.Set("grouped_fsyncs", grouped_fsyncs);
    report.Set("group_commit_fsync_reduction",
               grouped_fsyncs > 0 ? static_cast<double>(synced_fsyncs) /
                                        static_cast<double>(grouped_fsyncs)
                                  : 0.0);
    report.End();
    std::printf("%s done (%zu embeddings, dim %zu)\n", name.c_str(),
                model.num_embedded(), model.dim());
  }
  std::printf("\n%s\n", table.Render().c_str());
  std::printf("(group commit %s the per-record fsync count at equal "
              "end-of-batch durability)\n",
              group_commit_wins ? "beats" : "DID NOT BEAT — investigate");
  report.Write();
  std::filesystem::remove_all(dir);
  return 0;
}

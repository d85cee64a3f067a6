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
// Emits BENCH_store.json to the cwd (STEDB_BENCH_STORE_JSON overrides the
// path; "off" disables), uploaded as a CI artifact and diffed against the
// committed baseline by scripts/bench_compare.py.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/timer.h"
#include "src/exp/report.h"
#include "src/fwd/codec.h"
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

struct StoreNumbers {
  std::string dataset;
  size_t vectors = 0;
  size_t dim = 0;
  double snap_save_s = 0.0;
  double snap_load_s = 0.0;
  double append_us = 0.0;          ///< buffered append, one fsync at the end
  double synced_append_us = 0.0;   ///< sync_every_append (fsync per record)
  double grouped_append_us = 0.0;  ///< group commit, 16-record byte window
  uint64_t synced_fsyncs = 0;
  uint64_t grouped_fsyncs = 0;
};

void EmitStoreJson(const std::vector<StoreNumbers>& rows) {
  const char* out_env = std::getenv("STEDB_BENCH_STORE_JSON");
  std::string path = out_env != nullptr && *out_env != '\0'
                         ? out_env
                         : "BENCH_store.json";
  if (path == "off" || path == "0") return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_store.json: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"store\",\n"
               "  \"hardware_concurrency\": %u,\n  \"datasets\": [\n",
               std::thread::hardware_concurrency());
  bool first = true;
  for (const StoreNumbers& r : rows) {
    std::fprintf(
        f,
        "%s    {\"name\": \"%s\", \"vectors\": %zu, \"dim\": %zu,\n"
        "     \"snapshot_save_seconds\": %.6f, \"snapshot_load_seconds\": "
        "%.6f,\n"
        "     \"append_us\": %.2f, \"synced_append_us\": %.2f,"
        " \"grouped_append_us\": %.2f,\n"
        "     \"synced_fsyncs\": %llu, \"grouped_fsyncs\": %llu,"
        " \"group_commit_fsync_reduction\": %.2f}",
        first ? "" : ",\n", r.dataset.c_str(), r.vectors, r.dim,
        r.snap_save_s, r.snap_load_s, r.append_us, r.synced_append_us,
        r.grouped_append_us,
        static_cast<unsigned long long>(r.synced_fsyncs),
        static_cast<unsigned long long>(r.grouped_fsyncs),
        r.grouped_fsyncs > 0
            ? static_cast<double>(r.synced_fsyncs) /
                  static_cast<double>(r.grouped_fsyncs)
            : 0.0);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

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
  std::vector<StoreNumbers> json_rows;
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

    StoreNumbers row;
    row.dataset = name;
    row.vectors = model.num_embedded();
    row.dim = model.dim();

    const std::string snap_path = dir + "/" + name + ".snap";
    row.snap_save_s = TimeMedian(reps, [&] {
      if (!store::AtomicWriteFile(snap_path,
                                  fwd::EncodeForwardSnapshot(model))
               .ok()) {
        std::exit(1);
      }
    });
    row.snap_load_s = TimeMedian(reps, [&] {
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

    uint64_t buffered_fsyncs = 0;
    std::tie(row.append_us, buffered_fsyncs) =
        AppendWorkload(dir + "/" + name + "_buf", model, buffered, kAppends);
    (void)buffered_fsyncs;
    std::tie(row.synced_append_us, row.synced_fsyncs) =
        AppendWorkload(dir + "/" + name + "_sync", model, synced, kAppends);
    std::tie(row.grouped_append_us, row.grouped_fsyncs) = AppendWorkload(
        dir + "/" + name + "_group", model, grouped, kAppends);
    if (row.grouped_fsyncs * 2 > row.synced_fsyncs) {
      group_commit_wins = false;
    }

    char append_cell[32], synced_cell[32], grouped_cell[32], fsync_cell[48];
    std::snprintf(append_cell, sizeof(append_cell), "%.1fus", row.append_us);
    std::snprintf(synced_cell, sizeof(synced_cell), "%.1fus",
                  row.synced_append_us);
    std::snprintf(grouped_cell, sizeof(grouped_cell), "%.1fus",
                  row.grouped_append_us);
    std::snprintf(fsync_cell, sizeof(fsync_cell), "%llu/%llu",
                  static_cast<unsigned long long>(row.synced_fsyncs),
                  static_cast<unsigned long long>(row.grouped_fsyncs));
    table.AddRow({name, exp::SecondsCell(row.snap_load_s), append_cell,
                  synced_cell, grouped_cell, fsync_cell});
    json_rows.push_back(row);
    std::printf("%s done (%zu embeddings, dim %zu)\n", name.c_str(),
                model.num_embedded(), model.dim());
  }
  std::printf("\n%s\n", table.Render().c_str());
  std::printf("(group commit %s the per-record fsync count at equal "
              "end-of-batch durability)\n",
              group_commit_wins ? "beats" : "DID NOT BEAT — investigate");
  EmitStoreJson(json_rows);
  std::filesystem::remove_all(dir);
  return 0;
}

// google-benchmark micro-benchmarks of the hot paths underlying the paper
// tables: walk sampling, exact destination distributions, kernel
// evaluation, the two least-squares solvers of the dynamic extension, SGNS
// updates, and database mutation primitives.
//
// On startup (before the registered benchmarks run) the binary also writes
// BENCH_parallel.json to the working directory — serial vs. threaded
// wall-time for the three parallelized hot paths and for a raw std::thread
// probe of the machine's parallel capacity, the runtime's own per-fan-out
// cost, plus scalar-vs-active timings of the dispatched SIMD kernels
// (la/kernels.h) — so the perf trajectory of the parallel runtime and the
// kernel layer is machine-readable from every CI run. Use
// --benchmark_filter=NoSuchBenchmark to write the report without running
// the micro-benchmarks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/parallel.h"
#include "src/common/timer.h"
#include "src/data/registry.h"
#include "src/db/cascade.h"
#include "src/fwd/forward.h"
#include "src/fwd/walk_distribution.h"
#include "src/fwd/walk_sampler.h"
#include "src/graph/alias_sampler.h"
#include "src/graph/bipartite_graph.h"
#include "src/graph/walker.h"
#include "src/la/kernels.h"
#include "src/la/row_batch.h"
#include "src/la/solve.h"
#include "src/la/svd.h"
#include "src/n2v/skipgram.h"

namespace stedb {
namespace {

const data::GeneratedDataset& Genes() {
  static const data::GeneratedDataset* ds = [] {
    data::GenConfig cfg;
    cfg.scale = 0.15;
    cfg.seed = 3;
    return new data::GeneratedDataset(
        std::move(data::MakeGenes(cfg)).value());
  }();
  return *ds;
}

void BM_WalkSample(benchmark::State& state) {
  const data::GeneratedDataset& ds = Genes();
  fwd::WalkSampler sampler(&ds.database);
  auto schemes = fwd::EnumerateWalkSchemes(ds.database.schema(),
                                           ds.pred_rel,
                                           static_cast<int>(state.range(0)));
  const auto& facts = ds.Samples();
  Rng rng(1);
  size_t i = 0;
  for (auto _ : state) {
    const fwd::WalkScheme& s = schemes[i % schemes.size()];
    benchmark::DoNotOptimize(
        sampler.SampleDestination(s, facts[i % facts.size()], rng));
    ++i;
  }
}
BENCHMARK(BM_WalkSample)->Arg(1)->Arg(2)->Arg(3);

void BM_ExactDistribution(benchmark::State& state) {
  const data::GeneratedDataset& ds = Genes();
  fwd::WalkDistribution dist(&ds.database);
  auto schemes =
      fwd::EnumerateWalkSchemes(ds.database.schema(), ds.pred_rel, 2);
  auto targets = fwd::BuildTargets(ds.database.schema(), schemes, {});
  const auto& facts = ds.Samples();
  size_t i = 0;
  for (auto _ : state) {
    const auto& t = targets[i % targets.size()];
    benchmark::DoNotOptimize(dist.Exact(schemes[t.scheme_index], t.attr,
                                        facts[i % facts.size()]));
    ++i;
  }
}
BENCHMARK(BM_ExactDistribution);

void BM_KernelGaussian(benchmark::State& state) {
  fwd::GaussianKernel kernel(2.0);
  Rng rng(2);
  db::Value a = db::Value::Real(rng.NextGaussian());
  db::Value b = db::Value::Real(rng.NextGaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.Evaluate(a, b));
  }
}
BENCHMARK(BM_KernelGaussian);

void BM_RidgeSolve(benchmark::State& state) {
  const size_t d = state.range(0);
  Rng rng(3);
  la::Matrix c = la::Matrix::RandomGaussian(d * 8, d, 1.0, rng);
  la::Vector b = la::RandomVector(d * 8, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::RidgeLeastSquares(c, b, 1e-8));
  }
}
BENCHMARK(BM_RidgeSolve)->Arg(16)->Arg(32)->Arg(64);

void BM_PinvSolve(benchmark::State& state) {
  const size_t d = state.range(0);
  Rng rng(4);
  la::Matrix n = la::Matrix::RandomGaussian(d, d, 1.0, rng);
  la::Matrix spd = n.Transposed().Multiply(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::PseudoInverse(spd));
  }
}
BENCHMARK(BM_PinvSolve)->Arg(16)->Arg(32)->Arg(64)->Arg(100);

void BM_SgnsEpoch(benchmark::State& state) {
  Rng rng(5);
  n2v::SkipGramConfig cfg;
  cfg.dim = state.range(0);
  cfg.negatives = 8;
  n2v::SkipGramModel model(64, cfg, rng);
  std::vector<std::vector<graph::NodeId>> walks;
  for (int w = 0; w < 32; ++w) {
    std::vector<graph::NodeId> walk;
    for (int i = 0; i < 12; ++i) {
      walk.push_back(static_cast<graph::NodeId>(rng.NextIndex(64)));
    }
    walks.push_back(std::move(walk));
  }
  n2v::NodeVocab vocab(64);
  vocab.CountWalks(walks);
  vocab.BuildNoiseTable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Train(walks, vocab, 1, rng));
  }
}
BENCHMARK(BM_SgnsEpoch)->Arg(16)->Arg(64);

void BM_AliasSample(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> weights(1024);
  for (double& w : weights) w = rng.NextDouble() + 0.01;
  graph::AliasSampler sampler(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
}
BENCHMARK(BM_AliasSample);

// ---- SIMD kernel layer (la/kernels.h) ---------------------------------
// Registered benchmarks run whatever path the dispatcher picked (or
// STEDB_SIMD forces); the JSON report below times scalar vs. active
// explicitly.

void BM_KernelDot(benchmark::State& state) {
  const size_t d = state.range(0);
  Rng rng(13);
  la::Vector a = la::RandomVector(d, 1.0, rng);
  la::Vector b = la::RandomVector(d, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::Dot(a.data(), b.data(), d));
  }
  state.SetLabel(la::ActiveSimdPathName());
}
BENCHMARK(BM_KernelDot)->Arg(16)->Arg(64)->Arg(128)->Arg(512);

void BM_KernelAxpy(benchmark::State& state) {
  const size_t d = state.range(0);
  Rng rng(14);
  la::Vector a = la::RandomVector(d, 1.0, rng);
  la::Vector b = la::RandomVector(d, 1.0, rng);
  for (auto _ : state) {
    la::Axpy(1e-9, b.data(), a.data(), d);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetLabel(la::ActiveSimdPathName());
}
BENCHMARK(BM_KernelAxpy)->Arg(16)->Arg(64)->Arg(128)->Arg(512);

// /topk's per-request scan over a 2x10^4 x 32 row-major store with one ψ:
// project u = ψᵀx once and score every row with one Dot, as
// ServingSession::TopK does.
void BM_TopKScan(benchmark::State& state) {
  constexpr size_t kRows = 20'000, d = 32;
  Rng rng(17);
  la::Matrix store = la::Matrix::RandomGaussian(kRows, d, 1.0, rng);
  la::Matrix psi = la::Matrix::RandomGaussian(d, d, 1.0, rng);
  la::Vector x = la::RandomVector(d, 1.0, rng);
  la::Vector u(d);
  for (auto _ : state) {
    double best = 0.0;
    la::LeftProject(x.data(), psi.data().data(), d, d, u.data());
    for (size_t r = 0; r < kRows; ++r) {
      best = std::max(best, la::Dot(u.data(), store.RowPtr(r), d));
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetLabel(la::ActiveSimdPathName());
}
BENCHMARK(BM_TopKScan)->Unit(benchmark::kMicrosecond);

void BM_KernelGather(benchmark::State& state) {
  const size_t d = state.range(0);
  constexpr size_t kRows = 256;
  Rng rng(16);
  la::Matrix src = la::Matrix::RandomGaussian(kRows, d, 1.0, rng);
  la::Matrix out(kRows, d);
  std::vector<size_t> perm(kRows);
  for (size_t i = 0; i < kRows; ++i) perm[i] = rng.NextIndex(kRows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::GatherRows(
        kRows, d, 1, out,
        [&](size_t i) { return src.RowPtr(perm[i]); }));
  }
  state.SetLabel(la::ActiveSimdPathName());
}
BENCHMARK(BM_KernelGather)->Arg(16)->Arg(64)->Arg(128)->Arg(512);

void BM_InsertDelete(benchmark::State& state) {
  data::GenConfig cfg;
  cfg.scale = 0.1;
  data::GeneratedDataset ds = std::move(data::MakeGenes(cfg)).value();
  int64_t n = 0;
  for (auto _ : state) {
    auto id = ds.database.Insert(
        "CLASSIFICATION",
        {db::Value::Text("bench" + std::to_string(n++)),
         db::Value::Text("loc00000")});
    benchmark::DoNotOptimize(id);
    (void)ds.database.Delete(id.value());
  }
}
BENCHMARK(BM_InsertDelete);

void BM_CascadeRoundTrip(benchmark::State& state) {
  data::GenConfig cfg;
  cfg.scale = 0.08;
  data::GeneratedDataset ds = std::move(data::MakeMutagenesis(cfg)).value();
  Rng rng(8);
  for (auto _ : state) {
    const auto& facts = ds.database.FactsOf(ds.pred_rel);
    db::FactId victim = facts[rng.NextIndex(facts.size())];
    auto batch = db::CascadeDelete(ds.database, victim);
    benchmark::DoNotOptimize(batch);
    (void)db::ReinsertBatch(ds.database, batch.value());
  }
}
BENCHMARK(BM_CascadeRoundTrip);

void BM_ForwardExtendOneTuple(benchmark::State& state) {
  data::GenConfig cfg;
  cfg.scale = 0.08;
  data::GeneratedDataset ds = std::move(data::MakeGenes(cfg)).value();
  fwd::ForwardConfig fcfg;
  fcfg.dim = 24;
  fcfg.nsamples = 16;
  fcfg.epochs = 4;
  fcfg.max_walk_len = 2;
  fcfg.new_samples = 60;
  fwd::AttrKeySet excluded;
  excluded.insert({ds.pred_rel, ds.pred_attr});
  auto emb = fwd::ForwardEmbedder::TrainStatic(&ds.database, ds.pred_rel,
                                               excluded, fcfg);
  fwd::ForwardEmbedder embedder = std::move(emb).value();
  Rng rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    const auto& facts = ds.database.FactsOf(ds.pred_rel);
    db::FactId victim = facts[rng.NextIndex(facts.size())];
    auto batch = db::CascadeDelete(ds.database, victim).value();
    auto ids = db::ReinsertBatch(ds.database, batch).value();
    state.ResumeTiming();
    benchmark::DoNotOptimize(embedder.ExtendToFacts(ids));
  }
}
BENCHMARK(BM_ForwardExtendOneTuple);

// ---- Parallel hot paths: the three pipelines the runtime accelerates. ----
// Timed once per thread count for the JSON report, and registered as
// regular benchmarks (Arg = thread count) for interactive runs. Results
// are bit-identical across thread counts; only the wall time may differ.

double TimeForwardTrain(int threads) {
  const data::GeneratedDataset& ds = Genes();
  fwd::ForwardConfig cfg;
  cfg.dim = 16;
  cfg.nsamples = 12;
  cfg.epochs = 2;
  cfg.max_walk_len = 2;
  cfg.threads = threads;
  fwd::AttrKeySet excluded;
  excluded.insert({ds.pred_rel, ds.pred_attr});
  Timer t;
  auto emb = fwd::ForwardEmbedder::TrainStatic(&ds.database, ds.pred_rel,
                                               excluded, cfg);
  if (!emb.ok()) return -1.0;
  return t.ElapsedSeconds();
}

double TimeWalkCorpus(int threads) {
  const data::GeneratedDataset& ds = Genes();
  graph::GraphOptions gopt;
  gopt.excluded_columns.insert({ds.pred_rel, ds.pred_attr});
  graph::BipartiteGraph graph(&ds.database, gopt);
  if (!graph.BuildAll().ok()) return -1.0;
  graph::WalkConfig wc;
  wc.walk_length = 15;
  wc.walks_per_node = 10;
  wc.threads = threads;
  graph::Node2VecWalker walker(&graph, wc);
  Rng rng(11);
  Timer t;
  benchmark::DoNotOptimize(walker.AllWalks(rng));
  return t.ElapsedSeconds();
}

double TimeSgnsEpochs(int threads) {
  Rng rng(12);
  n2v::SkipGramConfig cfg;
  cfg.dim = 64;
  cfg.negatives = 8;
  cfg.threads = threads;
  constexpr size_t kNodes = 512;
  n2v::SkipGramModel model(kNodes, cfg, rng);
  std::vector<std::vector<graph::NodeId>> walks;
  for (int w = 0; w < 256; ++w) {
    std::vector<graph::NodeId> walk;
    for (int i = 0; i < 16; ++i) {
      walk.push_back(static_cast<graph::NodeId>(rng.NextIndex(kNodes)));
    }
    walks.push_back(std::move(walk));
  }
  n2v::NodeVocab vocab(kNodes);
  vocab.CountWalks(walks);
  vocab.BuildNoiseTable();
  Timer t;
  benchmark::DoNotOptimize(model.Train(walks, vocab, 2, rng));
  return t.ElapsedSeconds();
}

/// One fixed unit of serial arithmetic (a dependent multiply-add chain,
/// about 10 ms on a 3 GHz core); it touches no shared memory.
void FixedWorkUnit() {
  double x = 1.0;
  // An opaque start: from a known one the compiler folds the whole chain.
  benchmark::DoNotOptimize(x);
  for (int i = 0; i < (1 << 22); ++i) x = x * 0.999999 + 1e-6;
  benchmark::DoNotOptimize(x);
}

/// The machine's raw parallel capacity, with none of the runtime: four
/// fixed work units split over `threads` plain std::threads (one thread
/// runs them back to back). Its speedup bounds what any hot path above
/// can show on this machine at this moment.
double TimeRawThreads(int threads) {
  constexpr int kUnits = 4;
  Timer t;
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([w, threads] {
      for (int u = w; u < kUnits; u += threads) FixedWorkUnit();
    });
  }
  for (std::thread& worker : workers) worker.join();
  return t.ElapsedSeconds();
}

/// About a microsecond of serial arithmetic: the body of the fan-out probe.
void MicroWorkUnit() {
  double x = 1.0;
  benchmark::DoNotOptimize(x);
  for (int i = 0; i < 512; ++i) x = x * 0.999999 + 1e-6;
  benchmark::DoNotOptimize(x);
}

/// The runtime's own cost: back-to-back 64-task ParallelFor calls of ~1 µs
/// bodies at `threads` (0 = the default count). Reports the row `name`:
/// the median call and the share of calls where some index ran off the
/// calling thread.
void TimeFanout(const char* name, int threads, bench::Report& report) {
  constexpr size_t kFanouts = 3000;
  constexpr size_t kTasks = 64;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<double> us(kFanouts);
  size_t multi = 0;
  for (double& call_us : us) {
    std::atomic<bool> helped{false};
    Timer t;
    ParallelFor(threads, kTasks, [&](size_t) {
      MicroWorkUnit();
      if (std::this_thread::get_id() != caller) {
        helped.store(true, std::memory_order_relaxed);
      }
    });
    call_us = t.ElapsedSeconds() * 1e6;
    if (helped.load()) ++multi;
  }
  std::nth_element(us.begin(), us.begin() + kFanouts / 2, us.end());
  report.Row(name);
  report.Set("threads", ResolveThreadCount(threads));
  report.Set("median_us", us[kFanouts / 2]);
  report.Set("multi_thread_share",
             static_cast<double>(multi) / static_cast<double>(kFanouts));
  report.End();
}

void BM_ForwardTrainStatic(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TimeForwardTrain(static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_ForwardTrainStatic)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_WalkCorpus(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TimeWalkCorpus(static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_WalkCorpus)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SgnsEpochsThreaded(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TimeSgnsEpochs(static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_SgnsEpochsThreaded)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Calibrated wall-clock nanoseconds per invocation of `op`: the repeat
/// count quadruples until a run lasts at least 10 ms, so short kernels are
/// not timed at clock resolution.
template <typename Fn>
double NsPerOp(const Fn& op) {
  op();  // warm caches and the dispatch pointer
  for (int iters = 64;; iters *= 4) {
    Timer t;
    for (int i = 0; i < iters; ++i) op();
    const double s = t.ElapsedSeconds();
    if (s > 0.01 || iters >= (1 << 26)) {
      return s * 1e9 / static_cast<double>(iters);
    }
  }
}

/// Times the kernel shapes of the report (dot, axpy, matvec, rank-1
/// add_outer, row gather, Adam step) at the canonical dims, once
/// with the dispatch forced to scalar and once on the path the dispatcher
/// actually picked, and reports one row per shape. The active path is
/// restored afterwards.
void TimeKernels(bench::Report& report) {
  const la::SimdPath active = la::ActiveSimdPath();
  Rng rng(17);
  constexpr size_t kGatherRows = 256;
  for (size_t d : {16u, 64u, 128u, 512u}) {
    la::Vector a = la::RandomVector(d, 1.0, rng);
    la::Vector b = la::RandomVector(d, 1.0, rng);
    la::Matrix m = la::Matrix::RandomGaussian(d, d, 1.0, rng);
    la::Vector mv_out(d);
    la::Vector tiny(d);
    la::Scale(tiny.data(), 1e-9, b.data(), d);
    la::Matrix src = la::Matrix::RandomGaussian(kGatherRows, d, 1.0, rng);
    la::Matrix gout(kGatherRows, d);
    la::Vector adam_m(d, 0.0);
    la::Vector adam_v(d, 0.0);
    std::vector<size_t> perm(kGatherRows);
    for (size_t i = 0; i < kGatherRows; ++i) {
      perm[i] = rng.NextIndex(kGatherRows);
    }

    struct Op {
      const char* name;
      std::function<void()> run;
    };
    const Op ops[] = {
        {"dot",
         [&] { benchmark::DoNotOptimize(la::Dot(a.data(), b.data(), d)); }},
        {"axpy",
         [&] {
           la::Axpy(1e-9, b.data(), a.data(), d);
           benchmark::DoNotOptimize(a.data());
         }},
        {"matvec",
         [&] {
           la::MatVec(m.data().data(), d, d, b.data(), mv_out.data());
           benchmark::DoNotOptimize(mv_out.data());
         }},
        {"add_outer",
         [&] {
           // m grows by 1e-18 b b^T per call: finite for any repeat count.
           la::AddOuter(m.data().data(), d, d, tiny.data(), tiny.data());
           benchmark::DoNotOptimize(m.data().data());
         }},
        {"gather",
         [&] {
           benchmark::DoNotOptimize(la::GatherRows(
               kGatherRows, d, 1, gout,
               [&](size_t i) { return src.RowPtr(perm[i]); }));
         }},
        {"adam",
         [&] {
           // Neither bias correction is 1.0: the variant that performs
           // all three divisions, i.e. a block's first ~356 steps.
           la::AdamStep({1e-9, 0.9, 0.999, 1e-8, 0.5, 0.25}, a.data(),
                        adam_m.data(), adam_v.data(), b.data(), d);
           benchmark::DoNotOptimize(a.data());
         }},
    };
    for (const Op& op : ops) {
      la::internal::ForceSimdPathForTest(la::SimdPath::kScalar);
      const double scalar_ns = NsPerOp(op.run);
      la::internal::ForceSimdPathForTest(active);
      const double active_ns = NsPerOp(op.run);
      report.Row(std::string(op.name) + "_d" + std::to_string(d));
      report.Set("dim", d);
      report.Set("scalar_ns", scalar_ns);
      report.Set("active_ns", active_ns);
      report.Set("speedup", active_ns > 0.0 ? scalar_ns / active_ns : 0.0);
      report.End();
    }
  }
  la::internal::ForceSimdPathForTest(active);
}

/// Writes BENCH_parallel.json: serial vs. threaded wall time per hot path,
/// the runtime's fan-out cost and the kernels' scalar vs. active time.
/// The explicit per-run thread counts are never overridden by
/// STEDB_THREADS (explicit pins win, see ResolveThreadCount). When a hot
/// path fails to run, nothing is written (CI catches the missing artifact)
/// and a warning goes to stderr — the registered benchmarks still run.
void WriteParallelReport() {
  const int threaded = 4;
  bench::Report report("parallel");
  report.Set("threads", threaded);
  const std::pair<const char*, double (*)(int)> hot_paths[] = {
      {"forward_train_static", &TimeForwardTrain},
      {"n2v_walk_corpus", &TimeWalkCorpus},
      {"sgns_epochs", &TimeSgnsEpochs},
      {"raw_threads", &TimeRawThreads},
  };
  report.Begin("hot_paths", '[');
  for (const auto& [name, run] : hot_paths) {
    const double serial = run(1);
    const double parallel = run(threaded);
    if (serial < 0.0 || parallel < 0.0) {
      std::fprintf(stderr, "BENCH_parallel.json: hot path %s failed\n",
                   name);
      return;
    }
    report.Row(name);
    report.Set("serial_seconds", serial);
    report.Set("parallel_seconds", parallel);
    report.Set("speedup", parallel > 0.0 ? serial / parallel : 0.0);
    report.End();
  }
  report.End();
  // The runtime's per-call cost: a 64-task fan-out of ~1 µs bodies. Read
  // multi_thread_share next to raw_threads: both say how much parallel
  // capacity the machine offered during the run.
  report.Begin("fanout_64x1us", '[');
  TimeFanout("default", 0, report);
  TimeFanout("pin4", threaded, report);
  report.End();
  // The SIMD kernel section: per-kernel scalar vs. active-path time. The
  // "speedup" field (scalar / active) is what bench_compare.py tracks —
  // bigger is better, and it is 1.0 by construction on machines where the
  // dispatcher picked scalar.
  report.Begin("simd", '{');
  report.Set("active_path", la::ActiveSimdPathName());
  report.Begin("kernels", '[');
  TimeKernels(report);
  report.Write();
}

}  // namespace
}  // namespace stedb

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  stedb::WriteParallelReport();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

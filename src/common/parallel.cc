#include "src/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"

namespace stedb {

namespace {

/// Registry series of the parallel runtime: how often the process fans
/// out and how wide. One fan-out = one ParallelFor call that reaches the
/// pool (degree > 1 and n > 1); tasks = its index count.
struct ParallelMetrics {
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter& fanouts = reg.GetCounter(
      "stedb_parallel_fanouts_total", "ParallelFor calls");
  obs::Counter& tasks = reg.GetCounter(
      "stedb_parallel_tasks_total", "Indices dispatched by ParallelFor");
  obs::Histogram& fanout_size = reg.GetHistogram(
      "stedb_parallel_fanout_size", "Index count per ParallelFor call",
      obs::Buckets::PowersOfTwo());
};

ParallelMetrics& Metrics() {
  static ParallelMetrics m;
  return m;
}

[[maybe_unused]] const ParallelMetrics& g_eager_metrics = Metrics();

/// Pool size cap: the helpers of a degree of 256, the STEDB_THREADS cap.
constexpr size_t kMaxWorkers = 255;

/// Guards the pool and the bookkeeping of every job posted to it.
Mutex pool_mu;

/// One ParallelFor call that reached the pool. It lives on the caller's
/// stack, and the caller returns only after every helper that joined it
/// has left.
struct Job {
  Job(const std::function<void(size_t)>& fn, size_t size, int degree)
      : body(fn),
        n(size),
        // Chunked claiming keeps claims off the per-index hot path while
        // still load-balancing uneven bodies (walk lengths, batch sizes
        // vary).
        chunk(std::max<size_t>(1, size / (static_cast<size_t>(degree) * 8))),
        free_slots(degree - 1) {}

  /// Claims and runs chunks until no index is left or a body threw.
  void Run() {
    for (;;) {
      const size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const size_t end = std::min(n, begin + chunk);
      try {
        for (size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        MutexLock lock(pool_mu);
        if (!error) error = std::current_exception();
        next.store(n, std::memory_order_relaxed);  // abandon the rest
        return;
      }
    }
  }

  bool Open() const STEDB_REQUIRES(pool_mu) {
    return free_slots > 0 && next.load(std::memory_order_relaxed) < n;
  }

  const std::function<void(size_t)>& body;
  const size_t n;
  const size_t chunk;
  std::atomic<size_t> next{0};                ///< next unclaimed index
  int free_slots STEDB_GUARDED_BY(pool_mu);   ///< helpers that may still join
  int helpers STEDB_GUARDED_BY(pool_mu) = 0;  ///< joined and not yet left
  std::exception_ptr error STEDB_GUARDED_BY(pool_mu);
  std::condition_variable helpers_left;
};

/// The process pool. Workers start at first use and the pool grows to the
/// largest helper count any call asked for.
class Pool {
 public:
  /// Grows the pool to at least `min_workers`, posts `job`, runs its
  /// indices on the caller next to the idle workers that take its free
  /// slots, and rethrows the job's first exception.
  void Run(Job& job, size_t min_workers) {
    {
      MutexLock lock(pool_mu);
      while (workers_.size() < min_workers) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
      open_.push_back(&job);
    }
    // Workers beyond the job's free slots go back to sleep (or help
    // another open job).
    work_cv_.notify_all();
    job.Run();
    std::exception_ptr error;
    {
      UniqueMutexLock lock(pool_mu);
      open_.erase(std::find(open_.begin(), open_.end(), &job));
      while (job.helpers > 0) job.helpers_left.wait(lock.native());
      error = job.error;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void WorkerLoop() {
    UniqueMutexLock lock(pool_mu);
    for (;;) {
      Job* job = FindOpen();
      if (job == nullptr) {
        work_cv_.wait(lock.native());
        continue;
      }
      --job->free_slots;
      ++job->helpers;
      lock.Unlock();
      job->Run();
      lock.Lock();
      // Notify under the lock: once it is released the caller may return
      // and destroy the job.
      if (--job->helpers == 0) job->helpers_left.notify_one();
    }
  }

  Job* FindOpen() STEDB_REQUIRES(pool_mu) {
    for (Job* job : open_) {
      if (job->Open()) return job;
    }
    return nullptr;
  }

  std::condition_variable work_cv_;  ///< idle workers wait for a job
  std::vector<std::thread> workers_ STEDB_GUARDED_BY(pool_mu);
  std::vector<Job*> open_ STEDB_GUARDED_BY(pool_mu);  ///< posted jobs
};

/// Never destroyed: idle workers sleep on it until the process exits, so
/// no static destructor has to stop them or race a late caller.
Pool& ThePool() {
  static Pool* pool = new Pool;
  return *pool;
}

}  // namespace

int ResolveThreadCount(int requested) {
  // An explicit positive request always wins: callers that pin a count do
  // so deliberately (nested fan-outs pin their children to 1 to avoid
  // oversubscription; the equivalence tests pin 1 vs 4). STEDB_THREADS
  // fills in the default case only — which is what every config ships
  // with — so the env knob still steers bench binaries, examples and CI
  // without defeating intentional pins.
  if (requested > 0) return requested;
  const char* env = std::getenv("STEDB_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<int>(std::min(v, 256L));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(int threads, size_t n,
                 const std::function<void(size_t)>& body) {
  const int degree = n > 1 ? ResolveThreadCount(threads) : 1;
  if (degree <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ParallelMetrics& m = Metrics();
  m.fanouts.Inc();
  m.tasks.Inc(n);
  m.fanout_size.Observe(static_cast<double>(n));
  Job job(body, n, degree);
  ThePool().Run(job, std::min(static_cast<size_t>(degree - 1), kMaxWorkers));
}

}  // namespace stedb

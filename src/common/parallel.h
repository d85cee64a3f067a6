#ifndef STEDB_COMMON_PARALLEL_H_
#define STEDB_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace stedb {

/// Resolves a requested thread count to the parallelism degree to use:
///  * `requested`, when positive (explicit pins always win — nested
///    fan-outs pin their children to 1, tests pin 1 vs 4);
///  * otherwise (requested == 0, every config's default) the STEDB_THREADS
///    environment variable when set to a positive integer (capped at 256)
///    — the knob bench binaries, examples and CI use, with no per-binary
///    plumbing;
///  * otherwise std::thread::hardware_concurrency().
/// The result is always >= 1.
int ResolveThreadCount(int requested);

/// Runs body(i) for every i in [0, n) and returns once every claimed index
/// has finished. The single entry point of the parallel runtime.
///
/// Scheduling: the parallelism degree is ResolveThreadCount(threads). The
/// caller runs indices itself, and at most degree − 1 workers of one
/// lazily started process pool join it; a degree of 1, or n <= 1, runs
/// inline. The pool grows to the largest degree − 1 any call has asked for
/// (capped at 255), so an explicit pin gets real helpers whatever the
/// default resolves to. Indices are claimed in chunks of
/// max(1, n / (degree * 8)).
///
/// Safe to call concurrently and from inside a running body: a call never
/// waits for a busy pool, only for the helpers that already joined its own
/// job, so nested fan-outs cannot deadlock. If a body throws, the first
/// exception is rethrown once the claimed indices finish; the remaining
/// indices may or may not run.
///
/// Design contract: ParallelFor parallelizes *scheduling only*. Results
/// are bit-identical for any thread count as long as callers follow two
/// rules that every compute layer in this codebase obeys:
///  1. each index of a ParallelFor touches only state it owns (disjoint
///     output slots / parameter blocks), and
///  2. per-index randomness comes from a counter-based stream
///     (`Rng::Fork(stream_id)` keyed by the index), never from a shared
///     sequential generator.
/// Floating-point reductions must additionally combine partial results in
/// index order, over a *caller-fixed* number of parts, so the summation
/// tree does not change with the thread count.
///
/// A degree of 1 runs everything inline on the caller with zero pool
/// overhead, which doubles as the reference serial path: the parallel and
/// serial executions are the same algorithm by construction.
void ParallelFor(int threads, size_t n,
                 const std::function<void(size_t)>& body);

}  // namespace stedb

#endif  // STEDB_COMMON_PARALLEL_H_

#ifndef STEDB_LA_ROW_BATCH_H_
#define STEDB_LA_ROW_BATCH_H_

#include <atomic>

#include "src/common/parallel.h"
#include "src/la/kernels.h"
#include "src/la/matrix.h"

namespace stedb::la {

/// Rows below this count are copied serially: even a pooled fan-out costs
/// more than a few kilobytes of memcpy. Above it, the copy fans out via
/// ParallelFor over the process pool, and rows are disjoint output slots,
/// so the result is byte-identical at any thread count.
constexpr size_t kParallelRowBatchThreshold = 64;

/// Gathers `n` rows of `dim` doubles into `out` (n x dim, validated by the
/// caller). `source(i)` returns the i-th row's storage or nullptr when the
/// row does not exist. Returns `n` on success, else the smallest index
/// whose source was missing (the caller owns the error message — it knows
/// what the index means). `out` contents are unspecified on failure.
template <typename SourceFn>
size_t GatherRows(size_t n, size_t dim, int threads, MatrixView out,
                  const SourceFn& source) {
  // Per-row copies go through the dispatched CopyRow kernel (scalar =
  // memcpy, AVX2 = 256-bit unaligned moves); copies are bit-exact either
  // way, so the gather stays byte-identical across paths and threads.
  if (n < kParallelRowBatchThreshold || ResolveThreadCount(threads) <= 1) {
    for (size_t i = 0; i < n; ++i) {
      const double* row = source(i);
      if (row == nullptr) return i;
      CopyRow(out.RowPtr(i), row, dim);
    }
    return n;
  }
  std::atomic<size_t> first_missing(n);
  ParallelFor(threads, n, [&](size_t i) {
    const double* row = source(i);
    if (row == nullptr) {
      size_t cur = first_missing.load(std::memory_order_relaxed);
      while (i < cur &&
             !first_missing.compare_exchange_weak(cur, i,
                                                  std::memory_order_relaxed)) {
      }
      return;
    }
    CopyRow(out.RowPtr(i), row, dim);
  });
  return first_missing.load(std::memory_order_relaxed);
}

}  // namespace stedb::la

#endif  // STEDB_LA_ROW_BATCH_H_

#ifndef STEDB_LA_KERNELS_H_
#define STEDB_LA_KERNELS_H_

// Runtime-dispatched SIMD kernels for the `la::` hot loops.
//
// Every reduction-shaped primitive in this repo (Dot, Norm2, MatVec),
// every element-wise update (Axpy, Scale, ScaleAdd, the Adam step, row
// copies, rank-1 AddOuter) and the sweep of the Jacobi SVD funnel through
// the function table returned by `Kernels()`. The table is resolved
// exactly once per process:
//
//   * `STEDB_SIMD=scalar` forces the portable path;
//   * `STEDB_SIMD=avx2` forces AVX2+FMA and aborts with an actionable
//     error when the binary or the CPU cannot provide it;
//   * `STEDB_SIMD=auto` (or unset) probes the CPU (cpuid, including OS
//     XSAVE support) and picks AVX2 when available.
//
// Determinism contract: both paths instantiate the SAME blocked
// reduction order from kernels_impl.h (4 independent 4-lane accumulators
// combined in a fixed tree; fused multiply-adds are correctly rounded in
// both paths), so every kernel returns bit-identical results regardless
// of the dispatch choice, the thread count, or the machine. Tests
// enforce this — see tests/kernels_test.cc — which is what lets trained
// models, journal bytes and served vectors stay byte-stable across
// heterogeneous fleets.
//
// Adding a new ISA path (e.g. AVX-512 or NEON): write a policy with the
// primitives kernels_impl.h needs (4-lane Load/Store/partial variants,
// Add/Sub/Mul/Div/Sqrt/Abs, single-rounding Fma, the fixed ReduceTree,
// and for the Jacobi sweep the lane reverse, the ordered compares that
// yield a Mask, Select and the masked store),
// instantiate it in its own translation unit compiled with the ISA flags
// for that file only plus -ffp-contract=off (otherwise the compiler may
// fuse a Mul feeding an Add into one rounding, which the scalar policy
// does not do), surface it as another `KernelOps` table, and extend the
// dispatch below. The reduction order must not change — lane width is
// part of the contract, so wider ISAs process two 4-lane groups per
// register-pair rather than widening the accumulator.

#include <cstddef>

namespace stedb::la {

/// The implementation a kernel table was built from.
enum class SimdPath { kScalar, kAvx2 };

/// Scalars of one Adam update (Kingma & Ba); see AdamStep.
struct AdamCoeffs {
  double lr;  ///< effective learning rate (base rate x schedule scale)
  double beta1;
  double beta2;
  double eps;
  double bc1;  ///< first-moment bias correction, 1 - beta1^t
  double bc2;  ///< second-moment bias correction, 1 - beta2^t
};

/// Function table of the raw kernels. All pointers are non-null.
struct KernelOps {
  SimdPath path;
  const char* name;  ///< "scalar" or "avx2"

  double (*dot)(const double* a, const double* b, size_t n);
  double (*norm2sq)(const double* a, size_t n);
  double (*dist2)(const double* a, const double* b, size_t n);
  void (*axpy)(double s, const double* b, double* a, size_t n);
  void (*scale)(double* out, double s, const double* a, size_t n);
  void (*scale_add)(double* out, double s1, const double* a, double s2,
                    const double* b, size_t n);
  void (*copy_row)(double* dst, const double* src, size_t n);
  void (*adam)(const AdamCoeffs& c, double* params, double* m, double* v,
               const double* grad, size_t n);
  void (*matvec)(const double* m, size_t rows, size_t cols, const double* x,
                 double* out);
  void (*add_outer)(double* m, size_t rows, size_t cols, const double* x,
                    const double* y);
  double (*jacobi_sweep)(double* w, double* v, size_t m, size_t n, size_t ld,
                         double tol);
};

/// Columns JacobiSweep reads, and never writes, on each side of a row of
/// its working copies.
inline constexpr size_t kJacobiPad = 2;

/// The active table, resolved once at first use (thread-safe).
const KernelOps& Kernels();

/// The dispatch decision behind Kernels().
SimdPath ActiveSimdPath();
const char* SimdPathName(SimdPath path);
const char* ActiveSimdPathName();

// ---- Raw-pointer entry points (the hot-loop API) ----------------------
// Thin dispatching wrappers; prefer these over Kernels().xxx at call
// sites.

inline double Dot(const double* a, const double* b, size_t n) {
  return Kernels().dot(a, b, n);
}
inline double Norm2Sq(const double* a, size_t n) {
  return Kernels().norm2sq(a, n);
}
/// Squared Euclidean distance.
inline double DistSq(const double* a, const double* b, size_t n) {
  return Kernels().dist2(a, b, n);
}
/// a += s * b (fused multiply-add per element).
inline void Axpy(double s, const double* b, double* a, size_t n) {
  Kernels().axpy(s, b, a, n);
}
/// out = s * a; out == a allowed.
inline void Scale(double* out, double s, const double* a, size_t n) {
  Kernels().scale(out, s, a, n);
}
/// out = s1 * a + s2 * b; out may alias a or b.
inline void ScaleAdd(double* out, double s1, const double* a, double s2,
                     const double* b, size_t n) {
  Kernels().scale_add(out, s1, a, s2, b, n);
}
/// dst = src (the batched row-gather primitive).
inline void CopyRow(double* dst, const double* src, size_t n) {
  Kernels().copy_row(dst, src, n);
}
/// One Adam step over n elements. Per element, each operation rounding
/// once (no fused multiply-add):
///   m = beta1*m + (1-beta1)*g
///   v = beta2*v + ((1-beta2)*g)*g
///   p = p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
/// A bias correction equal to 1.0 skips its division (x / 1.0 == x).
inline void AdamStep(const AdamCoeffs& c, double* params, double* m,
                     double* v, const double* grad, size_t n) {
  Kernels().adam(c, params, m, v, grad, n);
}
/// out[r] = <row r of m, x> for a rows x cols row-major m.
inline void MatVec(const double* m, size_t rows, size_t cols, const double* x,
                   double* out) {
  Kernels().matvec(m, rows, cols, x, out);
}
/// m += x y^T for a rows x cols row-major m, i.e. m[r][k] += x[r] * y[k]
/// with the product and the sum rounded separately (not fused). Rows with
/// x[r] == 0 are left untouched.
inline void AddOuter(double* m, size_t rows, size_t cols, const double* x,
                     const double* y) {
  Kernels().add_outer(m, rows, cols, x, y);
}
/// One sweep of one-sided Jacobi (Hestenes) over the n columns of an
/// m x n W, each pair's rotation applied to W and accumulated into the
/// n x n V. Both are element-major: element i of column j is
/// w[i * ld + j] (v[i * ld + j]), and every row must be readable from
/// column -kJacobiPad to n - 1 + kJacobiPad, so ld >= n + 2 * kJacobiPad.
/// Returns the sweep's off: the largest |gamma| / sqrt(alpha * beta) over
/// the pairs whose columns are both nonzero. A pair rotates unless
/// |gamma| <= tol * sqrt(alpha * beta). W, V and off are those of the
/// cyclic-by-rows loop over p < q, bit for bit (see JacobiSweepImpl).
inline double JacobiSweep(double* w, double* v, size_t m, size_t n, size_t ld,
                          double tol) {
  return Kernels().jacobi_sweep(w, v, m, n, ld, tol);
}

namespace internal {

/// The portable reference table (always available).
const KernelOps& ScalarOps();
/// The AVX2+FMA table, or nullptr when this binary was built without the
/// AVX2 translation unit (non-x86 target or compiler without -mavx2).
/// Availability of the table says nothing about the CPU — pair with
/// CpuSupportsAvx2Fma() before executing it.
const KernelOps* Avx2Ops();
/// cpuid probe: AVX2 + FMA present and OS-enabled.
bool CpuSupportsAvx2Fma();
/// The table a given path would use; FATALs when the path is kAvx2 and
/// the binary lacks the AVX2 TU. For tests and benchmarks.
const KernelOps& OpsFor(SimdPath path);
/// Parses a STEDB_SIMD value; FATALs on anything outside
/// {"", "auto", "scalar", "avx2"}. Returns true and sets `*path` when the
/// value forces a path.
bool ParseSimdOverride(const char* value, SimdPath* path);
/// Swaps the active table (test-only; NOT thread-safe against concurrent
/// kernel calls — call between training runs). FATALs when forcing kAvx2
/// on a machine that cannot execute it.
void ForceSimdPathForTest(SimdPath path);

}  // namespace internal
}  // namespace stedb::la

#endif  // STEDB_LA_KERNELS_H_

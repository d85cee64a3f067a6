// AVX2+FMA instantiation of the shared kernel templates. This file — and
// only this file — is compiled with -mavx2 -mfma (per-file options in
// src/CMakeLists.txt; there is no global -march; -ffp-contract=off keeps
// every Mul feeding an Add two roundings, as in the scalar policy), so
// nothing here may be referenced from another TU except through the
// Avx2Ops() table, and the table is only executed after the runtime
// cpuid check in kernels.cc.
// When the toolchain cannot target AVX2 (non-x86, or the flags are
// unavailable), the #else branch below compiles this TU down to a
// nullptr table and dispatch never offers the path.

#include "src/la/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstring>

#include "src/la/kernels_impl.h"

namespace stedb::la {
namespace {

/// 4-lane policy over __m256d. Unaligned loads/stores throughout: the
/// repo's buffers are std::vector<double> allocations with no 32-byte
/// guarantee, and on every AVX2-era core vmovupd on aligned data costs
/// the same as vmovapd. Partial groups use maskload/maskstore, whose
/// untouched lanes read as zero / leave memory unwritten — exactly the
/// zero-padding the shared reduction contract specifies.
struct Avx2Policy {
  using Vec = __m256d;

  static Vec Zero() { return _mm256_setzero_pd(); }
  static Vec Broadcast(double x) { return _mm256_set1_pd(x); }
  static Vec Load(const double* p) { return _mm256_loadu_pd(p); }
  static Vec LoadPartial(const double* p, size_t r) {
    return _mm256_maskload_pd(p, TailMask(r));
  }
  static void Store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static void StorePartial(double* p, Vec v, size_t r) {
    _mm256_maskstore_pd(p, TailMask(r), v);
  }
  static Vec Add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  /// vdivpd and vsqrtpd round correctly per lane, like divsd and sqrtsd.
  static Vec Div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
  static Vec Sqrt(Vec a) { return _mm256_sqrt_pd(a); }
  static Vec Fma(Vec a, Vec b, Vec acc) {
    return _mm256_fmadd_pd(a, b, acc);
  }
  /// (v0 + v2) + (v1 + v3): add the low and high 128-bit halves, then the
  /// resulting pair — the tree the scalar policy mirrors.
  static double ReduceTree(Vec v) {
    const __m128d lo = _mm256_castpd256_pd128(v);       // [v0, v1]
    const __m128d hi = _mm256_extractf128_pd(v, 1);     // [v2, v3]
    const __m128d pair = _mm_add_pd(lo, hi);            // [v0+v2, v1+v3]
    const __m128d swap = _mm_unpackhi_pd(pair, pair);   // [v1+v3, v1+v3]
    return _mm_cvtsd_f64(_mm_add_sd(pair, swap));
  }

  // Lane masks for the Jacobi sweep: all-ones lanes where a compare held.
  // The ordered, quiet predicates are false on a NaN operand, like the
  // C++ operators of the scalar policy.
  using Mask = __m256d;

  static Vec Abs(Vec a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
  static Vec Reverse(Vec a) { return _mm256_permute4x64_pd(a, 0x1B); }
  static Mask CmpEq(Vec a, Vec b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static Mask CmpLt(Vec a, Vec b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static Mask CmpLe(Vec a, Vec b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static Mask MaskAnd(Mask a, Mask b) { return _mm256_and_pd(a, b); }
  /// a and not b.
  static Mask MaskAndNot(Mask a, Mask b) { return _mm256_andnot_pd(b, a); }
  /// Lanes 0 .. r - 1 set; r in [1, 4].
  static Mask FirstLanes(size_t r) { return _mm256_castsi256_pd(TailMask(r)); }
  static Mask ReverseMask(Mask a) { return _mm256_permute4x64_pd(a, 0x1B); }
  static bool AnyLane(Mask a) { return _mm256_movemask_pd(a) != 0; }
  /// m ? a : b, lane by lane.
  static Vec Select(Mask m, Vec a, Vec b) { return _mm256_blendv_pd(b, a, m); }
  /// Stores the lanes of m; the others leave memory untouched.
  static void MaskStore(double* p, Mask m, Vec v) {
    _mm256_maskstore_pd(p, _mm256_castpd_si256(m), v);
  }

 private:
  /// Lane l participates iff l < r (sign bit set); r in [1, 4].
  static __m256i TailMask(size_t r) {
    const __m256i lanes = _mm256_setr_epi64x(0, 1, 2, 3);
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(r)),
                              lanes);
  }
};

double Avx2Dot(const double* a, const double* b, size_t n) {
  return internal::DotImpl<Avx2Policy>(a, b, n);
}
double Avx2Norm2Sq(const double* a, size_t n) {
  return internal::Norm2SqImpl<Avx2Policy>(a, n);
}
double Avx2Dist2(const double* a, const double* b, size_t n) {
  return internal::DistSqImpl<Avx2Policy>(a, b, n);
}
void Avx2Axpy(double s, const double* b, double* a, size_t n) {
  internal::AxpyImpl<Avx2Policy>(s, b, a, n);
}
void Avx2Scale(double* out, double s, const double* a, size_t n) {
  internal::ScaleImpl<Avx2Policy>(out, s, a, n);
}
void Avx2ScaleAdd(double* out, double s1, const double* a, double s2,
                  const double* b, size_t n) {
  internal::ScaleAddImpl<Avx2Policy>(out, s1, a, s2, b, n);
}
void Avx2Adam(const AdamCoeffs& c, double* params, double* m, double* v,
              const double* grad, size_t n) {
  internal::AdamImpl<Avx2Policy>(c, params, m, v, grad, n);
}
void Avx2CopyRow(double* dst, const double* src, size_t n) {
  // glibc memcpy (ERMS / wide vector moves) beats a hand-rolled
  // load/store loop from ~1 KiB rows up, and a copy is bit-exact however
  // it is performed — so both tables share the same primitive. The
  // n == 0 guard mirrors ScalarCopyRow: empty vectors hand out null
  // data() pointers, and memcpy's arguments are declared nonnull.
  if (n == 0) return;
  std::memcpy(dst, src, n * sizeof(double));
}
void Avx2MatVec(const double* m, size_t rows, size_t cols, const double* x,
                double* out) {
  internal::MatVecImpl<Avx2Policy>(m, rows, cols, x, out);
}
void Avx2AddOuter(double* m, size_t rows, size_t cols, const double* x,
                  const double* y) {
  internal::AddOuterImpl<Avx2Policy>(m, rows, cols, x, y);
}
double Avx2JacobiSweep(double* w, double* v, size_t m, size_t n, size_t ld,
                       double tol) {
  return internal::JacobiSweepImpl<Avx2Policy>(w, v, m, n, ld, tol);
}

constexpr KernelOps kAvx2Ops = {
    SimdPath::kAvx2,
    "avx2",
    &Avx2Dot,
    &Avx2Norm2Sq,
    &Avx2Dist2,
    &Avx2Axpy,
    &Avx2Scale,
    &Avx2ScaleAdd,
    &Avx2CopyRow,
    &Avx2Adam,
    &Avx2MatVec,
    &Avx2AddOuter,
    &Avx2JacobiSweep,
};

}  // namespace

namespace internal {
const KernelOps* Avx2Ops() { return &kAvx2Ops; }
}  // namespace internal

}  // namespace stedb::la

#else  // !(__AVX2__ && __FMA__)

namespace stedb::la::internal {
const KernelOps* Avx2Ops() { return nullptr; }
}  // namespace stedb::la::internal

#endif

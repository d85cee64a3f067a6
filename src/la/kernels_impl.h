#ifndef STEDB_LA_KERNELS_IMPL_H_
#define STEDB_LA_KERNELS_IMPL_H_

// The ONE definition of every kernel's operation order, shared by the
// scalar and AVX2 translation units. Each kernel is a template over a
// lane *policy* (4-wide vector type + Load/Store/Fma/... primitives), so
// the two paths cannot drift apart structurally: they are the same code,
// instantiated with different 4-lane arithmetic. Bit-identity across
// paths then reduces to the policies' primitives being bit-identical per
// lane — which they are, because every primitive is a single IEEE-754
// double operation (add/sub/mul/div/sqrt, all correctly rounded) or a
// correctly-rounded fused multiply-add (std::fma in the scalar policy,
// vfmadd in the AVX2 one; both round exactly once by specification).
// A Mul feeding an Add must stay two roundings, so the kernel TUs are
// compiled with -ffp-contract=off (src/CMakeLists.txt): GCC otherwise
// fuses `_mm256_add_pd(_mm256_mul_pd(a, b), c)` into one vfmadd.
//
// Reduction contract (Dot / Norm2Sq / DistSq): element i of an n-element
// reduction is accumulated into lane (i % 4) of accumulator ((i / 4) % 4).
// The main loop consumes 16 elements per iteration (4 independent
// fma-chains — also what keeps the AVX2 path out of latency stalls); the
// tail continues the same accumulator pattern in 4-element groups, and the
// final < 4 elements enter as a zero-padded partial group (fma(0, 0, acc)
// == acc exactly, so padding lanes are no-ops down to the bit). The four
// accumulators combine in the fixed tree
//     v = (acc0 + acc1) + (acc2 + acc3)        (element-wise)
//     result = (v[0] + v[2]) + (v[1] + v[3])   (horizontal)
// regardless of n, path, or machine.
//
// Element-wise kernels (Axpy / Scale / ScaleAdd / Adam / CopyRow /
// AddOuter) have no cross-element order at all; they only need each
// element's op sequence to match, which the shared template guarantees.
// The Jacobi sweep runs four column pairs per vector, one pair per lane;
// each lane's reductions are sequential over the rows, exactly the scalar
// loop's (see JacobiSweepImpl).
//
// IMPORTANT for maintainers: never instantiate a policy outside its own
// translation unit. kernels.cc instantiates ScalarPolicy only and
// kernels_avx2.cc Avx2Policy only, so no AVX2 instruction can leak into a
// TU (or linker-chosen COMDAT) that must run on non-AVX2 hardware.

#include <algorithm>
#include <cstddef>

#include "src/la/kernels.h"

namespace stedb::la::internal {

/// Elements consumed per main-loop iteration (4 accumulators x 4 lanes).
inline constexpr size_t kBlockWidth = 16;
/// Lanes per accumulator (one AVX2 __m256d worth of doubles).
inline constexpr size_t kLaneWidth = 4;

// ---- Reductions -------------------------------------------------------

/// The four accumulators of one blocked reduction.
template <typename P>
struct Accumulators {
  typename P::Vec a0 = P::Zero(), a1 = P::Zero(), a2 = P::Zero(),
                  a3 = P::Zero();

  /// a0 <- a1 <- a2 <- a3 <- a0: brings the next accumulator of the group
  /// pattern into a0. Four rotations restore the original order.
  void Rotate() {
    const typename P::Vec t = a0;
    a0 = a1;
    a1 = a2;
    a2 = a3;
    a3 = t;
  }

  /// The fixed combination tree of the reduction contract.
  double Reduce() const {
    return P::ReduceTree(P::Add(P::Add(a0, a1), P::Add(a2, a3)));
  }
};

/// Reduces R rows of `m` (consecutive rows `stride` doubles apart, each n
/// long) against one vector x, side by side, into out[0..R). Row k's
/// element i enters its own accumulators where the reduction contract puts
/// it: `step(acc, row group, x group)` folds one 4-element group into one
/// accumulator. Running rows together only interleaves independent chains;
/// no row's operations or their order change.
///
/// No accumulator is ever picked by a run-time index — an index (such as
/// an array of accumulator pointers for the tail) forces all four out of
/// registers onto the stack. Instead the tail walks four slots, folding
/// the next full or zero-padded partial group into a0 and rotating after
/// each slot, so the groups after the main loop land in a0, a1, a2, a3 in
/// turn and the fourth rotation restores the order the tree expects.
/// Always inlined, so a dot inside a row loop costs no call.
template <typename P, size_t R, typename Step>
[[gnu::always_inline]] inline void ReduceRows(const double* m, size_t stride,
                                              const double* x, size_t n,
                                              const Step& step, double* out) {
  using Vec = typename P::Vec;
  Accumulators<P> acc[R];
  size_t i = 0;
  for (; i + kBlockWidth <= n; i += kBlockWidth) {
    const Vec x0 = P::Load(x + i);
    const Vec x1 = P::Load(x + i + 4);
    const Vec x2 = P::Load(x + i + 8);
    const Vec x3 = P::Load(x + i + 12);
    for (size_t k = 0; k < R; ++k) {
      const double* row = m + k * stride + i;
      acc[k].a0 = step(acc[k].a0, P::Load(row), x0);
      acc[k].a1 = step(acc[k].a1, P::Load(row + 4), x1);
      acc[k].a2 = step(acc[k].a2, P::Load(row + 8), x2);
      acc[k].a3 = step(acc[k].a3, P::Load(row + 12), x3);
    }
  }
  // i is a multiple of 16 here: at most three full groups and one partial
  // group remain, and the group pattern continues at a0.
  for (size_t slot = 0; slot < kLaneWidth; ++slot) {
    if (i + kLaneWidth <= n) {
      const Vec xg = P::Load(x + i);
      for (size_t k = 0; k < R; ++k) {
        acc[k].a0 = step(acc[k].a0, P::Load(m + k * stride + i), xg);
      }
      i += kLaneWidth;
    } else if (i < n) {
      const size_t r = n - i;
      const Vec xg = P::LoadPartial(x + i, r);
      for (size_t k = 0; k < R; ++k) {
        acc[k].a0 =
            step(acc[k].a0, P::LoadPartial(m + k * stride + i, r), xg);
      }
      i = n;
    }
    for (size_t k = 0; k < R; ++k) acc[k].Rotate();
  }
  for (size_t k = 0; k < R; ++k) out[k] = acc[k].Reduce();
}

/// One fma per group: acc + a * b.
template <typename P>
struct FmaStep {
  typename P::Vec operator()(typename P::Vec acc, typename P::Vec a,
                             typename P::Vec b) const {
    return P::Fma(a, b, acc);
  }
};

/// sum_i a[i] * b[i] in the blocked order above.
template <typename P>
[[gnu::always_inline]] inline double DotImpl(const double* a,
                                             const double* b, size_t n) {
  double out;
  ReduceRows<P, 1>(a, 0, b, n, FmaStep<P>(), &out);
  return out;
}

/// sum_i a[i]^2, same order as DotImpl.
template <typename P>
double Norm2SqImpl(const double* a, size_t n) {
  return DotImpl<P>(a, a, n);
}

/// sum_i (a[i] - b[i])^2, same accumulation order; the difference is one
/// extra IEEE subtraction per element, identical in both policies.
template <typename P>
double DistSqImpl(const double* a, const double* b, size_t n) {
  using Vec = typename P::Vec;
  double out;
  ReduceRows<P, 1>(
      a, 0, b, n,
      [](Vec acc, Vec x, Vec y) {
        const Vec d = P::Sub(x, y);
        return P::Fma(d, d, acc);
      },
      &out);
  return out;
}

// ---- Element-wise updates --------------------------------------------

/// a[i] = fma(s, b[i], a[i]) — one rounding per element.
template <typename P>
void AxpyImpl(double s, const double* b, double* a, size_t n) {
  const typename P::Vec vs = P::Broadcast(s);
  size_t i = 0;
  for (; i + kBlockWidth <= n; i += kBlockWidth) {
    P::Store(a + i, P::Fma(vs, P::Load(b + i), P::Load(a + i)));
    P::Store(a + i + 4, P::Fma(vs, P::Load(b + i + 4), P::Load(a + i + 4)));
    P::Store(a + i + 8, P::Fma(vs, P::Load(b + i + 8), P::Load(a + i + 8)));
    P::Store(a + i + 12,
             P::Fma(vs, P::Load(b + i + 12), P::Load(a + i + 12)));
  }
  for (; i + kLaneWidth <= n; i += kLaneWidth) {
    P::Store(a + i, P::Fma(vs, P::Load(b + i), P::Load(a + i)));
  }
  if (const size_t r = n - i) {
    P::StorePartial(
        a + i, P::Fma(vs, P::LoadPartial(b + i, r), P::LoadPartial(a + i, r)),
        r);
  }
}

/// out[i] = s * a[i]. Safe for out == a (pure element-wise).
template <typename P>
void ScaleImpl(double* out, double s, const double* a, size_t n) {
  const typename P::Vec vs = P::Broadcast(s);
  size_t i = 0;
  for (; i + kLaneWidth <= n; i += kLaneWidth) {
    P::Store(out + i, P::Mul(vs, P::Load(a + i)));
  }
  if (const size_t r = n - i) {
    P::StorePartial(out + i, P::Mul(vs, P::LoadPartial(a + i, r)), r);
  }
}

/// out[i] = fma(s1, a[i], s2 * b[i]) — the s2 product rounds, then one
/// fused rounding. Safe for out aliasing a or b.
template <typename P>
void ScaleAddImpl(double* out, double s1, const double* a, double s2,
                  const double* b, size_t n) {
  const typename P::Vec v1 = P::Broadcast(s1);
  const typename P::Vec v2 = P::Broadcast(s2);
  size_t i = 0;
  for (; i + kLaneWidth <= n; i += kLaneWidth) {
    P::Store(out + i,
             P::Fma(v1, P::Load(a + i), P::Mul(v2, P::Load(b + i))));
  }
  if (const size_t r = n - i) {
    P::StorePartial(out + i,
                    P::Fma(v1, P::LoadPartial(a + i, r),
                           P::Mul(v2, P::LoadPartial(b + i, r))),
                    r);
  }
}

/// One Adam step with both bias-correction divisions fixed at compile
/// time. Trained models' bytes depend on these operations and their order,
/// each rounding once (tests/optimizer_test.cc and forward_train_test.cc
/// pin them), so neither may change.
template <typename P, bool kDivM, bool kDivV>
void AdamLoop(const AdamCoeffs& c, double* params, double* m, double* v,
              const double* grad, size_t n) {
  using Vec = typename P::Vec;
  const Vec b1 = P::Broadcast(c.beta1);
  const Vec b2 = P::Broadcast(c.beta2);
  const Vec one_b1 = P::Broadcast(1.0 - c.beta1);
  const Vec one_b2 = P::Broadcast(1.0 - c.beta2);
  const Vec lr = P::Broadcast(c.lr);
  const Vec eps = P::Broadcast(c.eps);
  const Vec bc1 = P::Broadcast(c.bc1);
  const Vec bc2 = P::Broadcast(c.bc2);
  auto update = [&](Vec& pv, Vec& mv, Vec& vv, Vec g) {
    mv = P::Add(P::Mul(b1, mv), P::Mul(one_b1, g));
    vv = P::Add(P::Mul(b2, vv), P::Mul(P::Mul(one_b2, g), g));
    const Vec mhat = kDivM ? P::Div(mv, bc1) : mv;
    const Vec vhat = kDivV ? P::Div(vv, bc2) : vv;
    pv = P::Sub(pv, P::Div(P::Mul(lr, mhat), P::Add(P::Sqrt(vhat), eps)));
  };
  size_t i = 0;
  for (; i + kLaneWidth <= n; i += kLaneWidth) {
    Vec pv = P::Load(params + i);
    Vec mv = P::Load(m + i);
    Vec vv = P::Load(v + i);
    update(pv, mv, vv, P::Load(grad + i));
    P::Store(m + i, mv);
    P::Store(v + i, vv);
    P::Store(params + i, pv);
  }
  if (const size_t r = n - i) {
    // Padding lanes compute on zeros (v = 0, so the denominator is eps)
    // and are never stored.
    Vec pv = P::LoadPartial(params + i, r);
    Vec mv = P::LoadPartial(m + i, r);
    Vec vv = P::LoadPartial(v + i, r);
    update(pv, mv, vv, P::LoadPartial(grad + i, r));
    P::StorePartial(m + i, mv, r);
    P::StorePartial(v + i, vv, r);
    P::StorePartial(params + i, pv, r);
  }
}

/// The Adam kernel behind la::AdamStep. A bias correction that has
/// reached exactly 1.0 (1 - 0.9^t does after 356 steps, 1 - 0.999^t after
/// about 37.4k) skips its division — exact, since x / 1.0 == x for every
/// double — and the variant is picked once per call, outside the loop.
template <typename P>
void AdamImpl(const AdamCoeffs& c, double* params, double* m, double* v,
              const double* grad, size_t n) {
  const bool div_m = c.bc1 != 1.0;
  const bool div_v = c.bc2 != 1.0;
  if (div_m && div_v) {
    AdamLoop<P, true, true>(c, params, m, v, grad, n);
  } else if (div_m) {
    AdamLoop<P, true, false>(c, params, m, v, grad, n);
  } else if (div_v) {
    AdamLoop<P, false, true>(c, params, m, v, grad, n);
  } else {
    AdamLoop<P, false, false>(c, params, m, v, grad, n);
  }
}

/// dst[i] = src[i]; the row-gather primitive. Bit-identity is trivial.
template <typename P>
void CopyRowImpl(double* dst, const double* src, size_t n) {
  size_t i = 0;
  for (; i + kBlockWidth <= n; i += kBlockWidth) {
    P::Store(dst + i, P::Load(src + i));
    P::Store(dst + i + 4, P::Load(src + i + 4));
    P::Store(dst + i + 8, P::Load(src + i + 8));
    P::Store(dst + i + 12, P::Load(src + i + 12));
  }
  for (; i + kLaneWidth <= n; i += kLaneWidth) {
    P::Store(dst + i, P::Load(src + i));
  }
  if (const size_t r = n - i) {
    P::StorePartial(dst + i, P::LoadPartial(src + i, r), r);
  }
}

/// m += x y^T for a rows x cols row-major m: m[r][k] += x[r] * y[k],
/// rows in order. The product and the sum round separately — deliberately
/// unfused, so the kernel reproduces the plain loop `row[k] += xr * y[k]`
/// on a baseline x86-64 build (the AVX2 TU's -ffp-contract=off keeps its
/// vmulpd and vaddpd apart). A row whose x[r] is zero is skipped and keeps
/// its bytes: adding the +0.0 product to a -0.0 entry would not.
template <typename P>
void AddOuterImpl(double* m, size_t rows, size_t cols, const double* x,
                  const double* y) {
  using Vec = typename P::Vec;
  for (size_t r = 0; r < rows; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const Vec vx = P::Broadcast(xr);
    double* row = m + r * cols;
    auto update = [&](size_t i) {
      P::Store(row + i, P::Add(P::Load(row + i), P::Mul(vx, P::Load(y + i))));
    };
    size_t i = 0;
    for (; i + kBlockWidth <= cols; i += kBlockWidth) {
      update(i);
      update(i + 4);
      update(i + 8);
      update(i + 12);
    }
    for (; i + kLaneWidth <= cols; i += kLaneWidth) update(i);
    if (const size_t rem = cols - i) {
      P::StorePartial(row + i,
                      P::Add(P::LoadPartial(row + i, rem),
                             P::Mul(vx, P::LoadPartial(y + i, rem))),
                      rem);
    }
  }
}

// ---- Composites (built on the reduction contract) ---------------------

/// Rows the matrix kernels reduce side by side: three rows' twelve
/// accumulators plus one shared group of x fill the sixteen AVX2
/// registers, and each x group is loaded once for all three rows.
inline constexpr size_t kMatVecRows = 3;

/// out[r] = Dot(row r of m, x): each row in the blocked order of a lone
/// dot, kMatVecRows rows at a time, then the last rows one by one.
template <typename P>
void MatVecImpl(const double* m, size_t rows, size_t cols, const double* x,
                double* out) {
  size_t r = 0;
  for (; r + kMatVecRows <= rows; r += kMatVecRows) {
    ReduceRows<P, kMatVecRows>(m + r * cols, cols, x, cols, FmaStep<P>(),
                               out + r);
  }
  for (; r < rows; ++r) out[r] = DotImpl<P>(m + r * cols, x, cols);
}

// ---- One-sided Jacobi sweep ---------------------------------------------

/// Rotates the columns of one lane group through the rows of a working
/// copy: lane l turns columns p + l and q - l into c wp - s wq and
/// s wp + c wq, each product and each sum rounded on its own. Only the
/// lanes of `mask` are stored. A partial group's p and q loads can
/// overlap, a column that one lane owns showing up in an idle lane of the
/// other load; the masked stores leave it to its owner.
template <typename P>
[[gnu::always_inline]] inline void RotateLanes(double* x, size_t rows,
                                               size_t ld, size_t p, size_t q,
                                               typename P::Vec c,
                                               typename P::Vec s,
                                               typename P::Mask mask) {
  using Vec = typename P::Vec;
  const typename P::Mask q_mask = P::ReverseMask(mask);
  for (size_t i = 0; i < rows; ++i) {
    double* xp_at = x + i * ld + p;
    double* xq_at = x + i * ld + q - (kLaneWidth - 1);
    const Vec xp = P::Load(xp_at);
    const Vec xq = P::Reverse(P::Load(xq_at));
    P::MaskStore(xp_at, mask, P::Sub(P::Mul(c, xp), P::Mul(s, xq)));
    P::MaskStore(xq_at, q_mask,
                 P::Reverse(P::Add(P::Mul(s, xp), P::Mul(c, xq))));
  }
}

/// One sweep of the cyclic-by-rows one-sided Jacobi over p < q, with the
/// pairs run in wavefront order: pair (p, q) at step p + q, the pairs of a
/// step four to a vector. Lane l of a group holds pair (p + l, q - l):
/// the p columns are one load, their descending partners one load and a
/// lane reverse. The bytes are those of the p-then-q loop because
///   * column j takes part in (0, j), ..., (j - 1, j), (j, j + 1), ...,
///     (j, n - 1) in that order, and those pairs fall on steps j, ...,
///     2j - 1, 2j + 1, ..., j + n - 1, which strictly increase: every
///     column meets the same rotations in the same order;
///   * two pairs of one step never share a column (p + q = p' + q' with
///     p != p' makes them disjoint), so their order within a step is free;
///   * each lane performs the loop's IEEE operations on its two columns:
///     alpha, beta and gamma summed over the rows in order, each product
///     and sum rounded separately (no fma), then the loop's tests;
///   * off is a maximum, which no order changes (no ratio is -0.0, and a
///     NaN ratio never enters it).
template <typename P>
double JacobiSweepImpl(double* w, double* v, size_t m, size_t n, size_t ld,
                       double tol) {
  using Vec = typename P::Vec;
  using Mask = typename P::Mask;
  const Vec zero = P::Zero();
  const Vec one = P::Broadcast(1.0);
  const Vec vtol = P::Broadcast(tol);
  Vec off = zero;
  // Step T pairs p with T - p for p < T - p <= n - 1; T runs 1 .. 2n - 3.
  for (size_t step = 1; step + 3 <= 2 * n; ++step) {
    const size_t p_end = (step + 1) / 2;
    for (size_t p = step < n ? 0 : step - (n - 1); p < p_end;
         p += kLaneWidth) {
      const size_t q = step - p;
      const Mask group = P::FirstLanes(std::min(kLaneWidth, p_end - p));
      Vec alpha = zero, beta = zero, gamma = zero;
      for (size_t i = 0; i < m; ++i) {
        const double* row = w + i * ld;
        const Vec wp = P::Load(row + p);
        const Vec wq = P::Reverse(P::Load(row + q - (kLaneWidth - 1)));
        alpha = P::Add(alpha, P::Mul(wp, wp));
        beta = P::Add(beta, P::Mul(wq, wq));
        gamma = P::Add(gamma, P::Mul(wp, wq));
      }
      // The loop's tests, lane by lane: a zero column skips the pair; off
      // takes the ratio as std::max(off, ratio) does, so a NaN ratio
      // leaves it; the pair rotates unless |gamma| <= tol * sqrt(alpha
      // beta), so a NaN comparison rotates.
      const Mask live = P::MaskAndNot(
          P::MaskAndNot(group, P::CmpEq(alpha, zero)), P::CmpEq(beta, zero));
      const Vec root = P::Sqrt(P::Mul(alpha, beta));
      const Vec abs_gamma = P::Abs(gamma);
      const Vec ratio = P::Div(abs_gamma, root);
      off = P::Select(P::MaskAnd(live, P::CmpLt(off, ratio)), ratio, off);
      const Mask rotate =
          P::MaskAndNot(live, P::CmpLe(abs_gamma, P::Mul(vtol, root)));
      if (!P::AnyLane(rotate)) continue;
      // The rotation that zeroes the (p, q) entry of W^T W; zeta >= 0
      // fails for a NaN zeta, which takes the -1.
      const Vec zeta =
          P::Div(P::Sub(beta, alpha), P::Mul(P::Broadcast(2.0), gamma));
      const Vec sign = P::Select(P::CmpLe(zero, zeta), one, P::Broadcast(-1.0));
      const Vec t = P::Div(
          sign, P::Add(P::Abs(zeta), P::Sqrt(P::Add(one, P::Mul(zeta, zeta)))));
      const Vec c = P::Div(one, P::Sqrt(P::Add(one, P::Mul(t, t))));
      const Vec s = P::Mul(c, t);
      RotateLanes<P>(w, m, ld, p, q, c, s, rotate);
      RotateLanes<P>(v, n, ld, p, q, c, s, rotate);
    }
  }
  double lanes[kLaneWidth];
  P::Store(lanes, off);
  double out = 0.0;
  for (const double lane : lanes) out = std::max(out, lane);
  return out;
}

}  // namespace stedb::la::internal

#endif  // STEDB_LA_KERNELS_IMPL_H_

#include "src/la/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/common/logging.h"
#include "src/la/kernels_impl.h"

namespace stedb::la {
namespace {

/// Portable 4-lane policy: a plain struct of doubles with every primitive
/// spelled as the single IEEE-754 operation the AVX2 policy performs per
/// lane. std::fma is correctly rounded (one rounding), exactly like
/// vfmadd231pd, and so are division and std::sqrt (vdivpd, vsqrtpd), so
/// the two policies agree bit-for-bit. The 4x4
/// accumulator structure is also what lets the autovectorizer profitably
/// vectorize this path within the baseline ISA without being *allowed* to
/// change results (no -ffast-math anywhere in this repo).
struct ScalarPolicy {
  struct Vec {
    double lane[internal::kLaneWidth];
  };

  static Vec Zero() { return Vec{{0.0, 0.0, 0.0, 0.0}}; }
  static Vec Broadcast(double x) { return Vec{{x, x, x, x}}; }
  static Vec Load(const double* p) { return Vec{{p[0], p[1], p[2], p[3]}}; }
  static Vec LoadPartial(const double* p, size_t r) {
    Vec v = Zero();
    for (size_t l = 0; l < r; ++l) v.lane[l] = p[l];
    return v;
  }
  static void Store(double* p, Vec v) {
    for (size_t l = 0; l < internal::kLaneWidth; ++l) p[l] = v.lane[l];
  }
  static void StorePartial(double* p, Vec v, size_t r) {
    for (size_t l = 0; l < r; ++l) p[l] = v.lane[l];
  }
  static Vec Add(Vec a, Vec b) {
    Vec v;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      v.lane[l] = a.lane[l] + b.lane[l];
    }
    return v;
  }
  static Vec Sub(Vec a, Vec b) {
    Vec v;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      v.lane[l] = a.lane[l] - b.lane[l];
    }
    return v;
  }
  static Vec Mul(Vec a, Vec b) {
    Vec v;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      v.lane[l] = a.lane[l] * b.lane[l];
    }
    return v;
  }
  static Vec Div(Vec a, Vec b) {
    Vec v;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      v.lane[l] = a.lane[l] / b.lane[l];
    }
    return v;
  }
  static Vec Sqrt(Vec a) {
    Vec v;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      v.lane[l] = std::sqrt(a.lane[l]);
    }
    return v;
  }
  static Vec Fma(Vec a, Vec b, Vec acc) {
    Vec v;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      v.lane[l] = std::fma(a.lane[l], b.lane[l], acc.lane[l]);
    }
    return v;
  }
  /// (v0 + v2) + (v1 + v3) — mirrors the AVX2 low/high-128 add followed
  /// by the horizontal pair add.
  static double ReduceTree(Vec v) {
    return (v.lane[0] + v.lane[2]) + (v.lane[1] + v.lane[3]);
  }

  // Lane masks for the Jacobi sweep. The compares are the C++ operators,
  // false on a NaN operand like the AVX2 policy's ordered predicates.
  struct Mask {
    bool lane[internal::kLaneWidth];
  };

  static Vec Abs(Vec a) {
    Vec v;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      v.lane[l] = std::fabs(a.lane[l]);
    }
    return v;
  }
  static Vec Reverse(Vec a) {
    return Vec{{a.lane[3], a.lane[2], a.lane[1], a.lane[0]}};
  }
  static Mask CmpEq(Vec a, Vec b) {
    Mask m;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      m.lane[l] = a.lane[l] == b.lane[l];
    }
    return m;
  }
  static Mask CmpLt(Vec a, Vec b) {
    Mask m;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      m.lane[l] = a.lane[l] < b.lane[l];
    }
    return m;
  }
  static Mask CmpLe(Vec a, Vec b) {
    Mask m;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      m.lane[l] = a.lane[l] <= b.lane[l];
    }
    return m;
  }
  static Mask MaskAnd(Mask a, Mask b) {
    Mask m;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      m.lane[l] = a.lane[l] && b.lane[l];
    }
    return m;
  }
  /// a and not b.
  static Mask MaskAndNot(Mask a, Mask b) {
    Mask m;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      m.lane[l] = a.lane[l] && !b.lane[l];
    }
    return m;
  }
  /// Lanes 0 .. r - 1 set; r in [1, 4].
  static Mask FirstLanes(size_t r) {
    Mask m;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) m.lane[l] = l < r;
    return m;
  }
  static Mask ReverseMask(Mask a) {
    return Mask{{a.lane[3], a.lane[2], a.lane[1], a.lane[0]}};
  }
  static bool AnyLane(Mask a) {
    return a.lane[0] || a.lane[1] || a.lane[2] || a.lane[3];
  }
  /// m ? a : b, lane by lane.
  static Vec Select(Mask m, Vec a, Vec b) {
    Vec v;
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      v.lane[l] = m.lane[l] ? a.lane[l] : b.lane[l];
    }
    return v;
  }
  /// Stores the lanes of m; the others leave memory untouched.
  static void MaskStore(double* p, Mask m, Vec v) {
    for (size_t l = 0; l < internal::kLaneWidth; ++l) {
      if (m.lane[l]) p[l] = v.lane[l];
    }
  }
};

double ScalarDot(const double* a, const double* b, size_t n) {
  return internal::DotImpl<ScalarPolicy>(a, b, n);
}
double ScalarNorm2Sq(const double* a, size_t n) {
  return internal::Norm2SqImpl<ScalarPolicy>(a, n);
}
double ScalarDist2(const double* a, const double* b, size_t n) {
  return internal::DistSqImpl<ScalarPolicy>(a, b, n);
}
void ScalarAxpy(double s, const double* b, double* a, size_t n) {
  internal::AxpyImpl<ScalarPolicy>(s, b, a, n);
}
void ScalarScale(double* out, double s, const double* a, size_t n) {
  internal::ScaleImpl<ScalarPolicy>(out, s, a, n);
}
void ScalarScaleAdd(double* out, double s1, const double* a, double s2,
                    const double* b, size_t n) {
  internal::ScaleAddImpl<ScalarPolicy>(out, s1, a, s2, b, n);
}
void ScalarAdam(const AdamCoeffs& c, double* params, double* m, double* v,
                const double* grad, size_t n) {
  internal::AdamImpl<ScalarPolicy>(c, params, m, v, grad, n);
}
void ScalarCopyRow(double* dst, const double* src, size_t n) {
  // memcpy is the fastest portable row copy and trivially bit-exact.
  // The n == 0 guard matters: empty vectors hand out null data()
  // pointers, and memcpy's arguments are declared nonnull even for a
  // zero count (UBSan enforces this).
  if (n == 0) return;
  std::memcpy(dst, src, n * sizeof(double));
}
void ScalarMatVec(const double* m, size_t rows, size_t cols, const double* x,
                  double* out) {
  internal::MatVecImpl<ScalarPolicy>(m, rows, cols, x, out);
}
void ScalarAddOuter(double* m, size_t rows, size_t cols, const double* x,
                    const double* y) {
  internal::AddOuterImpl<ScalarPolicy>(m, rows, cols, x, y);
}
double ScalarJacobiSweep(double* w, double* v, size_t m, size_t n, size_t ld,
                         double tol) {
  return internal::JacobiSweepImpl<ScalarPolicy>(w, v, m, n, ld, tol);
}

constexpr KernelOps kScalarOps = {
    SimdPath::kScalar,
    "scalar",
    &ScalarDot,
    &ScalarNorm2Sq,
    &ScalarDist2,
    &ScalarAxpy,
    &ScalarScale,
    &ScalarScaleAdd,
    &ScalarCopyRow,
    &ScalarAdam,
    &ScalarMatVec,
    &ScalarAddOuter,
    &ScalarJacobiSweep,
};

/// The resolved active table. Published once by ResolveActive(); tests
/// may swap it between runs via ForceSimdPathForTest.
std::atomic<const KernelOps*> g_active{nullptr};

const KernelOps* ResolveActive() {
  SimdPath forced;
  if (internal::ParseSimdOverride(std::getenv("STEDB_SIMD"), &forced)) {
    if (forced == SimdPath::kAvx2) {
      if (internal::Avx2Ops() == nullptr) {
        STEDB_LOG(kError) << "STEDB_SIMD=avx2 but this binary was built "
                             "without the AVX2 kernel translation unit";
        std::abort();
      }
      if (!internal::CpuSupportsAvx2Fma()) {
        STEDB_LOG(kError) << "STEDB_SIMD=avx2 but this CPU does not support "
                             "AVX2+FMA; use STEDB_SIMD=auto or scalar";
        std::abort();
      }
      return internal::Avx2Ops();
    }
    return &kScalarOps;
  }
  if (internal::Avx2Ops() != nullptr && internal::CpuSupportsAvx2Fma()) {
    return internal::Avx2Ops();
  }
  return &kScalarOps;
}

}  // namespace

const KernelOps& Kernels() {
  const KernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // Several threads may race the first resolution; they all compute the
    // same answer (pure function of env + cpuid), so any winner is fine.
    ops = ResolveActive();
    g_active.store(ops, std::memory_order_release);
  }
  return *ops;
}

SimdPath ActiveSimdPath() { return Kernels().path; }

const char* SimdPathName(SimdPath path) {
  return path == SimdPath::kAvx2 ? "avx2" : "scalar";
}

const char* ActiveSimdPathName() { return Kernels().name; }

namespace internal {

const KernelOps& ScalarOps() { return kScalarOps; }

bool CpuSupportsAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports consults cpuid once per process (libgcc /
  // compiler-rt init) and the AVX bits include the OS XSAVE check.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const KernelOps& OpsFor(SimdPath path) {
  if (path == SimdPath::kAvx2) {
    const KernelOps* avx2 = Avx2Ops();
    if (avx2 == nullptr) {
      STEDB_LOG(kError) << "AVX2 kernels requested but not built into this "
                           "binary";
      std::abort();
    }
    return *avx2;
  }
  return kScalarOps;
}

bool ParseSimdOverride(const char* value, SimdPath* path) {
  if (value == nullptr || *value == '\0' || std::strcmp(value, "auto") == 0) {
    return false;
  }
  if (std::strcmp(value, "scalar") == 0) {
    *path = SimdPath::kScalar;
    return true;
  }
  if (std::strcmp(value, "avx2") == 0) {
    *path = SimdPath::kAvx2;
    return true;
  }
  STEDB_LOG(kError) << "unknown STEDB_SIMD value '" << value
                    << "' (expected auto|scalar|avx2)";
  std::abort();
}

void ForceSimdPathForTest(SimdPath path) {
  if (path == SimdPath::kAvx2 && !CpuSupportsAvx2Fma()) {
    STEDB_LOG(kError) << "ForceSimdPathForTest(kAvx2) on a CPU without "
                         "AVX2+FMA";
    std::abort();
  }
  g_active.store(&OpsFor(path), std::memory_order_release);
}

}  // namespace internal
}  // namespace stedb::la

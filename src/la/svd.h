#ifndef STEDB_LA_SVD_H_
#define STEDB_LA_SVD_H_

#include "src/common/status.h"
#include "src/la/matrix.h"

namespace stedb::la {

/// Thin singular value decomposition A = U diag(sigma) V^T with
/// U: m x r, sigma: r, V: n x r where r = min(m, n).
struct Svd {
  Matrix u;
  Vector sigma;
  Matrix v;
};

/// JacobiSvd's defaults, which PseudoInverse and PinvSolve also use.
inline constexpr int kJacobiMaxSweeps = 60;
inline constexpr double kJacobiTol = 1e-12;

/// Computes the thin SVD by one-sided Jacobi rotations (Hestenes method).
/// Robust for the modest sizes used here (d <= a few hundred columns).
/// Each sweep is one la::JacobiSweep, which runs the pairs (p, q) in
/// wavefront order (step p + q, four pairs per vector) and gives the
/// bytes of the cyclic-by-rows loop over p < q; ReferenceJacobiSvd in
/// tests/svd_test.cc keeps that loop as the byte-level reference.
Result<Svd> JacobiSvd(const Matrix& a, int max_sweeps = kJacobiMaxSweeps,
                      double tol = kJacobiTol);

/// Moore-Penrose pseudoinverse A^+ via the SVD, with singular values below
/// `rcond * sigma_max` treated as zero. This is the solver the paper's
/// Equation (10) prescribes for the dynamic FoRWaRD extension.
Result<Matrix> PseudoInverse(const Matrix& a, double rcond = 1e-10);

/// Minimum-norm least-squares solution x = A^+ b without materializing A^+.
Result<Vector> PinvSolve(const Matrix& a, const Vector& b,
                         double rcond = 1e-10);

}  // namespace stedb::la

#endif  // STEDB_LA_SVD_H_

#include "src/la/svd.h"

#include <algorithm>
#include <cmath>

#include "src/la/kernels.h"

namespace stedb::la {
namespace {

/// A thin SVD with both factors stored transposed: row k of `ut` is the
/// k-th left singular vector, row k of `vt` the k-th right one.
struct SvdRows {
  Matrix ut;
  Vector sigma;
  Matrix vt;
};

/// One-sided Jacobi on row-major transposed working copies: column j of W
/// and of V is row j of `wt` and `vt`, so every loop walks contiguous
/// memory. The operations and their order are those of the column walk
/// over W and V themselves, so the bytes are the same.
Result<SvdRows> JacobiRows(const Matrix& a, int max_sweeps, double tol) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("SVD of an empty matrix");
  }
  // Work on the "tall" orientation: m >= n. If the input is wide, decompose
  // the transpose and swap U/V at the end.
  const bool transposed = a.rows() < a.cols();
  Matrix wt = transposed ? a : a.Transposed();
  const size_t n = wt.rows();
  const size_t m = wt.cols();

  // Orthogonalize the columns of W by plane rotations, accumulating them
  // into V.
  Matrix vt = Matrix::Identity(n);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        double* wp_col = wt.RowPtr(p);
        double* wq_col = wt.RowPtr(q);
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (size_t i = 0; i < m; ++i) {
          const double wp = wp_col[i];
          const double wq = wq_col[i];
          alpha += wp * wp;
          beta += wq * wq;
          gamma += wp * wq;
        }
        if (alpha == 0.0 || beta == 0.0) continue;
        off = std::max(off, std::fabs(gamma) / std::sqrt(alpha * beta));
        if (std::fabs(gamma) <= tol * std::sqrt(alpha * beta)) continue;
        // Jacobi rotation that zeroes the (p, q) entry of W^T W.
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (size_t i = 0; i < m; ++i) {
          const double wp = wp_col[i];
          const double wq = wq_col[i];
          wp_col[i] = c * wp - s * wq;
          wq_col[i] = s * wp + c * wq;
        }
        double* vp_col = vt.RowPtr(p);
        double* vq_col = vt.RowPtr(q);
        for (size_t i = 0; i < n; ++i) {
          const double vp = vp_col[i];
          const double vq = vq_col[i];
          vp_col[i] = c * vp - s * vq;
          vq_col[i] = s * vp + c * vq;
        }
      }
    }
    if (off <= tol) break;
  }

  // Column norms are the singular values; normalize columns of W into U.
  Vector sigma(n, 0.0);
  Matrix ut(n, m, 0.0);
  for (size_t j = 0; j < n; ++j) {
    const double* w_col = wt.RowPtr(j);
    double norm = 0.0;
    for (size_t i = 0; i < m; ++i) norm += w_col[i] * w_col[i];
    norm = std::sqrt(norm);
    sigma[j] = norm;
    if (norm > 0.0) {
      double* u_col = ut.RowPtr(j);
      for (size_t i = 0; i < m; ++i) u_col[i] = w_col[i] / norm;
    }
  }

  // Sort singular values descending (a permutation of columns).
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return sigma[x] > sigma[y]; });
  Matrix us(n, m), vs(n, n);
  Vector ss(n);
  for (size_t j = 0; j < n; ++j) {
    ss[j] = sigma[order[j]];
    CopyRow(us.RowPtr(j), ut.RowPtr(order[j]), m);
    CopyRow(vs.RowPtr(j), vt.RowPtr(order[j]), n);
  }

  SvdRows out;
  if (transposed) {
    out.ut = std::move(vs);
    out.vt = std::move(us);
  } else {
    out.ut = std::move(us);
    out.vt = std::move(vs);
  }
  out.sigma = std::move(ss);
  return out;
}

}  // namespace

Result<Svd> JacobiSvd(const Matrix& a, int max_sweeps, double tol) {
  STEDB_ASSIGN_OR_RETURN(SvdRows rows, JacobiRows(a, max_sweeps, tol));
  Svd out;
  out.u = rows.ut.Transposed();
  out.sigma = std::move(rows.sigma);
  out.v = rows.vt.Transposed();
  return out;
}

Result<Matrix> PseudoInverse(const Matrix& a, double rcond) {
  STEDB_ASSIGN_OR_RETURN(SvdRows svd,
                         JacobiRows(a, kJacobiMaxSweeps, kJacobiTol));
  const double cutoff =
      svd.sigma.empty() ? 0.0 : rcond * svd.sigma.front();
  // A^+ = V diag(1/sigma) U^T over the numerically nonzero spectrum, one
  // rank-1 term (v_k / sigma_k) u_k^T at a time.
  const size_t r = svd.sigma.size();
  Matrix pinv(a.cols(), a.rows(), 0.0);
  Vector scaled_v(a.cols());
  for (size_t k = 0; k < r; ++k) {
    if (svd.sigma[k] <= cutoff || svd.sigma[k] == 0.0) continue;
    Scale(scaled_v.data(), 1.0 / svd.sigma[k], svd.vt.RowPtr(k), a.cols());
    AddOuter(pinv.data().data(), a.cols(), a.rows(), scaled_v.data(),
             svd.ut.RowPtr(k));
  }
  return pinv;
}

Result<Vector> PinvSolve(const Matrix& a, const Vector& b, double rcond) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("dimension mismatch in PinvSolve");
  }
  STEDB_ASSIGN_OR_RETURN(SvdRows svd,
                         JacobiRows(a, kJacobiMaxSweeps, kJacobiTol));
  const double cutoff =
      svd.sigma.empty() ? 0.0 : rcond * svd.sigma.front();
  Vector x(a.cols(), 0.0);
  for (size_t k = 0; k < svd.sigma.size(); ++k) {
    if (svd.sigma[k] <= cutoff || svd.sigma[k] == 0.0) continue;
    // coeff = (u_k . b) / sigma_k ; x += coeff * v_k
    const double* u_k = svd.ut.RowPtr(k);
    const double* v_k = svd.vt.RowPtr(k);
    double coeff = 0.0;
    for (size_t i = 0; i < a.rows(); ++i) coeff += u_k[i] * b[i];
    coeff /= svd.sigma[k];
    for (size_t i = 0; i < a.cols(); ++i) x[i] += coeff * v_k[i];
  }
  return x;
}

}  // namespace stedb::la

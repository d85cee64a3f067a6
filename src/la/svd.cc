#include "src/la/svd.h"

#include <algorithm>
#include <cmath>
#include <vector>

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

/// One-sided Jacobi on element-major working copies of W and V, one
/// JacobiSweep per sweep. The columns are read back as rows of `wt` and
/// `vt`, so the norms, U and the sort walk contiguous memory.
Result<SvdRows> JacobiRows(const Matrix& a, int max_sweeps, double tol) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("SVD of an empty matrix");
  }
  // Work on the "tall" orientation: m >= n. If the input is wide, decompose
  // the transpose and swap U/V at the end.
  const bool transposed = a.rows() < a.cols();
  const size_t m = transposed ? a.cols() : a.rows();
  const size_t n = transposed ? a.rows() : a.cols();

  // Element (i, j) of W at w[i * ld + j], of V at v[i * ld + j], with
  // kJacobiPad zero columns on both sides of every row.
  const size_t ld = n + 2 * kJacobiPad;
  std::vector<double> w_buf(m * ld, 0.0);
  std::vector<double> v_buf(n * ld, 0.0);
  double* w = w_buf.data() + kJacobiPad;
  double* v = v_buf.data() + kJacobiPad;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      w[i * ld + j] = transposed ? a(j, i) : a(i, j);
    }
  }
  for (size_t j = 0; j < n; ++j) v[j * ld + j] = 1.0;

  // Orthogonalize the columns of W by plane rotations, accumulating them
  // into V.
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (JacobiSweep(w, v, m, n, ld, tol) <= tol) break;
  }
  Matrix wt(n, m);
  Matrix vt(n, n);
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < m; ++i) wt(j, i) = w[i * ld + j];
    for (size_t i = 0; i < n; ++i) vt(j, i) = v[i * ld + j];
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

#ifndef STEDB_LA_MATRIX_H_
#define STEDB_LA_MATRIX_H_

#include <cstddef>
#include <vector>

#include "src/common/rng.h"
#include "src/common/span.h"

namespace stedb::la {

/// Dense column vector, a thin alias over std::vector<double> with the
/// arithmetic helpers the embedding code needs.
using Vector = std::vector<double>;

/// Dense row-major matrix. Small and deliberately simple: the embedding
/// dimension d is O(100) and the linear systems in the dynamic extension are
/// k x d with k a few thousand at most, so a cache-friendly row-major dense
/// layout with straightforward loops is the right tool.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Identity(size_t n);
  /// Entries sampled i.i.d. N(0, stddev^2).
  static Matrix RandomGaussian(size_t rows, size_t cols, double stddev,
                               Rng& rng);
  /// Random symmetric matrix: (G + G^T) / 2 with G Gaussian.
  static Matrix RandomSymmetric(size_t n, double stddev, Rng& rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  /// Copies row r into a Vector.
  Vector Row(size_t r) const;
  /// Overwrites row r (v.size() must equal cols()).
  void SetRow(size_t r, const Vector& v);

  /// Grows (or shrinks) to `new_rows` rows in place. Because the layout is
  /// row-major with an unchanged column count, this is a single buffer
  /// resize: existing rows keep their values without any per-row copy, and
  /// added rows are filled with `fill`.
  void ResizeRows(size_t new_rows, double fill = 0.0);

  Matrix Transposed() const;

  /// this * other; dimensions must agree.
  Matrix Multiply(const Matrix& other) const;
  /// this * v (v.size() == cols()).
  Vector MultiplyVec(const Vector& v) const;
  /// this^T * v (v.size() == rows()).
  Vector TransposeMultiplyVec(const Vector& v) const;

  void AddInPlace(const Matrix& other, double scale = 1.0);
  void ScaleInPlace(double s);
  /// Symmetrizes in place: A <- (A + A^T) / 2. Requires square.
  void SymmetrizeInPlace();

  /// Frobenius norm.
  double FrobeniusNorm() const;
  /// Largest |a_ij - b_ij|.
  static double MaxAbsDiff(const Matrix& a, const Matrix& b);

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Non-owning mutable view of a row-major matrix — the output parameter of
/// the batch read path (`api::Embedder::EmbedBatch` fills one row per
/// requested fact). Implicitly constructible from Matrix so callers can
/// pass a Matrix wherever a view is expected. The viewed storage must
/// outlive the view.
class MatrixView {
 public:
  MatrixView() : data_(nullptr), rows_(0), cols_(0) {}
  MatrixView(double* data, size_t rows, size_t cols)
      : data_(data), rows_(rows), cols_(cols) {}
  MatrixView(Matrix& m)  // NOLINT(runtime/explicit)
      : data_(m.data().data()), rows_(m.rows()), cols_(m.cols()) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double* RowPtr(size_t r) const { return data_ + r * cols_; }
  double& operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Copies row r into a Vector.
  Vector Row(size_t r) const { return Vector(RowPtr(r), RowPtr(r) + cols_); }

 private:
  double* data_;
  size_t rows_;
  size_t cols_;
};

// ---- Vector helpers ---------------------------------------------------
// All reductions and element-wise updates below (and the Matrix products
// above) execute through the runtime-dispatched SIMD kernel layer in
// src/la/kernels.h; results are bit-identical whichever path (scalar or
// AVX2) the dispatcher picked.

double Dot(const Vector& a, const Vector& b);
double Norm2(const Vector& a);
/// a + s * b, element-wise, in place on a.
void Axpy(double s, const Vector& b, Vector& a);
Vector Scaled(const Vector& a, double s);
/// Euclidean distance.
double Distance(const Vector& a, const Vector& b);
/// Cosine similarity; returns 0 when either vector is all-zero.
double CosineSimilarity(const Vector& a, const Vector& b);
/// Gaussian-random vector.
Vector RandomVector(size_t n, double stddev, Rng& rng);

/// out = M^T x for a rows x cols row-major m (x has rows entries, out has
/// cols): out starts at zero and gains x[i] * (row i of m) by Axpy, rows in
/// ascending order, rows with x[i] == 0 skipped. Each out[j] is one
/// fixed-order chain of fused multiply-adds, so the result is bit-identical
/// on every SIMD path. Scoring x^T M y as Dot(M^T x, y) is how every
/// φ(f)ᵀψφ(g) scorer in this codebase runs: one projection per query, then
/// one dot per candidate.
void LeftProject(const double* x, const double* m, size_t rows, size_t cols,
                 double* out);

}  // namespace stedb::la

#endif  // STEDB_LA_MATRIX_H_

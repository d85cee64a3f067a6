#include "src/la/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/la/kernels.h"

namespace stedb::la {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::RandomGaussian(size_t rows, size_t cols, double stddev,
                              Rng& rng) {
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng.NextGaussian(0.0, stddev);
  return m;
}

Matrix Matrix::RandomSymmetric(size_t n, double stddev, Rng& rng) {
  Matrix m = RandomGaussian(n, n, stddev, rng);
  m.SymmetrizeInPlace();
  return m;
}

Vector Matrix::Row(size_t r) const {
  return Vector(RowPtr(r), RowPtr(r) + cols_);
}

void Matrix::SetRow(size_t r, const Vector& v) {
  CopyRow(RowPtr(r), v.data(), cols_);
}

void Matrix::ResizeRows(size_t new_rows, double fill) {
  data_.resize(new_rows * cols_, fill);
  rows_ = new_rows;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* src = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) t(c, r) = src[c];
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  Matrix out(rows_, other.cols_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const double* a = RowPtr(i);
    double* o = out.RowPtr(i);
    for (size_t k = 0; k < cols_; ++k) {
      const double aik = a[k];
      if (aik == 0.0) continue;
      Axpy(aik, other.RowPtr(k), o, other.cols_);
    }
  }
  return out;
}

Vector Matrix::MultiplyVec(const Vector& v) const {
  Vector out(rows_);
  MatVec(data_.data(), rows_, cols_, v.data(), out.data());
  return out;
}

Vector Matrix::TransposeMultiplyVec(const Vector& v) const {
  Vector out(cols_);
  LeftProject(v.data(), data_.data(), rows_, cols_, out.data());
  return out;
}

void Matrix::AddInPlace(const Matrix& other, double scale) {
  Axpy(scale, other.data_.data(), data_.data(), data_.size());
}

void Matrix::ScaleInPlace(double s) {
  Scale(data_.data(), s, data_.data(), data_.size());
}

void Matrix::SymmetrizeInPlace() {
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = i + 1; j < cols_; ++j) {
      double avg = 0.5 * ((*this)(i, j) + (*this)(j, i));
      (*this)(i, j) = avg;
      (*this)(j, i) = avg;
    }
  }
}

double Matrix::FrobeniusNorm() const {
  return std::sqrt(Norm2Sq(data_.data(), data_.size()));
}

double Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  double worst = 0.0;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    worst = std::max(worst, std::fabs(a.data_[i] - b.data_[i]));
  }
  return worst;
}

double Dot(const Vector& a, const Vector& b) {
  return Dot(a.data(), b.data(), a.size());
}

double Norm2(const Vector& a) {
  return std::sqrt(Norm2Sq(a.data(), a.size()));
}

void Axpy(double s, const Vector& b, Vector& a) {
  Axpy(s, b.data(), a.data(), a.size());
}

Vector Scaled(const Vector& a, double s) {
  Vector out(a.size());
  Scale(out.data(), s, a.data(), a.size());
  return out;
}

double Distance(const Vector& a, const Vector& b) {
  return std::sqrt(DistSq(a.data(), b.data(), a.size()));
}

double CosineSimilarity(const Vector& a, const Vector& b) {
  double na = Norm2(a);
  double nb = Norm2(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

Vector RandomVector(size_t n, double stddev, Rng& rng) {
  Vector v(n);
  for (double& x : v) x = rng.NextGaussian(0.0, stddev);
  return v;
}

void LeftProject(const double* x, const double* m, size_t rows, size_t cols,
                 double* out) {
  std::fill(out, out + cols, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    if (x[i] == 0.0) continue;
    Axpy(x[i], m + i * cols, out, cols);
  }
}

}  // namespace stedb::la

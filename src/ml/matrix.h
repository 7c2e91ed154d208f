#ifndef SEMDRIFT_ML_MATRIX_H_
#define SEMDRIFT_ML_MATRIX_H_

#include <cstddef>
#include <vector>

namespace semdrift {

/// Dense row-major matrix of doubles. Sized for this library's needs
/// (kernel matrices up to a few thousand rows, regularized solves in the
/// KPCA feature space): straightforward O(n^3) algorithms, no BLAS.
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Raw row pointer (row-major layout).
  double* Row(size_t r) { return data_.data() + r * cols_; }
  const double* Row(size_t r) const { return data_.data() + r * cols_; }

  Matrix Transpose() const;

  /// this * other. Precondition: cols() == other.rows().
  Matrix Multiply(const Matrix& other) const;

  /// this + other (elementwise). Preconditions: equal shape.
  Matrix Add(const Matrix& other) const;

  /// this - other (elementwise).
  Matrix Sub(const Matrix& other) const;

  /// In-place this += scale * other.
  void AddInPlace(const Matrix& other, double scale = 1.0);

  /// In-place scalar multiply.
  void Scale(double factor);

  /// Adds `value` to every diagonal element (ridge shift).
  void AddDiagonal(double value);

  /// Trace (sum of diagonal). Precondition: square.
  double Trace() const;

  /// Frobenius norm squared.
  double FrobeniusNormSq() const;

  /// Max |a_ij - b_ij|; utility for tests.
  double MaxAbsDiff(const Matrix& other) const;

  /// True when every entry is finite (no NaN / +-Inf). Fit routines reject
  /// non-finite input up front: one poisoned entry would silently spread
  /// through a whole kernel matrix or forest.
  bool AllFinite() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// out = a^T * b for a (m x p) and b (m x q), written into a caller-allocated
/// p x q matrix. Each entry sums over the rows of a and b in ascending order
/// and skips zero entries of a, exactly as a.Transpose().Multiply(b) does;
/// large products split their output rows across the thread pool.
void TransposeMultiplyInto(const Matrix& a, const Matrix& b, Matrix* out);

/// In-place Cholesky factorization: the lower triangle of `a` becomes L with
/// A = L L^T. Reads and writes only the lower triangle. Returns false when A
/// is not positive definite (or holds NaN).
bool CholeskyFactorInPlace(Matrix* a);

/// Solves L L^T x = b given a factor produced by CholeskyFactorInPlace.
void CholeskyBackSolve(const Matrix& l, const double* b, double* x);

/// Solves A x = b for symmetric positive definite A via Cholesky.
/// Returns false when A is not positive definite (no solution written).
bool CholeskySolve(const Matrix& a, const std::vector<double>& b,
                   std::vector<double>* x);

/// Solves A x = b for general square A via LU with partial pivoting.
/// Returns false on (numerical) singularity.
bool LuSolve(const Matrix& a, const std::vector<double>& b, std::vector<double>* x);

/// Result of a symmetric eigendecomposition: A = V diag(values) V^T, with
/// eigenvalues ascending and eigenvectors in the *columns* of `vectors`.
/// `converged` is false when the QL iteration stopped at its 50-iteration
/// cap. Then `values` are the diagonal of the partly reduced matrix and
/// `vectors` its orthogonal transform: sorted as above when finite, left
/// unsorted when any value is NaN/Inf (e.g. NaN input), which no caller may
/// use.
struct EigenResult {
  std::vector<double> values;
  Matrix vectors;
  bool converged = true;
};

/// Eigendecomposition of a symmetric matrix via Householder
/// tridiagonalization followed by implicit-shift QL. O(n^3); accurate for
/// the kernel matrices used here. Large matrices run the eigenvector
/// accumulation and the QL rotations on the thread pool with the serial
/// operation order, so the result is bit-identical at any thread count.
/// Precondition: `a` square and symmetric.
EigenResult SymmetricEigen(const Matrix& a);

}  // namespace semdrift

#endif  // SEMDRIFT_ML_MATRIX_H_

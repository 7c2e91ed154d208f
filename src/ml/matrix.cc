#include "ml/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/thread_pool.h"

namespace semdrift {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  // i-k-j loop order: streaming access on both inputs.
  for (size_t i = 0; i < rows_; ++i) {
    const double* a_row = Row(i);
    double* out_row = out.Row(i);
    for (size_t k = 0; k < cols_; ++k) {
      double a = a_row[k];
      if (a == 0.0) continue;
      const double* b_row = other.Row(k);
      for (size_t j = 0; j < other.cols_; ++j) out_row[j] += a * b_row[j];
    }
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  out.AddInPlace(other);
  return out;
}

Matrix Matrix::Sub(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  out.AddInPlace(other, -1.0);
  return out;
}

void Matrix::AddInPlace(const Matrix& other, double scale) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

void Matrix::Scale(double factor) {
  for (double& v : data_) v *= factor;
}

void Matrix::AddDiagonal(double value) {
  assert(rows_ == cols_);
  for (size_t i = 0; i < rows_; ++i) (*this)(i, i) += value;
}

double Matrix::Trace() const {
  assert(rows_ == cols_);
  double t = 0.0;
  for (size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

double Matrix::FrobeniusNormSq() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

bool Matrix::AllFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

namespace {

/// Multiply-adds below which TransposeMultiplyInto stays on the calling
/// thread (per block when split).
constexpr size_t kProductGrainWork = size_t{1} << 18;

}  // namespace

void TransposeMultiplyInto(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.rows() == b.rows() && out->rows() == a.cols() && out->cols() == b.cols());
  size_t per_row = std::max<size_t>(a.rows() * b.cols(), 1);
  BlockRange rows = SplitBlocks(a.cols(), (kProductGrainWork + per_row - 1) / per_row);
  // Row k of a and b is streamed once per block; each out(i, j) still adds
  // a(k, i) * b(k, j) in ascending k.
  ParallelForBlocks(rows, [&](size_t, size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) std::fill(out->Row(i), out->Row(i) + b.cols(), 0.0);
    for (size_t k = 0; k < a.rows(); ++k) {
      const double* a_row = a.Row(k);
      const double* b_row = b.Row(k);
      for (size_t i = i0; i < i1; ++i) {
        double av = a_row[i];
        if (av == 0.0) continue;
        double* out_row = out->Row(i);
        for (size_t j = 0; j < b.cols(); ++j) out_row[j] += av * b_row[j];
      }
    }
  });
}

bool CholeskyFactorInPlace(Matrix* a) {
  size_t n = a->rows();
  for (size_t j = 0; j < n; ++j) {
    double d = (*a)(j, j);
    for (size_t k = 0; k < j; ++k) d -= (*a)(j, k) * (*a)(j, k);
    if (d <= 0.0 || !std::isfinite(d)) return false;
    double ljj = std::sqrt(d);
    (*a)(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double s = (*a)(i, j);
      for (size_t k = 0; k < j; ++k) s -= (*a)(i, k) * (*a)(j, k);
      (*a)(i, j) = s / ljj;
    }
  }
  return true;
}

void CholeskyBackSolve(const Matrix& l, const double* b, double* x) {
  size_t n = l.rows();
  // Forward: L y = b.
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l(i, k) * x[k];
    x[i] = s / l(i, i);
  }
  // Backward: L^T x = y.
  for (size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
}

bool CholeskySolve(const Matrix& a, const std::vector<double>& b,
                   std::vector<double>* x) {
  assert(a.rows() == a.cols() && a.rows() == b.size());
  Matrix l = a;
  if (!CholeskyFactorInPlace(&l)) return false;
  x->assign(b.size(), 0.0);
  CholeskyBackSolve(l, b.data(), x->data());
  return true;
}

bool LuSolve(const Matrix& a, const std::vector<double>& b, std::vector<double>* x) {
  assert(a.rows() == a.cols() && a.rows() == b.size());
  size_t n = a.rows();
  Matrix lu = a;
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t col = 0; col < n; ++col) {
    // Partial pivot.
    size_t pivot = col;
    double best = std::abs(lu(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      double v = std::abs(lu(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-14) return false;
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(lu(col, c), lu(pivot, c));
      std::swap(perm[col], perm[pivot]);
    }
    for (size_t r = col + 1; r < n; ++r) {
      double f = lu(r, col) / lu(col, col);
      lu(r, col) = f;
      for (size_t c = col + 1; c < n; ++c) lu(r, c) -= f * lu(col, c);
    }
  }
  // Solve with permuted b.
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = b[perm[i]];
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < i; ++k) y[i] -= lu(i, k) * y[k];
  }
  x->assign(n, 0.0);
  for (size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= lu(ii, k) * (*x)[k];
    (*x)[ii] = s / lu(ii, ii);
  }
  return true;
}

namespace {

double Hypot(double a, double b) { return std::hypot(a, b); }

/// Columns per chunk of the eigenvector accumulation and of the QL rotation
/// kernel: fixed trip counts the compiler can vectorize.
constexpr size_t kLanes = 8;
constexpr size_t kRotationLanes = 32;
/// Matrices below this order accumulate on the calling thread; above it,
/// pool tasks take blocks of kAccumulateBlock columns.
constexpr size_t kAccumulateParallelMin = 96;
constexpr size_t kAccumulateBlock = 64;
/// Rotations recorded before they are applied to the eigenvectors.
constexpr size_t kRotationBuffer = 8192;
/// Rotation batches below this many element updates stay on the calling
/// thread; larger ones split into blocks of kRotationGrainColumns columns.
constexpr size_t kRotationGrainWork = size_t{1} << 16;
constexpr size_t kRotationGrainColumns = 64;

/// Accumulation of the Householder transforms into z (the second half of
/// tred2). The serial loop's step i updates columns [0, i) of rows [0, i):
///     g_j = sum_{k<i} z(i,k) z(k,j);   z(k,j) -= g_j z(k,i)
/// then zeroes row i and column i off the diagonal. Row i and column i are
/// still the reduction's output when step i reads them (only later steps
/// write them), and step i writes nothing outside column j that column j's
/// arithmetic reads. So each column runs through every step on its own,
/// reading rows and columns of the reduction's output from a packed copy,
/// with the serial operations in the serial order; blocks of columns go to
/// the pool in one dispatch.
class TransformAccumulator {
 public:
  TransformAccumulator(Matrix* z, const std::vector<double>& h)
      : z_(z), h_(h), n_(z->rows()), below_(Packed(n_)), above_(Packed(n_)) {
    for (size_t i = 0; i < n_; ++i) {
      for (size_t k = 0; k < i; ++k) {
        below_[Offset(i) + k] = (*z)(i, k);
        above_[Offset(i) + k] = (*z)(k, i);
      }
    }
  }

  void Run() {
    size_t tasks = (n_ + kAccumulateBlock - 1) / kAccumulateBlock;
    auto block = [&](size_t b) {
      size_t b0 = b * kAccumulateBlock;
      RunBlock(b0, std::min(n_, b0 + kAccumulateBlock));
    };
    if (n_ < kAccumulateParallelMin) {
      for (size_t b = 0; b < tasks; ++b) block(b);
    } else {
      ParallelFor(tasks, block);
    }
  }

 private:
  /// Columns [b0, b1) through every step, kLanes columns at a time: a
  /// chunk's slice of z stays in cache while the steps stream the packed
  /// rows and columns past it. A task owns adjacent columns, so concurrent
  /// tasks share a cache line of z only at their edges.
  void RunBlock(size_t b0, size_t b1) {
    for (size_t c0 = b0; c0 < b1; c0 += kLanes) {
      size_t width = std::min(kLanes, b1 - c0);
      size_t full = width == kLanes ? c0 + kLanes : n_;
      // Steps inside the chunk's own column range (all steps of a narrow
      // last chunk) touch only some of its columns: one column at a time.
      for (size_t j = c0; j < c0 + width; ++j) {
        StartColumn(j);
        for (size_t i = j + 1; i < full; ++i) Step<1>(j, i);
      }
      for (size_t i = full; i < n_; ++i) Step<kLanes>(c0, i);
    }
  }

  static size_t Offset(size_t i) { return i > 0 ? i * (i - 1) / 2 : 0; }
  static std::vector<double> Packed(size_t n) {
    return std::vector<double>(n > 0 ? n * (n - 1) / 2 : 0);
  }

  /// Step j's writes to column j itself: zero above the diagonal, 1 on it.
  void StartColumn(size_t j) {
    for (size_t k = 0; k < j; ++k) (*z_)(k, j) = 0.0;
    (*z_)(j, j) = 1.0;
  }

  /// Step i on columns [c, c + W), all of them left of i.
  template <size_t W>
  void Step(size_t c, size_t i) {
    if (h_[i] != 0.0) {
      const double* row_i = below_.data() + Offset(i);
      const double* col_i = above_.data() + Offset(i);
      double g[W] = {};
      for (size_t k = 0; k < i; ++k) {
        double z_ik = row_i[k];
        const double* z_k = z_->Row(k) + c;
        for (size_t q = 0; q < W; ++q) g[q] += z_ik * z_k[q];
      }
      for (size_t k = 0; k < i; ++k) {
        double z_ki = col_i[k];
        double* z_k = z_->Row(k) + c;
        for (size_t q = 0; q < W; ++q) z_k[q] -= g[q] * z_ki;
      }
    }
    double* z_i = z_->Row(i) + c;
    for (size_t q = 0; q < W; ++q) z_i[q] = 0.0;
  }

  Matrix* z_;
  const std::vector<double>& h_;
  size_t n_;
  std::vector<double> below_;  // Row i left of the diagonal, packed.
  std::vector<double> above_;  // Column i above the diagonal, packed.
};

/// The O(l^2) part of Householder step i (l = i - 1, u = row i after
/// scaling, h the reflector's normalizer): p = A u / h over the lower
/// triangle into e, K = u.p / 2h, q = p - K u, and the rank-2 update
/// A -= u q^T + q u^T.
/// Serially, e_j sums row j's part (k <= j) and then column j's part
/// (k > j) in ascending k. Here all row parts come first, then one pass
/// over the rows below adds each row's contribution in ascending k: the
/// same sums in the same order, with rows streamed instead of columns
/// strided. (The step stays on one thread: split across the pool, the
/// triangle migrates between cores every step and costs more than the
/// arithmetic saved.)
void ReduceStep(Matrix* z, std::vector<double>* e, size_t i, double h) {
  size_t l = i - 1;
  const double* u = z->Row(i);
  double* p = e->data();
  for (size_t j = 0; j <= l; ++j) {
    (*z)(j, i) = u[j] / h;
    const double* z_j = z->Row(j);
    double g = 0.0;
    for (size_t k = 0; k <= j; ++k) g += z_j[k] * u[k];
    p[j] = g;
  }
  for (size_t k = 1; k <= l; ++k) {
    const double* z_k = z->Row(k);
    double u_k = u[k];
    for (size_t j = 0; j < k; ++j) p[j] += z_k[j] * u_k;
  }
  double f = 0.0;
  for (size_t j = 0; j <= l; ++j) {
    p[j] /= h;
    f += p[j] * u[j];
  }
  double hh = f / (h + h);
  for (size_t j = 0; j <= l; ++j) p[j] = p[j] - hh * u[j];
  for (size_t j = 0; j <= l; ++j) {
    double f_j = u[j];
    double g_j = p[j];
    double* z_j = z->Row(j);
    for (size_t k = 0; k <= j; ++k) z_j[k] -= f_j * p[k] + g_j * u[k];
  }
}

/// Householder reduction of a symmetric matrix to tridiagonal form.
/// On exit: d = diagonal, e = subdiagonal (e[0] unused), z = accumulated
/// orthogonal transform (columns will become eigenvectors after QL).
void Tridiagonalize(Matrix* z, std::vector<double>* d, std::vector<double>* e) {
  size_t n = z->rows();
  d->assign(n, 0.0);
  e->assign(n, 0.0);
  if (n == 0) return;
  for (size_t i = n - 1; i > 0; --i) {
    size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (size_t k = 0; k <= l; ++k) scale += std::abs((*z)(i, k));
      if (scale == 0.0) {
        (*e)[i] = (*z)(i, l);
      } else {
        for (size_t k = 0; k <= l; ++k) {
          (*z)(i, k) /= scale;
          h += (*z)(i, k) * (*z)(i, k);
        }
        double f = (*z)(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        (*e)[i] = scale * g;
        h -= f * g;
        (*z)(i, l) = f - g;
        ReduceStep(z, e, i, h);
      }
    } else {
      (*e)[i] = (*z)(i, l);
    }
    (*d)[i] = h;
  }
  (*d)[0] = 0.0;
  (*e)[0] = 0.0;
  // d[i] is read by step i before the diagonal entry changes, which only
  // step i itself does.
  std::vector<double> h = *d;
  for (size_t i = 0; i < n; ++i) (*d)[i] = (*z)(i, i);
  TransformAccumulator(z, h).Run();
}

/// The plane rotations of the QL sweeps, recorded as they are chosen and
/// applied to the eigenvector matrix in batches. The QL scalar recurrence
/// never reads the eigenvectors, so deferring the rotations changes nothing
/// as long as each row of z sees them in the original order. The matrix is
/// held transposed (zt = z^T): rotation (ii, s, c) then mixes rows ii and
/// ii + 1 of zt, and each column of zt is independent.
class RotationBuffer {
 public:
  explicit RotationBuffer(Matrix* zt) : zt_(zt) { pending_.reserve(kRotationBuffer); }

  void Push(size_t ii, double s, double c) {
    pending_.push_back(Rotation{ii, s, c});
    if (pending_.size() == kRotationBuffer) Flush();
  }

  /// Applies every pending rotation in order, then empties the buffer.
  void Flush() {
    if (pending_.empty()) return;
    size_t n = zt_->cols();
    size_t grain = pending_.size() * n >= kRotationGrainWork ? kRotationGrainColumns : n;
    ParallelForBlocks(SplitBlocks(n, grain), [&](size_t, size_t k0, size_t k1) {
      size_t k = k0;
      for (; k + kRotationLanes <= k1; k += kRotationLanes) Apply<kRotationLanes>(k);
      for (; k < k1; ++k) Apply<1>(k);
    });
    pending_.clear();
  }

 private:
  struct Rotation {
    size_t ii;
    double s;
    double c;
  };

  /// Applies the pending rotations to columns [k, k + W) of zt. A sweep
  /// rotates descending adjacent pairs (ii + 1, ii), so row ii's new value
  /// is the next rotation's row ii + 1: it stays in `carry` for the whole
  /// run instead of going through memory. Per element this is the serial
  ///     f = z(k,ii+1); z(k,ii+1) = s*z(k,ii) + c*f; z(k,ii) = c*z(k,ii) - s*f
  /// in the same order.
  template <size_t W>
  void Apply(size_t k) {
    double carry[W];
    size_t count = pending_.size();
    for (size_t t = 0; t < count;) {
      const double* top = zt_->Row(pending_[t].ii + 1) + k;
      for (size_t q = 0; q < W; ++q) carry[q] = top[q];
      size_t ii;
      do {
        ii = pending_[t].ii;
        double s = pending_[t].s;
        double c = pending_[t].c;
        // Staged through locals so the compiler can vectorize across q
        // without proving that the two rows do not overlap.
        double a[W];
        const double* row = zt_->Row(ii) + k;
        for (size_t q = 0; q < W; ++q) a[q] = row[q];
        double rotated[W];
        for (size_t q = 0; q < W; ++q) {
          rotated[q] = s * a[q] + c * carry[q];
          carry[q] = c * a[q] - s * carry[q];
        }
        double* above = zt_->Row(ii + 1) + k;
        for (size_t q = 0; q < W; ++q) above[q] = rotated[q];
        ++t;
      } while (t < count && pending_[t].ii + 1 == ii);
      double* bottom = zt_->Row(ii) + k;
      for (size_t q = 0; q < W; ++q) bottom[q] = carry[q];
    }
  }

  Matrix* zt_;
  std::vector<Rotation> pending_;
};

/// In-place transpose of a square matrix.
void TransposeSquare(Matrix* m) {
  for (size_t i = 0; i < m->rows(); ++i) {
    for (size_t j = i + 1; j < m->cols(); ++j) std::swap((*m)(i, j), (*m)(j, i));
  }
}

/// Implicit-shift QL on the tridiagonal (d, e), accumulating rotations
/// into the columns of z, which is passed transposed (rows of zt). Returns
/// false when an eigenvalue takes more than 50 iterations; the rotations
/// chosen so far are applied either way.
bool TridiagonalQl(std::vector<double>* d, std::vector<double>* e, Matrix* zt) {
  size_t n = d->size();
  if (n == 0) return true;
  RotationBuffer rotations(zt);
  for (size_t i = 1; i < n; ++i) (*e)[i - 1] = (*e)[i];
  (*e)[n - 1] = 0.0;
  for (size_t l = 0; l < n; ++l) {
    int iterations = 0;
    size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        double dd = std::abs((*d)[m]) + std::abs((*d)[m + 1]);
        if (std::abs((*e)[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        if (iterations++ == 50) {
          rotations.Flush();
          return false;
        }
        double g = ((*d)[l + 1] - (*d)[l]) / (2.0 * (*e)[l]);
        double r = Hypot(g, 1.0);
        double sign_r = g >= 0.0 ? std::abs(r) : -std::abs(r);
        g = (*d)[m] - (*d)[l] + (*e)[l] / (g + sign_r);
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool broke_early = false;
        for (size_t ii = m; ii-- > l;) {
          double f = s * (*e)[ii];
          double b = c * (*e)[ii];
          r = Hypot(f, g);
          (*e)[ii + 1] = r;
          if (r == 0.0) {
            (*d)[ii + 1] -= p;
            (*e)[m] = 0.0;
            broke_early = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = (*d)[ii + 1] - p;
          r = ((*d)[ii] - g) * s + 2.0 * c * b;
          p = s * r;
          (*d)[ii + 1] = g + p;
          g = c * r - b;
          rotations.Push(ii, s, c);
        }
        if (broke_early) continue;
        (*d)[l] -= p;
        (*e)[l] = g;
        (*e)[m] = 0.0;
      }
    } while (m != l);
  }
  rotations.Flush();
  return true;
}

}  // namespace

EigenResult SymmetricEigen(const Matrix& a) {
  assert(a.rows() == a.cols());
  EigenResult result;
  result.vectors = a;
  std::vector<double> e;
  Tridiagonalize(&result.vectors, &result.values, &e);
  TransposeSquare(&result.vectors);
  result.converged = TridiagonalQl(&result.values, &e, &result.vectors);
  if (!result.converged &&
      !std::all_of(result.values.begin(), result.values.end(),
                   [](double v) { return std::isfinite(v); })) {
    TransposeSquare(&result.vectors);
    return result;  // NaN/Inf: nothing to order.
  }
  // Sort ascending by eigenvalue; eigenvector j is row order[j] of zt.
  size_t n = result.values.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return result.values[x] < result.values[y];
  });
  std::vector<double> sorted_values(n);
  Matrix sorted_vectors(n, n);
  for (size_t j = 0; j < n; ++j) {
    sorted_values[j] = result.values[order[j]];
    const double* column = result.vectors.Row(order[j]);
    for (size_t i = 0; i < n; ++i) sorted_vectors(i, j) = column[i];
  }
  result.values = std::move(sorted_values);
  result.vectors = std::move(sorted_vectors);
  return result;
}

}  // namespace semdrift

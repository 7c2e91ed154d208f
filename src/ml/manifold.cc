#include "ml/manifold.h"

#include <cassert>

#include "ml/knn.h"
#include "util/thread_pool.h"

namespace semdrift {

namespace {

/// Neighborhoods per block when the local systems split across the pool.
constexpr size_t kLocalGrain = 32;

}  // namespace

Matrix BuildManifoldRegularizer(const Matrix& x, const ManifoldOptions& options) {
  size_t n = x.rows();
  size_t r = x.cols();
  assert(n > 0 && r > 0);
  if (n == 0) return Matrix(r, r);
  auto neighborhoods = KNearestNeighbors(x, options.k);
  size_t m = neighborhoods[0].size();  // k + 1 (self first), the same for all i.

  // Every L_i - (1/m) 1 1^T is independent of the others: compute them in
  // parallel into row i of `local`, then scatter into M serially in i order,
  // the only sum whose order depends on how the work is split.
  Matrix local(n, m * m);
  BlockRange rows = SplitBlocks(n, kLocalGrain);
  // Per block: G (then HGH + lambda I, factored in place) and two columns.
  std::vector<Matrix> systems(rows.blocks, Matrix(m, m));
  Matrix scratch(rows.blocks, 2 * m);
  std::vector<int> failed(rows.blocks, 0);
  ParallelForBlocks(rows, [&](size_t block, size_t begin, size_t end) {
    Matrix& c = systems[block];
    double* column = scratch.Row(block);
    double* solved = column + m;
    for (size_t i = begin; i < end; ++i) {
      const std::vector<size_t>& nb = neighborhoods[i];
      // G = X~_i^T X~_i over the neighborhood columns.
      for (size_t a = 0; a < m; ++a) {
        for (size_t b = a; b < m; ++b) {
          double dot = 0.0;
          const double* ra = x.Row(nb[a]);
          const double* rb = x.Row(nb[b]);
          for (size_t f = 0; f < r; ++f) dot += ra[f] * rb[f];
          c(a, b) = dot;
          c(b, a) = dot;
        }
      }
      // HGH with H = I - (1/m) 1 1^T : double-center G.
      double* row_mean = solved;
      double total_mean = 0.0;
      for (size_t a = 0; a < m; ++a) {
        double s = 0.0;
        for (size_t b = 0; b < m; ++b) s += c(a, b);
        row_mean[a] = s / static_cast<double>(m);
        total_mean += s;
      }
      total_mean /= static_cast<double>(m) * static_cast<double>(m);
      for (size_t a = 0; a < m; ++a) {
        for (size_t b = 0; b <= a; ++b) {
          c(a, b) = c(a, b) - row_mean[a] - row_mean[b] + total_mean;
        }
        c(a, a) += options.local_lambda;
      }
      // L_i = lambda (HGH + lambda I)^(-1) - (1/m) 1 1^T  (Woodbury form of
      // Eq. 14), inverting column by column against the identity.
      if (!CholeskyFactorInPlace(&c)) {
        failed[block] = 1;
        return;
      }
      double shift = 1.0 / static_cast<double>(m);
      double* li = local.Row(i);
      for (size_t b = 0; b < m; ++b) {
        std::fill(column, column + m, 0.0);
        column[b] = 1.0;
        CholeskyBackSolve(c, column, solved);
        for (size_t a = 0; a < m; ++a) {
          li[a * m + b] = solved[a] * options.local_lambda - shift;
        }
      }
    }
  });
  for (int f : failed) {
    if (f != 0) return Matrix();
  }

  // M = sum_i S_i L_i S_i^T, assembled densely (n x n).
  Matrix m_acc(n, n);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<size_t>& nb = neighborhoods[i];
    const double* li = local.Row(i);
    for (size_t a = 0; a < m; ++a) {
      for (size_t b = 0; b < m; ++b) m_acc(nb[a], nb[b]) += li[a * m + b];
    }
  }

  // A = X^T M X (samples are rows here; the paper's X~ has them as columns).
  Matrix mx = m_acc.Multiply(x);  // n x r
  Matrix a(r, r);
  TransposeMultiplyInto(x, mx, &a);
  // Symmetrize against floating-point drift; A is PSD by construction.
  Matrix at = a.Transpose();
  a.AddInPlace(at);
  a.Scale(0.5);
  return a;
}

}  // namespace semdrift

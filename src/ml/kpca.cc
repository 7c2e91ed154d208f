#include "ml/kpca.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace semdrift {

namespace {

/// Rows per block when TransformMatrix splits across the pool.
constexpr size_t kProjectGrain = 16;
/// Components projected together (a fixed trip count the compiler can
/// vectorize).
constexpr size_t kLanes = 8;

}  // namespace

bool KernelPca::Fit(const Matrix& x, const KpcaOptions& options) {
  options_ = options;
  size_t n = x.rows();
  size_t d = x.cols();
  if (n < 2 || d == 0) return false;
  // A single NaN would propagate through standardization into every kernel
  // entry; reject up front so the caller's fallback path can take over.
  if (!x.AllFinite()) return false;

  // Standardization statistics.
  feature_mean_.assign(d, 0.0);
  feature_std_.assign(d, 1.0);
  if (options_.standardize) {
    for (size_t j = 0; j < d; ++j) {
      double mean = 0.0;
      for (size_t i = 0; i < n; ++i) mean += x(i, j);
      mean /= static_cast<double>(n);
      double var = 0.0;
      for (size_t i = 0; i < n; ++i) {
        double diff = x(i, j) - mean;
        var += diff * diff;
      }
      var /= static_cast<double>(n);
      feature_mean_[j] = mean;
      feature_std_[j] = var > 1e-12 ? std::sqrt(var) : 1.0;
    }
  }
  train_ = Matrix(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      train_(i, j) = (x(i, j) - feature_mean_[j]) / feature_std_[j];
    }
  }

  gamma_ = options_.rbf_gamma > 0.0 ? options_.rbf_gamma
                                    : 1.0 / static_cast<double>(d);

  // Kernel matrix and double-centering: K~ = K - 1K - K1 + 1K1.
  Matrix k = KernelMatrix(options_.kernel, gamma_, train_);
  k_row_mean_.assign(n, 0.0);
  k_total_mean_ = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < n; ++j) s += k(i, j);
    k_row_mean_[i] = s / static_cast<double>(n);
    k_total_mean_ += s;
  }
  k_total_mean_ /= static_cast<double>(n) * static_cast<double>(n);
  Matrix centered(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      centered(i, j) = k(i, j) - k_row_mean_[i] - k_row_mean_[j] + k_total_mean_;
    }
  }

  k = Matrix();  // Only `centered` is needed from here on.

  EigenResult eigen = SymmetricEigen(centered);  // Ascending.
  if (!eigen.converged) {
    // A non-finite decomposition is a failed fit. A finite one stopped at
    // the iteration cap, typically on a block of numerically zero
    // eigenvalues that never meets QL's relative deflation test; it is
    // used, because refusing it would change the detectors trained on
    // such pools, and counted.
    for (double v : eigen.values) {
      if (!std::isfinite(v)) return false;
    }
    static MetricsRegistry::Counter unconverged =
        GlobalMetrics().RegisterCounter("ml.eigen_unconverged");
    unconverged.Add();
  }
  double max_eigen = eigen.values.empty() ? 0.0 : eigen.values.back();
  if (max_eigen <= 0.0) return false;
  double floor = options_.eigen_floor * max_eigen;

  // Collect components descending, normalizing alpha to 1/sqrt(lambda) so
  // projections are the coordinates w.r.t. unit-norm eigenvectors in H.
  std::vector<size_t> keep;
  for (size_t idx = n; idx-- > 0;) {
    if (eigen.values[idx] <= floor) break;
    keep.push_back(idx);
    if (options_.max_components > 0 &&
        keep.size() == static_cast<size_t>(options_.max_components)) {
      break;
    }
  }
  num_components_ = keep.size();
  if (num_components_ == 0) return false;
  alphas_ = Matrix(n, num_components_);
  eigenvalues_.clear();
  for (size_t p = 0; p < num_components_; ++p) {
    size_t idx = keep[p];
    double lambda = eigen.values[idx];
    eigenvalues_.push_back(lambda);
    double scale = 1.0 / std::sqrt(lambda);
    for (size_t i = 0; i < n; ++i) alphas_(i, p) = eigen.vectors(i, idx) * scale;
  }
  return true;
}

void KernelPca::ProjectInto(const double* x, double* scratch, double* out) const {
  assert(fitted());
  size_t n = train_.rows();
  size_t d = train_.cols();
  double* q = scratch + n;
  for (size_t j = 0; j < d; ++j) q[j] = (x[j] - feature_mean_[j]) / feature_std_[j];
  // Kernel vector against the training rows, centered against the
  // training distribution.
  double* k = scratch;
  double k_mean = 0.0;
  for (size_t i = 0; i < n; ++i) {
    k[i] = KernelValue(options_.kernel, gamma_, train_.Row(i), q, d);
    k_mean += k[i];
  }
  k_mean /= static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    k[i] = k[i] - k_row_mean_[i] - k_mean + k_total_mean_;
  }
  // out_p = sum_i alpha_ip k_i, each out_p adding its terms in ascending i
  // as a per-component loop would. Components go kLanes at a time with
  // their sums in registers while i walks down the rows of alphas_.
  size_t p = 0;
  for (; p + kLanes <= num_components_; p += kLanes) {
    double sum[kLanes] = {};
    for (size_t i = 0; i < n; ++i) {
      const double* alpha = alphas_.Row(i) + p;
      double k_i = k[i];
      for (size_t q = 0; q < kLanes; ++q) sum[q] += alpha[q] * k_i;
    }
    std::copy(sum, sum + kLanes, out + p);
  }
  for (; p < num_components_; ++p) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += alphas_(i, p) * k[i];
    out[p] = sum;
  }
}

std::vector<double> KernelPca::Transform(const std::vector<double>& x) const {
  assert(x.size() == train_.cols());
  std::vector<double> scratch(scratch_size());
  std::vector<double> out(num_components_);
  ProjectInto(x.data(), scratch.data(), out.data());
  return out;
}

Matrix KernelPca::TransformMatrix(const Matrix& x) const {
  assert(x.cols() == train_.cols());
  Matrix out(x.rows(), num_components_);
  BlockRange rows = SplitBlocks(x.rows(), kProjectGrain);
  Matrix scratch(rows.blocks, scratch_size());
  ParallelForBlocks(rows, [&](size_t b, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ProjectInto(x.Row(i), scratch.Row(b), out.Row(i));
  });
  return out;
}

}  // namespace semdrift

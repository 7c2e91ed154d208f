#ifndef SEMDRIFT_ML_KPCA_H_
#define SEMDRIFT_ML_KPCA_H_

#include <vector>

#include "ml/kernel.h"
#include "ml/matrix.h"

namespace semdrift {

/// Kernel PCA options (Sec. 3.3.1).
struct KpcaOptions {
  KernelType kernel = KernelType::kRbf;
  /// RBF width; <= 0 selects 1 / (d * variance) automatically (after
  /// standardization that is 1/d).
  double rbf_gamma = -1.0;
  /// Keep at most this many components; 0 keeps every component whose
  /// eigenvalue clears the floor ("full rank kernel PCA").
  int max_components = 0;
  /// Eigenvalues below floor * max_eigenvalue are treated as zero.
  double eigen_floor = 1e-9;
  /// Standardize input dimensions to zero mean / unit variance before the
  /// kernel — prevents one dominant raw feature (the paper's f2 concern,
  /// Sec. 3.2.3) from flattening the kernel geometry.
  bool standardize = true;
};

/// Full-rank kernel PCA with the out-of-sample projection of Sec. 3.3.1:
/// fit on training rows, then Transform() maps arbitrary points x_j into the
/// r-dimensional representation x~_j via x~^p_j = sum_i alpha^p_i k~(x_i, x_j).
class KernelPca {
 public:
  KernelPca() = default;

  /// Fits on the rows of `x` (n samples by d features). Returns false when
  /// the input is degenerate (fewer than 2 rows, non-finite entries, no
  /// positive eigenvalue) or the eigendecomposition came out non-finite.
  bool Fit(const Matrix& x, const KpcaOptions& options);

  /// Projects one d-dimensional point; returns an r-dimensional vector.
  std::vector<double> Transform(const std::vector<double>& x) const;

  /// Projects every row of `x`, producing an (x.rows() by r) matrix. Rows
  /// are projected in parallel; each row is bit-identical to Transform().
  Matrix TransformMatrix(const Matrix& x) const;

  /// Scratch values ProjectInto needs: the kernel vector plus the
  /// standardized point.
  size_t scratch_size() const { return train_.rows() + train_.cols(); }

  /// Projects the d-dimensional point `x` into `out` (num_components()
  /// values) without allocating; `scratch` holds scratch_size() values.
  /// The shared routine behind Transform and TransformMatrix, for callers
  /// that project rows on the thread pool with caller-owned buffers.
  void ProjectInto(const double* x, double* scratch, double* out) const;

  size_t num_components() const { return num_components_; }
  bool fitted() const { return num_components_ > 0; }

  /// Eigenvalues retained (descending).
  const std::vector<double>& eigenvalues() const { return eigenvalues_; }

 private:
  KpcaOptions options_;
  double gamma_ = 1.0;
  size_t num_components_ = 0;
  Matrix train_;                    // Standardized training rows.
  Matrix alphas_;                   // n x r dual coefficients (scaled 1/sqrt(l)).
  std::vector<double> eigenvalues_; // Retained eigenvalues, descending.
  std::vector<double> k_row_mean_;  // Row means of the training kernel.
  double k_total_mean_ = 0.0;
  std::vector<double> feature_mean_;
  std::vector<double> feature_std_;
};

}  // namespace semdrift

#endif  // SEMDRIFT_ML_KPCA_H_

#include <gtest/gtest.h>

#include <cmath>

#include "ml/kpca.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace semdrift {
namespace {

Matrix GaussianBlobs(size_t n_per_blob, const std::vector<std::vector<double>>& centers,
                     double spread, Rng* rng) {
  size_t d = centers[0].size();
  Matrix x(n_per_blob * centers.size(), d);
  size_t row = 0;
  for (const auto& center : centers) {
    for (size_t i = 0; i < n_per_blob; ++i, ++row) {
      for (size_t j = 0; j < d; ++j) {
        x(row, j) = center[j] + spread * rng->NextGaussian();
      }
    }
  }
  return x;
}

TEST(KpcaTest, RejectsDegenerateInput) {
  KernelPca kpca;
  EXPECT_FALSE(kpca.Fit(Matrix(1, 4), KpcaOptions{}));
  EXPECT_FALSE(kpca.Fit(Matrix(5, 0), KpcaOptions{}));
  EXPECT_FALSE(kpca.fitted());
}

TEST(KpcaTest, FitsAndReportsComponents) {
  Rng rng(5);
  Matrix x = GaussianBlobs(20, {{0, 0}, {5, 5}}, 0.3, &rng);
  KernelPca kpca;
  KpcaOptions options;
  ASSERT_TRUE(kpca.Fit(x, options));
  EXPECT_GT(kpca.num_components(), 0u);
  // Eigenvalues descending and positive.
  const auto& values = kpca.eigenvalues();
  for (size_t i = 1; i < values.size(); ++i) EXPECT_LE(values[i], values[i - 1]);
  EXPECT_GT(values.back(), 0.0);
}

TEST(KpcaTest, MaxComponentsRespected) {
  Rng rng(7);
  Matrix x = GaussianBlobs(15, {{0, 0, 0}, {3, 0, 1}, {0, 4, 2}}, 0.5, &rng);
  KernelPca kpca;
  KpcaOptions options;
  options.max_components = 2;
  ASSERT_TRUE(kpca.Fit(x, options));
  EXPECT_EQ(kpca.num_components(), 2u);
}

TEST(KpcaTest, TransformOfTrainingRowsHasUnitVariancePerComponent) {
  // With alpha scaled by 1/sqrt(lambda), the training projections onto each
  // component have variance 1 (coordinates w.r.t. unit eigenvectors in H,
  // scaled by sqrt(lambda)/sqrt(lambda)).
  Rng rng(11);
  Matrix x = GaussianBlobs(30, {{0, 0}, {4, 1}}, 0.6, &rng);
  KernelPca kpca;
  KpcaOptions options;
  options.max_components = 3;
  ASSERT_TRUE(kpca.Fit(x, options));
  Matrix projected = kpca.TransformMatrix(x);
  for (size_t p = 0; p < kpca.num_components(); ++p) {
    double mean = 0.0;
    for (size_t i = 0; i < projected.rows(); ++i) mean += projected(i, p);
    mean /= projected.rows();
    EXPECT_NEAR(mean, 0.0, 1e-6) << "component " << p;
  }
}

TEST(KpcaTest, SeparatesBlobsOnFirstComponent) {
  Rng rng(13);
  Matrix x = GaussianBlobs(25, {{0, 0}, {6, 6}}, 0.4, &rng);
  KernelPca kpca;
  KpcaOptions options;
  options.max_components = 1;
  ASSERT_TRUE(kpca.Fit(x, options));
  Matrix projected = kpca.TransformMatrix(x);
  // All blob-A projections on one side, blob-B on the other.
  double min_a = 1e300;
  double max_a = -1e300;
  double min_b = 1e300;
  double max_b = -1e300;
  for (size_t i = 0; i < 25; ++i) {
    min_a = std::min(min_a, projected(i, 0));
    max_a = std::max(max_a, projected(i, 0));
  }
  for (size_t i = 25; i < 50; ++i) {
    min_b = std::min(min_b, projected(i, 0));
    max_b = std::max(max_b, projected(i, 0));
  }
  EXPECT_TRUE(max_a < min_b || max_b < min_a);
}

TEST(KpcaTest, OutOfSampleNearTrainingPointProjectsNearby) {
  Rng rng(17);
  Matrix x = GaussianBlobs(20, {{0, 0}, {5, 0}}, 0.3, &rng);
  KernelPca kpca;
  KpcaOptions options;
  options.max_components = 2;
  ASSERT_TRUE(kpca.Fit(x, options));
  // A point equal to training row 0 projects exactly like row 0.
  std::vector<double> point{x(0, 0), x(0, 1)};
  std::vector<double> projected = kpca.Transform(point);
  Matrix train_projection = kpca.TransformMatrix(x);
  EXPECT_NEAR(projected[0], train_projection(0, 0), 1e-9);
  EXPECT_NEAR(projected[1], train_projection(0, 1), 1e-9);
}

TEST(KpcaTest, StandardizationNeutralizesDominantScale) {
  // One feature is 1000x the scale of the other; with standardization both
  // matter. Without it, the small feature is invisible to the RBF kernel.
  Rng rng(19);
  Matrix x(40, 2);
  for (size_t i = 0; i < 40; ++i) {
    x(i, 0) = (i < 20 ? 0.0 : 1.0) + 0.01 * rng.NextGaussian();   // Informative.
    x(i, 1) = 1000.0 * rng.NextGaussian();                        // Noise, huge.
  }
  KernelPca with;
  KpcaOptions options;
  options.standardize = true;
  options.max_components = 2;
  ASSERT_TRUE(with.Fit(x, options));
  // The two groups must be separable in the standardized embedding on at
  // least one of the two leading components.
  Matrix projected = with.TransformMatrix(x);
  bool separable = false;
  for (size_t p = 0; p < with.num_components() && !separable; ++p) {
    double max_a = -1e300;
    double min_b = 1e300;
    double min_a = 1e300;
    double max_b = -1e300;
    for (size_t i = 0; i < 20; ++i) {
      max_a = std::max(max_a, projected(i, p));
      min_a = std::min(min_a, projected(i, p));
    }
    for (size_t i = 20; i < 40; ++i) {
      max_b = std::max(max_b, projected(i, p));
      min_b = std::min(min_b, projected(i, p));
    }
    separable = max_a < min_b || max_b < min_a;
  }
  EXPECT_TRUE(separable);
}

TEST(KpcaTest, TransformMatrixRowsAreTransformAtAnyThreadCount) {
  // Enough rows to split across the pool; every row must be bit-identical
  // to the single-point projection.
  Rng rng(13);
  Matrix x = GaussianBlobs(60, {{0, 0, 0, 0}, {3, 1, 0, 2}, {0, 4, 2, 1}}, 0.6, &rng);
  KernelPca kpca;
  ASSERT_TRUE(kpca.Fit(x, KpcaOptions{}));
  for (int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    Matrix projected = kpca.TransformMatrix(x);
    ASSERT_EQ(projected.rows(), x.rows());
    for (size_t i = 0; i < x.rows(); ++i) {
      std::vector<double> point(x.Row(i), x.Row(i) + x.cols());
      std::vector<double> single = kpca.Transform(point);
      std::vector<double> row(projected.Row(i), projected.Row(i) + projected.cols());
      ASSERT_EQ(row, single) << "row " << i << " threads " << threads;
    }
  }
  SetGlobalThreadCount(0);
}

TEST(KernelTest, RbfProperties) {
  double x[2] = {1.0, 2.0};
  double y[2] = {1.0, 2.0};
  EXPECT_EQ(KernelValue(KernelType::kRbf, 0.7, x, y, 2), 1.0);
  double z[2] = {2.0, 2.0};
  double k = KernelValue(KernelType::kRbf, 0.7, x, z, 2);
  EXPECT_NEAR(k, std::exp(-0.7), 1e-12);
  EXPECT_EQ(KernelValue(KernelType::kRbf, 0.7, z, x, 2), k);  // Symmetric.
}

TEST(KernelTest, LinearIsDotProduct) {
  double x[3] = {1, 2, 3};
  double y[3] = {4, 5, 6};
  EXPECT_EQ(KernelValue(KernelType::kLinear, 0, x, y, 3), 32.0);
}

TEST(KernelTest, KernelMatrixSymmetricWithUnitDiagonal) {
  Rng rng(23);
  Matrix x(10, 3);
  for (size_t i = 0; i < 10; ++i)
    for (size_t j = 0; j < 3; ++j) x(i, j) = rng.NextGaussian();
  Matrix k = KernelMatrix(KernelType::kRbf, 0.4, x);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(k(i, i), 1.0);
    for (size_t j = 0; j < 10; ++j) EXPECT_EQ(k(i, j), k(j, i));
  }
}

}  // namespace
}  // namespace semdrift

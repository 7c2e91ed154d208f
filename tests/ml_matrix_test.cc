#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ml/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace semdrift {
namespace {

Matrix RandomSymmetric(size_t n, Rng* rng) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      double v = rng->NextGaussian();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng->NextGaussian();
  }
  Matrix spd = a.Transpose().Multiply(a);
  spd.AddDiagonal(0.5);
  return spd;
}

TEST(MatrixTest, IdentityAndAccess) {
  Matrix id = Matrix::Identity(3);
  EXPECT_EQ(id(0, 0), 1.0);
  EXPECT_EQ(id(0, 1), 0.0);
  EXPECT_EQ(id.Trace(), 3.0);
}

TEST(MatrixTest, TransposeInvolution) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 2) = 5;
  m(1, 1) = -2;
  Matrix tt = m.Transpose().Transpose();
  EXPECT_EQ(tt.MaxAbsDiff(m), 0.0);
  EXPECT_EQ(m.Transpose()(2, 0), 5.0);
}

TEST(MatrixTest, MultiplyKnownValues) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  Matrix c = a.Multiply(b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyByIdentity) {
  Rng rng(3);
  Matrix m(4, 4);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 4; ++j) m(i, j) = rng.NextGaussian();
  EXPECT_LT(m.Multiply(Matrix::Identity(4)).MaxAbsDiff(m), 1e-14);
  EXPECT_LT(Matrix::Identity(4).Multiply(m).MaxAbsDiff(m), 1e-14);
}

TEST(MatrixTest, AddSubScale) {
  Matrix a(1, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  Matrix b(1, 2);
  b(0, 0) = 10;
  b(0, 1) = 20;
  Matrix sum = a.Add(b);
  EXPECT_EQ(sum(0, 1), 22.0);
  Matrix diff = sum.Sub(b);
  EXPECT_LT(diff.MaxAbsDiff(a), 1e-14);
  diff.Scale(3.0);
  EXPECT_EQ(diff(0, 0), 3.0);
  diff.AddInPlace(a, -3.0);
  EXPECT_LT(diff.FrobeniusNormSq(), 1e-24);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(2, 2);
  m(0, 0) = 3;
  m(1, 1) = 4;
  EXPECT_EQ(m.FrobeniusNormSq(), 25.0);
}

TEST(CholeskyTest, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  std::vector<double> b{8, 7};
  std::vector<double> x;
  ASSERT_TRUE(CholeskySolve(a, b, &x));
  // 4x + 2y = 8, 2x + 3y = 7 -> x = 1.25, y = 1.5.
  EXPECT_NEAR(x[0], 1.25, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // Eigenvalues 3 and -1.
  std::vector<double> x;
  EXPECT_FALSE(CholeskySolve(a, {1, 1}, &x));
}

class CholeskyPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CholeskyPropertyTest, ResidualSmallOnRandomSpd) {
  Rng rng(GetParam() * 7919);
  size_t n = GetParam();
  Matrix a = RandomSpd(n, &rng);
  std::vector<double> b(n);
  for (double& v : b) v = rng.NextGaussian();
  std::vector<double> x;
  ASSERT_TRUE(CholeskySolve(a, b, &x));
  for (size_t i = 0; i < n; ++i) {
    double r = -b[i];
    for (size_t j = 0; j < n; ++j) r += a(i, j) * x[j];
    EXPECT_NEAR(r, 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 60));

TEST(LuTest, SolvesNonSymmetric) {
  Matrix a(3, 3);
  double values[3][3] = {{0, 2, 1}, {1, -2, -3}, {-1, 1, 2}};
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 3; ++j) a(i, j) = values[i][j];
  std::vector<double> b{-8, 0, 3};
  std::vector<double> x;
  ASSERT_TRUE(LuSolve(a, b, &x));
  for (size_t i = 0; i < 3; ++i) {
    double r = -b[i];
    for (size_t j = 0; j < 3; ++j) r += a(i, j) * x[j];
    EXPECT_NEAR(r, 0.0, 1e-10);
  }
}

TEST(LuTest, DetectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  std::vector<double> x;
  EXPECT_FALSE(LuSolve(a, {1, 1}, &x));
}

TEST(EigenTest, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 3;
  a(1, 1) = 1;
  a(2, 2) = 2;
  EigenResult eigen = SymmetricEigen(a);
  ASSERT_EQ(eigen.values.size(), 3u);
  EXPECT_NEAR(eigen.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eigen.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eigen.values[2], 3.0, 1e-12);
}

TEST(EigenTest, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  EigenResult eigen = SymmetricEigen(a);
  EXPECT_NEAR(eigen.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eigen.values[1], 3.0, 1e-12);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(eigen.vectors(0, 1)), 1.0 / std::sqrt(2.0), 1e-10);
}

TEST(EigenTest, ZeroDiagonalOffDiagonal) {
  // [[0,1],[1,0]] has eigenvalues -1 and 1.
  Matrix a(2, 2);
  a(0, 1) = 1;
  a(1, 0) = 1;
  EigenResult eigen = SymmetricEigen(a);
  EXPECT_NEAR(eigen.values[0], -1.0, 1e-12);
  EXPECT_NEAR(eigen.values[1], 1.0, 1e-12);
}

TEST(EigenTest, SingleElement) {
  Matrix a(1, 1);
  a(0, 0) = 5.0;
  EigenResult eigen = SymmetricEigen(a);
  ASSERT_EQ(eigen.values.size(), 1u);
  EXPECT_NEAR(eigen.values[0], 5.0, 1e-12);
  EXPECT_NEAR(std::abs(eigen.vectors(0, 0)), 1.0, 1e-12);
}

class EigenPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EigenPropertyTest, ReconstructsMatrix) {
  Rng rng(GetParam() * 104729);
  size_t n = GetParam();
  Matrix a = RandomSymmetric(n, &rng);
  EigenResult eigen = SymmetricEigen(a);
  // Rebuild A = V diag(values) V^T.
  Matrix scaled = eigen.vectors;  // Column p scaled by lambda_p.
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < n; ++i) scaled(i, j) *= eigen.values[j];
  }
  Matrix rebuilt = scaled.Multiply(eigen.vectors.Transpose());
  EXPECT_LT(rebuilt.MaxAbsDiff(a), 1e-8);
}

TEST_P(EigenPropertyTest, VectorsAreOrthonormal) {
  Rng rng(GetParam() * 7 + 1);
  size_t n = GetParam();
  Matrix a = RandomSymmetric(n, &rng);
  EigenResult eigen = SymmetricEigen(a);
  Matrix gram = eigen.vectors.Transpose().Multiply(eigen.vectors);
  EXPECT_LT(gram.MaxAbsDiff(Matrix::Identity(n)), 1e-9);
}

TEST_P(EigenPropertyTest, ValuesAscending) {
  Rng rng(GetParam() * 31 + 5);
  size_t n = GetParam();
  EigenResult eigen = SymmetricEigen(RandomSymmetric(n, &rng));
  for (size_t i = 1; i < n; ++i) EXPECT_LE(eigen.values[i - 1], eigen.values[i]);
}

// 150 is above the order where the eigenvector accumulation and the QL
// rotations move to the thread pool.
INSTANTIATE_TEST_SUITE_P(Sizes, EigenPropertyTest,
                         ::testing::Values(2, 3, 4, 8, 16, 33, 64, 150));

TEST(EigenTest, NanPairIsReportedAsNotConverged) {
  // One poisoned symmetric pair spreads through the whole reduction; the QL
  // iteration can never deflate it. The result must say so instead of
  // coming back as plausible-looking NaN eigenvalues.
  Rng rng(6);
  Matrix a = RandomSymmetric(6, &rng);
  a(1, 4) = std::numeric_limits<double>::quiet_NaN();
  a(4, 1) = a(1, 4);
  EigenResult eigen = SymmetricEigen(a);
  EXPECT_FALSE(eigen.converged);
  EXPECT_TRUE(SymmetricEigen(RandomSymmetric(6, &rng)).converged);
}

TEST(EigenTest, BitIdenticalAtAnyThreadCount) {
  Rng rng(17);
  Matrix a = RandomSymmetric(160, &rng);
  SetGlobalThreadCount(1);
  EigenResult serial = SymmetricEigen(a);
  for (int threads : {2, 4, 8}) {
    SetGlobalThreadCount(threads);
    EigenResult parallel = SymmetricEigen(a);
    EXPECT_EQ(parallel.values, serial.values) << "threads " << threads;
    EXPECT_EQ(parallel.vectors.MaxAbsDiff(serial.vectors), 0.0) << "threads " << threads;
  }
  SetGlobalThreadCount(0);
}

TEST(MatrixTest, TransposeMultiplyIntoMatchesTransposeThenMultiply) {
  // Large enough to split across the pool; zeros exercise the skip.
  Rng rng(23);
  Matrix a(300, 90);
  Matrix b(300, 110);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) a(i, j) = (i + j) % 7 == 0 ? 0.0 : rng.NextGaussian();
    for (size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.NextGaussian();
  }
  Matrix expected = a.Transpose().Multiply(b);
  for (int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    Matrix out(a.cols(), b.cols());
    TransposeMultiplyInto(a, b, &out);
    EXPECT_EQ(out.MaxAbsDiff(expected), 0.0) << "threads " << threads;
  }
  SetGlobalThreadCount(0);
}

TEST(CholeskyTest, InPlaceFactorReadsOnlyTheLowerTriangle) {
  Rng rng(29);
  Matrix a = RandomSymmetric(12, &rng);
  a.AddDiagonal(30.0);  // Diagonally dominant: positive definite.
  std::vector<double> b(12);
  for (double& v : b) v = rng.NextGaussian();
  std::vector<double> expected;
  ASSERT_TRUE(CholeskySolve(a, b, &expected));
  Matrix factor = a;
  for (size_t i = 0; i < 12; ++i) {
    for (size_t j = i + 1; j < 12; ++j) factor(i, j) = 1e300;  // Never read.
  }
  ASSERT_TRUE(CholeskyFactorInPlace(&factor));
  std::vector<double> x(12);
  CholeskyBackSolve(factor, b.data(), x.data());
  EXPECT_EQ(x, expected);
  Matrix nan_system = a;
  nan_system(3, 3) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(CholeskyFactorInPlace(&nan_system));
}

TEST(EigenTest, TraceEqualsEigenSum) {
  Rng rng(99);
  Matrix a = RandomSymmetric(12, &rng);
  EigenResult eigen = SymmetricEigen(a);
  double sum = 0.0;
  for (double v : eigen.values) sum += v;
  EXPECT_NEAR(sum, a.Trace(), 1e-9);
}

}  // namespace
}  // namespace semdrift

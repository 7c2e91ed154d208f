#include "ml/kernel.h"

#include <cmath>

namespace semdrift {

double KernelValue(KernelType type, double gamma, const double* x, const double* y,
                   size_t d) {
  switch (type) {
    case KernelType::kLinear: {
      double dot = 0.0;
      for (size_t i = 0; i < d; ++i) dot += x[i] * y[i];
      return dot;
    }
    case KernelType::kRbf: {
      double dist_sq = 0.0;
      for (size_t i = 0; i < d; ++i) {
        double diff = x[i] - y[i];
        dist_sq += diff * diff;
      }
      return std::exp(-gamma * dist_sq);
    }
  }
  return 0.0;
}

Matrix KernelMatrix(KernelType type, double gamma, const Matrix& x) {
  size_t n = x.rows();
  Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      double v = KernelValue(type, gamma, x.Row(i), x.Row(j), x.cols());
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

}  // namespace semdrift

#ifndef SEMDRIFT_ML_KERNEL_H_
#define SEMDRIFT_ML_KERNEL_H_

#include <cstddef>

#include "ml/matrix.h"

namespace semdrift {

/// Kernel choices for the non-linear mapping phi into the Hilbert space H
/// (Sec. 3.3.1).
enum class KernelType {
  kLinear,
  /// k(x, y) = exp(-gamma * ||x - y||^2).
  kRbf,
};

/// Evaluates k(x, y) for two d-dimensional points.
double KernelValue(KernelType type, double gamma, const double* x, const double* y,
                   size_t d);

/// Full kernel matrix over the rows of `x` (rows are samples).
Matrix KernelMatrix(KernelType type, double gamma, const Matrix& x);

}  // namespace semdrift

#endif  // SEMDRIFT_ML_KERNEL_H_

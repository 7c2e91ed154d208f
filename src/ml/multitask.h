#ifndef SEMDRIFT_ML_MULTITASK_H_
#define SEMDRIFT_ML_MULTITASK_H_

#include <vector>

#include "ml/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace semdrift {

/// One learning task (one concept's DP detector): labeled inputs in the
/// shared r-dimensional KPCA representation (rows = labeled samples) and
/// one-hot targets (rows parallel to xl; columns = the 3 DP categories).
struct LearningTask {
  Matrix xl;  // m_c x r
  Matrix y;   // m_c x num_outputs (3: Intentional / Accidental / non-DP)
};

/// Hyper-parameters of Eq. 15 / Eq. 18.
struct MultiTaskOptions {
  /// Weight of the whole regularizer block (lambda in Eq. 15/18).
  double lambda = 0.1;
  /// Weight of the l2,1 (multi-task) or ||W||_F (single-task) term (beta).
  double beta = 0.5;
  /// Weight of the global Frobenius term in Eq. 18 (gamma).
  double gamma = 0.1;
  /// Alternating-minimization budget for Algorithm 1.
  int max_iterations = 50;
  /// Relative objective-decrease threshold for convergence.
  double tolerance = 1e-6;
  /// Numerical floor for ||w_i|| in D_ii = 1 / (2 ||w_i||).
  double norm_floor = 1e-8;
  /// Seed of the random W initialization (Algorithm 1 step 1).
  uint64_t seed = 1234;
};

/// Result of training: one classifier per task, Wc in r x num_outputs; a
/// sample x~ is classified as argmax of Wc^T x~. `objective_trace` records
/// the Eq. 18 value per iteration (Theorem 1 says it must be monotonically
/// non-increasing — asserted in tests and plotted by Fig. 5(c)). When a
/// task's linear system is not positive definite (e.g. NaN in its xl),
/// `status` names the lowest such task and `w` is empty.
struct MultiTaskResult {
  std::vector<Matrix> w;
  std::vector<double> objective_trace;
  Status status;
};

/// Single-task semi-supervised training (Eq. 15): closed form
///   Wc = (Xl^T Xl + lambda A + lambda beta I)^(-1) Xl^T Y.
/// `a` is the manifold regularizer over labeled + unlabeled data (r x r).
/// Returns an empty (0 x 0) matrix when the system is not positive definite.
Matrix TrainSemiSupervised(const LearningTask& task, const Matrix& a,
                           const MultiTaskOptions& options);

/// Eq. 15 for every task, solved on the thread pool; each Wc is
/// bit-identical to TrainSemiSupervised on that task alone.
MultiTaskResult TrainSemiSupervisedTasks(const std::vector<LearningTask>& tasks,
                                         const Matrix& a,
                                         const MultiTaskOptions& options);

/// Plain ridge least squares (no manifold term) — the fully supervised
/// linear baseline: Wc = (Xl^T Xl + lambda beta I)^(-1) Xl^T Y. Returns an
/// empty matrix when the system is not positive definite.
Matrix TrainRidge(const LearningTask& task, const MultiTaskOptions& options);

/// Algorithm 1: joint semi-supervised multi-task training of all tasks with
/// the shared manifold regularizer `a` and the l2,1 shared-structure term.
/// All tasks must share the representation dimension r = a.rows(). Within
/// an iteration the per-task Eq. 20 systems (independent once the shared
/// column norms are fixed) and objective terms run on the thread pool; the
/// result is bit-identical at any thread count.
MultiTaskResult TrainMultiTask(const std::vector<LearningTask>& tasks,
                               const Matrix& a, const MultiTaskOptions& options);

/// The Eq. 18 objective for a given solution (exposed for tests of
/// Theorem 1 and for the Fig. 5(c) bench).
double MultiTaskObjective(const std::vector<LearningTask>& tasks, const Matrix& a,
                          const std::vector<Matrix>& w,
                          const MultiTaskOptions& options);

/// Argmax class of Wc^T x~ for an r-dimensional input.
int PredictClass(const Matrix& wc, const std::vector<double>& x);

}  // namespace semdrift

#endif  // SEMDRIFT_ML_MULTITASK_H_

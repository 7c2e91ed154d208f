#include "ml/multitask.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/thread_pool.h"

namespace semdrift {

namespace {

/// Multiply-adds a block of per-task work should reach before the tasks
/// split across the pool.
constexpr size_t kTaskGrainWork = size_t{1} << 17;

/// Blocks of tasks that each cost about `work_per_task` multiply-adds.
BlockRange TaskBlocks(size_t tasks, size_t work_per_task) {
  size_t work = std::max<size_t>(work_per_task, 1);
  return SplitBlocks(tasks, (kTaskGrainWork + work - 1) / work);
}

/// ||Xl Wc - Y||_F^2.
double FitLoss(const LearningTask& task, const Matrix& wc) {
  Matrix pred = task.xl.Multiply(wc);
  return pred.Sub(task.y).FrobeniusNormSq();
}

/// Tr(Wc^T A Wc).
double ManifoldTerm(const Matrix& a, const Matrix& wc) {
  return wc.Transpose().Multiply(a.Multiply(wc)).Trace();
}

/// ||w_i|| for every shared-structure column i: w_i stacks row i of every
/// task's Wc (W = [W1; ...; Wt]^T in the paper, w_i its i-th column).
std::vector<double> SharedColumnNorms(const std::vector<Matrix>& w) {
  size_t r = w.empty() ? 0 : w[0].rows();
  std::vector<double> norms(r, 0.0);
  for (const Matrix& wc : w) {
    for (size_t i = 0; i < r; ++i) {
      for (size_t o = 0; o < wc.cols(); ++o) norms[i] += wc(i, o) * wc(i, o);
    }
  }
  for (double& v : norms) v = std::sqrt(v);
  return norms;
}

/// Scratch of one block of per-task solves, allocated by the calling thread
/// so pool workers only fill it: the system matrix (factored in place) and
/// two columns.
struct SolveScratch {
  explicit SolveScratch(size_t r) : lhs(r, r), columns(2 * r) {}
  Matrix lhs;
  std::vector<double> columns;
};

/// Lower triangle of scratch->lhs = gram + lambda * a, the part the
/// factorization reads; elementwise what gram.AddInPlace(a, lambda) does
/// (`gram` may be scratch->lhs itself).
void FillSystem(const Matrix& gram, const Matrix& a, double lambda,
                SolveScratch* scratch) {
  for (size_t i = 0; i < gram.rows(); ++i) {
    for (size_t j = 0; j <= i; ++j) scratch->lhs(i, j) = gram(i, j) + lambda * a(i, j);
  }
}

/// Factors scratch->lhs in place and solves lhs W = cross column by column
/// into *w (pre-shaped r x outputs; may be `cross` itself). Returns false,
/// leaving *w untouched, when lhs is not positive definite.
bool SolveFilled(const Matrix& cross, SolveScratch* scratch, Matrix* w) {
  if (!CholeskyFactorInPlace(&scratch->lhs)) return false;
  size_t r = scratch->lhs.rows();
  double* column = scratch->columns.data();
  double* solved = column + r;
  for (size_t o = 0; o < cross.cols(); ++o) {
    for (size_t i = 0; i < r; ++i) column[i] = cross(i, o);
    CholeskyBackSolve(scratch->lhs, column, solved);
    for (size_t i = 0; i < r; ++i) (*w)(i, o) = solved[i];
  }
  return true;
}

/// Runs solve(task, scratch) for every task on the pool, one scratch per
/// block. Returns the lowest task index whose solve failed, or
/// tasks.size() when all succeeded.
size_t SolveAll(size_t num_tasks, size_t r,
                const std::function<bool(size_t, SolveScratch*)>& solve) {
  BlockRange blocks = TaskBlocks(num_tasks, r * r * r / 6 + 1);
  std::vector<SolveScratch> scratch(blocks.blocks, SolveScratch(r));
  std::vector<size_t> first_failure(blocks.blocks, num_tasks);
  ParallelForBlocks(blocks, [&](size_t b, size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      if (!solve(c, &scratch[b])) {
        first_failure[b] = c;
        return;
      }
    }
  });
  return *std::min_element(first_failure.begin(), first_failure.end());
}

/// Xl^T Xl and Xl^T Y of every task, computed on the pool into matrices the
/// calling thread allocated.
void LabeledProducts(const std::vector<LearningTask>& tasks, size_t r,
                     std::vector<Matrix>* grams, std::vector<Matrix>* crosses) {
  size_t outputs = tasks.empty() ? 0 : tasks[0].y.cols();
  grams->assign(tasks.size(), Matrix(r, r));
  crosses->assign(tasks.size(), Matrix(r, outputs));
  size_t rows = tasks.empty() ? 0 : tasks[0].xl.rows();
  ParallelForBlocks(TaskBlocks(tasks.size(), rows * r * (r + outputs)),
                    [&](size_t, size_t begin, size_t end) {
                      for (size_t c = begin; c < end; ++c) {
                        TransposeMultiplyInto(tasks[c].xl, tasks[c].xl, &(*grams)[c]);
                        TransposeMultiplyInto(tasks[c].xl, tasks[c].y, &(*crosses)[c]);
                      }
                    });
}

Status SolveFailure(const char* system, size_t task, int iteration) {
  std::string where = "task " + std::to_string(task);
  if (iteration >= 0) where += ", iteration " + std::to_string(iteration + 1);
  return Status::Internal(std::string(system) + " system is not positive definite (" +
                          where + ")");
}

}  // namespace

Matrix TrainSemiSupervised(const LearningTask& task, const Matrix& a,
                           const MultiTaskOptions& options) {
  MultiTaskResult result = TrainSemiSupervisedTasks({task}, a, options);
  return result.status.ok() ? std::move(result.w[0]) : Matrix();
}

MultiTaskResult TrainSemiSupervisedTasks(const std::vector<LearningTask>& tasks,
                                         const Matrix& a,
                                         const MultiTaskOptions& options) {
  size_t r = a.rows();
  MultiTaskResult result;
  result.w.assign(tasks.size(), Matrix(r, tasks.empty() ? 0 : tasks[0].y.cols()));
  // Wc = (Xl^T Xl + lambda A + lambda beta I)^(-1) Xl^T Y, independently per
  // task. Each system is used once, so its gram is built in the block's
  // system matrix and Xl^T Y in Wc itself (SolveFilled copies each column
  // out before overwriting it).
  size_t failed = SolveAll(tasks.size(), r, [&](size_t c, SolveScratch* scratch) {
    assert(tasks[c].xl.cols() == r);
    TransposeMultiplyInto(tasks[c].xl, tasks[c].xl, &scratch->lhs);
    FillSystem(scratch->lhs, a, options.lambda, scratch);
    for (size_t i = 0; i < r; ++i) scratch->lhs(i, i) += options.lambda * options.beta;
    TransposeMultiplyInto(tasks[c].xl, tasks[c].y, &result.w[c]);
    return SolveFilled(result.w[c], scratch, &result.w[c]);
  });
  if (failed < tasks.size()) {
    result.status = SolveFailure("Eq. 15", failed, -1);
    result.w.clear();
  }
  return result;
}

Matrix TrainRidge(const LearningTask& task, const MultiTaskOptions& options) {
  size_t r = task.xl.cols();
  Matrix gram(r, r);
  Matrix cross(r, task.y.cols());
  TransposeMultiplyInto(task.xl, task.xl, &gram);
  TransposeMultiplyInto(task.xl, task.y, &cross);
  SolveScratch scratch(r);
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < i; ++j) scratch.lhs(i, j) = gram(i, j);
    scratch.lhs(i, i) = gram(i, i) + std::max(options.lambda * options.beta, 1e-8);
  }
  Matrix wc(r, task.y.cols());
  return SolveFilled(cross, &scratch, &wc) ? wc : Matrix();
}

double MultiTaskObjective(const std::vector<LearningTask>& tasks, const Matrix& a,
                          const std::vector<Matrix>& w,
                          const MultiTaskOptions& options) {
  // Per-task terms in parallel, summed in task order below.
  size_t r = a.rows();
  std::vector<double> fit(tasks.size()), manifold(tasks.size()), frob(tasks.size());
  ParallelForBlocks(TaskBlocks(tasks.size(), 4 * r * r), [&](size_t, size_t begin,
                                                             size_t end) {
    for (size_t c = begin; c < end; ++c) {
      fit[c] = FitLoss(tasks[c], w[c]);
      manifold[c] = ManifoldTerm(a, w[c]);
      frob[c] = w[c].FrobeniusNormSq();
    }
  });
  double objective = 0.0;
  double frobenius = 0.0;
  for (size_t c = 0; c < tasks.size(); ++c) {
    objective += fit[c];
    objective += options.lambda * manifold[c];
    frobenius += frob[c];
  }
  double l21 = 0.0;
  for (double norm : SharedColumnNorms(w)) l21 += norm;
  objective += options.lambda * options.beta * l21;
  objective += options.lambda * options.gamma * frobenius;
  return objective;
}

MultiTaskResult TrainMultiTask(const std::vector<LearningTask>& tasks,
                               const Matrix& a, const MultiTaskOptions& options) {
  assert(!tasks.empty());
  size_t r = a.rows();
  size_t outputs = tasks[0].y.cols();

  MultiTaskResult result;
  Rng rng(options.seed);
  result.w.reserve(tasks.size());
  for (const LearningTask& task : tasks) {
    assert(task.xl.cols() == r && task.y.cols() == outputs);
    (void)task;
    Matrix wc(r, outputs);
    for (size_t i = 0; i < r; ++i) {
      for (size_t o = 0; o < outputs; ++o) wc(i, o) = 0.01 * rng.NextGaussian();
    }
    result.w.push_back(std::move(wc));
  }

  // Precompute per-task constants.
  std::vector<Matrix> grams, crosses;
  LabeledProducts(tasks, r, &grams, &crosses);

  double previous = MultiTaskObjective(tasks, a, result.w, options);
  result.objective_trace.push_back(previous);
  std::vector<double> shared(r);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // D_ii = 1 / (2 ||w_i||), shared across tasks; with it fixed, the tasks'
    // systems are independent.
    std::vector<double> norms = SharedColumnNorms(result.w);
    for (size_t i = 0; i < r; ++i) {
      double d_ii = 1.0 / (2.0 * std::max(norms[i], options.norm_floor));
      shared[i] = options.lambda * options.beta * d_ii;
    }
    // Wc = (Xl Xl^T + lambda A + lambda beta D + lambda gamma I)^(-1) Xl Yc
    // (Eq. 20; our orientation uses Xl^T Xl etc., rows = samples).
    size_t failed = SolveAll(tasks.size(), r, [&](size_t c, SolveScratch* scratch) {
      FillSystem(grams[c], a, options.lambda, scratch);
      for (size_t i = 0; i < r; ++i) scratch->lhs(i, i) += shared[i];
      for (size_t i = 0; i < r; ++i) scratch->lhs(i, i) += options.lambda * options.gamma;
      return SolveFilled(crosses[c], scratch, &result.w[c]);
    });
    if (failed < tasks.size()) {
      result.status = SolveFailure("Eq. 20", failed, iter);
      result.w.clear();
      return result;
    }
    double objective = MultiTaskObjective(tasks, a, result.w, options);
    result.objective_trace.push_back(objective);
    if (previous - objective < options.tolerance * std::abs(previous)) break;
    previous = objective;
  }
  return result;
}

int PredictClass(const Matrix& wc, const std::vector<double>& x) {
  assert(x.size() == wc.rows());
  int best = 0;
  double best_score = -1e300;
  for (size_t o = 0; o < wc.cols(); ++o) {
    double score = 0.0;
    for (size_t i = 0; i < wc.rows(); ++i) score += wc(i, o) * x[i];
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(o);
    }
  }
  return best;
}

}  // namespace semdrift

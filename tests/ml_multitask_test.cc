#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "ml/manifold.h"
#include "ml/multitask.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace semdrift {
namespace {

/// A linearly separable 2-class task in r dimensions: class = sign of the
/// first coordinate.
LearningTask MakeSeparableTask(size_t m, size_t r, Rng* rng) {
  LearningTask task;
  task.xl = Matrix(m, r);
  task.y = Matrix(m, 2);
  for (size_t i = 0; i < m; ++i) {
    double sign = i % 2 == 0 ? 1.0 : -1.0;
    task.xl(i, 0) = sign * (1.0 + 0.1 * rng->NextDouble());
    for (size_t j = 1; j < r; ++j) task.xl(i, j) = 0.05 * rng->NextGaussian();
    task.y(i, sign > 0 ? 0 : 1) = 1.0;
  }
  return task;
}

TEST(RidgeTest, FitsSeparableTask) {
  Rng rng(3);
  LearningTask task = MakeSeparableTask(40, 3, &rng);
  MultiTaskOptions options;
  Matrix w = TrainRidge(task, options);
  ASSERT_EQ(w.rows(), 3u);
  ASSERT_EQ(w.cols(), 2u);
  int correct = 0;
  for (size_t i = 0; i < task.xl.rows(); ++i) {
    std::vector<double> x(3);
    for (size_t j = 0; j < 3; ++j) x[j] = task.xl(i, j);
    int predicted = PredictClass(w, x);
    int actual = task.y(i, 0) > 0.5 ? 0 : 1;
    correct += predicted == actual;
  }
  EXPECT_EQ(correct, 40);
}

TEST(RidgeTest, MatchesManualNormalEquations) {
  // Tiny task solved by hand: one feature, two samples.
  LearningTask task;
  task.xl = Matrix(2, 1);
  task.xl(0, 0) = 1.0;
  task.xl(1, 0) = 2.0;
  task.y = Matrix(2, 1);
  task.y(0, 0) = 1.0;
  task.y(1, 0) = 2.0;
  MultiTaskOptions options;
  options.lambda = 1.0;
  options.beta = 1.0;
  Matrix w = TrainRidge(task, options);
  // w = (X^T X + 1)^{-1} X^T y = (5 + 1)^{-1} * 5 = 5/6.
  EXPECT_NEAR(w(0, 0), 5.0 / 6.0, 1e-12);
}

TEST(SemiSupervisedTest, ReducesToRidgeWithZeroRegularizer) {
  Rng rng(5);
  LearningTask task = MakeSeparableTask(30, 4, &rng);
  Matrix zero(4, 4);
  MultiTaskOptions options;
  Matrix w_semi = TrainSemiSupervised(task, zero, options);
  Matrix w_ridge = TrainRidge(task, options);
  EXPECT_LT(w_semi.MaxAbsDiff(w_ridge), 1e-10);
}

TEST(SemiSupervisedTest, ManifoldShrinksAlongPenalizedDirection) {
  Rng rng(7);
  LearningTask task = MakeSeparableTask(30, 2, &rng);
  // Penalize the informative dimension 0 heavily.
  Matrix a(2, 2);
  a(0, 0) = 100.0;
  MultiTaskOptions options;
  options.lambda = 1.0;
  Matrix w_plain = TrainSemiSupervised(task, Matrix(2, 2), options);
  Matrix w_penalized = TrainSemiSupervised(task, a, options);
  EXPECT_LT(std::abs(w_penalized(0, 0)), std::abs(w_plain(0, 0)));
}

TEST(MultiTaskTest, ObjectiveMonotoneNonIncreasing) {
  // Theorem 1: the Eq. 18 objective decreases monotonically.
  Rng rng(11);
  std::vector<LearningTask> tasks;
  for (int t = 0; t < 4; ++t) tasks.push_back(MakeSeparableTask(24, 5, &rng));
  Matrix x_pool(40, 5);
  for (size_t i = 0; i < 40; ++i)
    for (size_t j = 0; j < 5; ++j) x_pool(i, j) = rng.NextGaussian();
  ManifoldOptions manifold_options;
  manifold_options.k = 4;
  Matrix a = BuildManifoldRegularizer(x_pool, manifold_options);
  MultiTaskOptions options;
  options.max_iterations = 25;
  MultiTaskResult result = TrainMultiTask(tasks, a, options);
  ASSERT_GE(result.objective_trace.size(), 2u);
  for (size_t i = 1; i < result.objective_trace.size(); ++i) {
    EXPECT_LE(result.objective_trace[i], result.objective_trace[i - 1] + 1e-9)
        << "iteration " << i;
  }
}

TEST(MultiTaskTest, ConvergesAndClassifies) {
  Rng rng(13);
  std::vector<LearningTask> tasks;
  for (int t = 0; t < 3; ++t) tasks.push_back(MakeSeparableTask(30, 4, &rng));
  Matrix a(4, 4);  // No manifold: isolate the l2,1 structure.
  MultiTaskOptions options;
  MultiTaskResult result = TrainMultiTask(tasks, a, options);
  ASSERT_EQ(result.w.size(), 3u);
  for (size_t t = 0; t < tasks.size(); ++t) {
    int correct = 0;
    for (size_t i = 0; i < tasks[t].xl.rows(); ++i) {
      std::vector<double> x(4);
      for (size_t j = 0; j < 4; ++j) x[j] = tasks[t].xl(i, j);
      int predicted = PredictClass(result.w[t], x);
      int actual = tasks[t].y(i, 0) > 0.5 ? 0 : 1;
      correct += predicted == actual;
    }
    EXPECT_GT(correct, 27) << "task " << t;
  }
}

TEST(MultiTaskTest, StrongerL21ShrinksSharedColumnNorms) {
  // Increasing the l2,1 weight must shrink the joint column-norm total
  // (the shared-structure sparsity the paper's Eq. 18 encodes).
  Rng rng(17);
  std::vector<LearningTask> tasks;
  for (int t = 0; t < 5; ++t) tasks.push_back(MakeSeparableTask(20, 3, &rng));
  Matrix a(3, 3);
  auto l21_total = [](const std::vector<Matrix>& w) {
    double total = 0.0;
    size_t r = w[0].rows();
    for (size_t i = 0; i < r; ++i) {
      double norm_sq = 0.0;
      for (const Matrix& wc : w) {
        for (size_t o = 0; o < wc.cols(); ++o) norm_sq += wc(i, o) * wc(i, o);
      }
      total += std::sqrt(norm_sq);
    }
    return total;
  };
  MultiTaskOptions weak;
  weak.beta = 0.01;
  MultiTaskOptions strong;
  strong.beta = 10.0;
  double weak_norm = l21_total(TrainMultiTask(tasks, a, weak).w);
  double strong_norm = l21_total(TrainMultiTask(tasks, a, strong).w);
  EXPECT_LT(strong_norm, weak_norm);
}

TEST(MultiTaskTest, ObjectiveValueMatchesHelper) {
  Rng rng(19);
  std::vector<LearningTask> tasks{MakeSeparableTask(10, 2, &rng)};
  Matrix a(2, 2);
  MultiTaskOptions options;
  options.max_iterations = 5;
  MultiTaskResult result = TrainMultiTask(tasks, a, options);
  double recomputed = MultiTaskObjective(tasks, a, result.w, options);
  EXPECT_NEAR(recomputed, result.objective_trace.back(), 1e-9);
}

/// Tasks over a shared r-dimensional representation with a regularizer
/// from a random pool (enough tasks for the solves to split across the
/// pool).
struct TaskSet {
  std::vector<LearningTask> tasks;
  Matrix a;
};

TaskSet MakeTaskSet(size_t count, size_t r, uint64_t seed) {
  Rng rng(seed);
  TaskSet set;
  for (size_t t = 0; t < count; ++t) set.tasks.push_back(MakeSeparableTask(16, r, &rng));
  Matrix x_pool(60, r);
  for (size_t i = 0; i < x_pool.rows(); ++i) {
    for (size_t j = 0; j < r; ++j) x_pool(i, j) = rng.NextGaussian();
  }
  set.a = BuildManifoldRegularizer(x_pool, ManifoldOptions{});
  return set;
}

TEST(MultiTaskTest, NanInOneTaskFailsWithThatTask) {
  // A task whose Eq. 20 system cannot be factored must fail the whole
  // solve, naming the lowest failing task at every thread count, rather
  // than yield a 0 x 0 classifier that later code averages or applies.
  TaskSet set = MakeTaskSet(12, 30, 41);
  set.tasks[5].xl(3, 2) = std::numeric_limits<double>::quiet_NaN();
  set.tasks[9].xl(0, 0) = std::numeric_limits<double>::quiet_NaN();
  for (int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    MultiTaskResult result = TrainMultiTask(set.tasks, set.a, MultiTaskOptions{});
    EXPECT_FALSE(result.status.ok()) << "threads " << threads;
    EXPECT_NE(result.status.ToString().find("task 5"), std::string::npos)
        << result.status.ToString();
    EXPECT_TRUE(result.w.empty());
    MultiTaskResult single =
        TrainSemiSupervisedTasks(set.tasks, set.a, MultiTaskOptions{});
    EXPECT_FALSE(single.status.ok());
    EXPECT_NE(single.status.ToString().find("task 5"), std::string::npos);
  }
  SetGlobalThreadCount(0);
  Matrix w = TrainSemiSupervised(set.tasks[5], set.a, MultiTaskOptions{});
  EXPECT_EQ(w.rows(), 0u);
  EXPECT_EQ(TrainRidge(set.tasks[9], MultiTaskOptions{}).rows(), 0u);
}

TEST(MultiTaskTest, ParallelSolvesMatchOneTaskAtATime) {
  TaskSet set = MakeTaskSet(12, 30, 43);
  MultiTaskOptions options;
  for (int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    MultiTaskResult batch = TrainSemiSupervisedTasks(set.tasks, set.a, options);
    ASSERT_TRUE(batch.status.ok());
    ASSERT_EQ(batch.w.size(), set.tasks.size());
    for (size_t t = 0; t < set.tasks.size(); ++t) {
      Matrix one = TrainSemiSupervised(set.tasks[t], set.a, options);
      EXPECT_EQ(batch.w[t].MaxAbsDiff(one), 0.0) << "task " << t;
    }
  }
  SetGlobalThreadCount(1);
  MultiTaskResult serial = TrainMultiTask(set.tasks, set.a, options);
  SetGlobalThreadCount(4);
  MultiTaskResult parallel = TrainMultiTask(set.tasks, set.a, options);
  SetGlobalThreadCount(0);
  EXPECT_EQ(parallel.objective_trace, serial.objective_trace);
  for (size_t t = 0; t < set.tasks.size(); ++t) {
    EXPECT_EQ(parallel.w[t].MaxAbsDiff(serial.w[t]), 0.0) << "task " << t;
  }
}

TEST(PredictClassTest, PicksArgmaxColumn) {
  Matrix w(2, 3);
  w(0, 0) = 1.0;   // Class 0 score = x0.
  w(1, 1) = 1.0;   // Class 1 score = x1.
  w(0, 2) = -1.0;  // Class 2 score = -x0.
  EXPECT_EQ(PredictClass(w, {2.0, 1.0}), 0);
  EXPECT_EQ(PredictClass(w, {0.5, 3.0}), 1);
  EXPECT_EQ(PredictClass(w, {-5.0, -4.0}), 2);
}

}  // namespace
}  // namespace semdrift

// Arithmetic the benchmark reports with: percentiles that carry their sample
// count, failure shares that carry their base, and backlog detection over a
// completion series. Kept free of semdrift types so the tests can feed
// synthetic data.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in (0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);

/// True when at least `min_beyond` samples lie above the q-th percentile, the
/// rule for reporting a tail percentile at all (p99 needs 1,000 samples).
bool PercentileSupported(size_t count, double q, size_t min_beyond = 10);

/// Median and p99 of one timing, with the number of samples behind them.
struct Quantiles {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

Quantiles Summarize(const std::vector<double>& samples);

/// Tail percentile robust to a rare stall of the whole machine: the samples
/// (in arrival order) are cut into consecutive windows of at least
/// `min_window` samples (at most `max_windows` of them), and the median of
/// the windows' q-th percentiles is returned. With one window this is the
/// plain percentile.
double WindowedPercentile(const std::vector<double>& samples, double q, size_t min_window,
                          size_t max_windows);

/// Operations attempted and failed; the shares are only meaningful with the
/// base printed next to them.
struct FailureCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const FailureCount& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  /// failed / attempted; 1 when nothing was attempted (an empty run is a
  /// failed run, never a perfect one).
  double FailedShare() const;
  double OkShare() const { return 1.0 - FailedShare(); }
};

/// One open-loop request: when it was due, and when its answer arrived
/// (answered == false: never answered before the drain deadline).
struct Completion {
  double due_us = 0.0;
  double done_us = 0.0;
  bool answered = false;
};

/// Backlog verdict for one load rung. Requests are split by due time into
/// quarters; the backlog grows when any request went unanswered or when the
/// median latency of the last quarter exceeds that of the first by more than
/// max(tolerance_us, first-quarter median). A stable queue keeps latency flat
/// over the rung; an offered rate above capacity makes it climb linearly.
struct BacklogVerdict {
  bool growing = false;
  double first_quarter_p50_us = 0.0;
  double last_quarter_p50_us = 0.0;
  size_t unanswered = 0;
};

BacklogVerdict DetectBacklog(const std::vector<Completion>& series,
                             double tolerance_us);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

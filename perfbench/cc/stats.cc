#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q / 100.0 * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

bool PercentileSupported(size_t count, double q, size_t min_beyond) {
  double beyond = static_cast<double>(count) * (1.0 - q / 100.0);
  return beyond + 1e-9 >= static_cast<double>(min_beyond);
}

Quantiles Summarize(const std::vector<double>& samples) {
  Quantiles q;
  q.count = samples.size();
  q.p50 = Percentile(samples, 50.0);
  q.p99 = Percentile(samples, 99.0);
  return q;
}

double WindowedPercentile(const std::vector<double>& samples, double q, size_t min_window,
                          size_t max_windows) {
  size_t windows = std::min(max_windows, std::max<size_t>(1, samples.size() / min_window));
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    size_t begin = samples.size() * w / windows;
    size_t end = samples.size() * (w + 1) / windows;
    tails.push_back(Percentile(std::vector<double>(samples.begin() + begin,
                                                   samples.begin() + end),
                               q));
  }
  return Percentile(std::move(tails), 50.0);
}

double FailureCount::FailedShare() const {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

BacklogVerdict DetectBacklog(const std::vector<Completion>& series,
                             double tolerance_us) {
  BacklogVerdict verdict;
  std::vector<const Completion*> by_due;
  by_due.reserve(series.size());
  for (const Completion& c : series) {
    if (!c.answered) ++verdict.unanswered;
    by_due.push_back(&c);
  }
  if (verdict.unanswered > 0) verdict.growing = true;
  if (by_due.size() < 8) return verdict;
  std::stable_sort(by_due.begin(), by_due.end(),
                   [](const Completion* a, const Completion* b) {
                     return a->due_us < b->due_us;
                   });
  size_t quarter = by_due.size() / 4;
  auto quarter_p50 = [&](size_t begin) {
    std::vector<double> latency;
    latency.reserve(quarter);
    for (size_t i = begin; i < begin + quarter; ++i) {
      if (by_due[i]->answered) latency.push_back(by_due[i]->done_us - by_due[i]->due_us);
    }
    return Percentile(std::move(latency), 50.0);
  };
  verdict.first_quarter_p50_us = quarter_p50(0);
  verdict.last_quarter_p50_us = quarter_p50(by_due.size() - quarter);
  double allowed = std::max(tolerance_us, verdict.first_quarter_p50_us);
  if (verdict.last_quarter_p50_us - verdict.first_quarter_p50_us > allowed) {
    verdict.growing = true;
  }
  return verdict;
}

}  // namespace perfbench

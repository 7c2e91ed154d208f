// Span recording for the traced runs. The benchmark records its own spans,
// around calls into each layer's public entry points, into the program's
// recorder (GlobalTrace(), src/obs/trace.h); with that recorder enabled the
// program's own spans (stream.extract, clean.round, detector.train, ...)
// land in the same in-memory timeline, which TraceRecorder::WriteJsonl
// writes out when the run ends. This file adds the parent links of the
// benchmark's spans and the per-layer table built from the timeline.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// RAII span recorded into GlobalTrace() when it is enabled. Tags: "key"
/// (this span's id among the benchmark's spans), "parent" (the key of the
/// enclosing BenchSpan on this thread, 0 for none) and, when given,
/// "round" (the cleaning round or epoch the span belongs to).
class BenchSpan {
 public:
  explicit BenchSpan(std::string name, int64_t round = -1);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

  uint64_t key() const { return key_; }
  /// Microseconds since the span started (also when tracing is off).
  double ElapsedUs() const;

 private:
  semdrift::ScopedSpan span_;
  uint64_t key_ = 0;
  double start_us_ = 0.0;
};

/// Records one request's pass through a hop, ending now, from any thread.
/// Tags: "request" (its index in the pass) and "parent" (the pass's key).
/// Request spans overlap in time, so the layer table leaves them out.
void RecordRequestSpan(const char* name, double duration_us, size_t request,
                       uint64_t parent);

/// One row of the per-layer table: every span of one name.
struct LayerRow {
  std::string name;
  size_t count = 0;
  /// Summed self time: durations minus the time child spans cover.
  double self_ms = 0.0;
  /// Summed durations.
  double total_ms = 0.0;
  /// Per-call duration percentiles (0 when too few calls to support them).
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct LayerTable {
  std::vector<LayerRow> rows;
  /// Duration of the root span, and its self time: the part of the traced
  /// wall no layer span covers.
  double wall_ms = 0.0;
  double residual_ms = 0.0;

  const LayerRow* Find(const std::string& name) const;
  /// Summed duration / count of the spans called `name` (0 when none).
  double TotalMs(const std::string& name) const;
  size_t Count(const std::string& name) const;
};

/// Builds the table from spans in recording order (as TraceRecorder keeps
/// them), recorded since tracing was enabled for the run's root span: the
/// last span called `root`. Only spans on the root's thread count; request
/// spans are left out. Spans are recorded when they end and nest on a
/// thread, so a span's children are the spans recorded before it on its
/// thread that ended after it started and had no parent yet.
LayerTable BuildLayerTable(const std::vector<semdrift::TraceSpan>& spans,
                           const std::string& root);

/// Prints `table` with its residual row as an aligned table to stdout.
void PrintLayerTable(const std::string& title, const LayerTable& table);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

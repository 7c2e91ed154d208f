// The four workloads. Each runs the same phases with its own inputs: set-up,
// a write path that builds and installs snapshot generations, and the read
// phase against what it installed, so every end-to-end metric has one
// definition on every workload. Each fills `report` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) and counts
// every output check in the report's failure count.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"
#include "read_phase.h"
#include "requests.h"
#include "spans.h"

namespace perfbench {

void BatchClean(const RunContext& ctx, Report* report);
void StreamEpochs(const RunContext& ctx, Report* report);
void ServeRead(const RunContext& ctx, Report* report);
void ServeSwap(const RunContext& ctx, Report* report);

/// The seed of the request generator for a workload seed.
uint64_t RequestSeed(uint64_t seed);

/// Reads peak_rss_mb, then serves the single generation `reader` from
/// `router` for the read metrics, checking answers against a cache-less
/// engine over that generation.
void ReadPhaseOn(const RunContext& ctx, const semdrift::SnapshotReader& reader,
                 semdrift::ShardRouter* router, Report* report);

/// The traced read path over one generation (see TraceReadPath); returns the
/// socket overhead percentage.
double TraceReadPhaseOn(const RunContext& ctx, const semdrift::SnapshotReader& reader,
                        semdrift::SnapshotManager* manager, Report* report);

/// Starts a traced run: clears GlobalTrace() and enables it.
void StartTrace();

/// Ends a traced run whose root span has ended: builds and prints the layer
/// table, reports residual_ms, sets every per-layer metric not yet reported
/// to 0 (the layer does not run in this workload, or the program records
/// nothing for it), writes the spans as JSONL and disables the recorder.
LayerTable FinishTrace(const RunContext& ctx, const std::string& root, Report* report);

/// Registry deltas the traced runs read (counters and histogram sums).
struct RegistryMark {
  uint64_t pool_tasks = 0;
  double pool_job_ns = 0.0;
  uint64_t train_calls = 0;
  double train_ns = 0.0;
  uint64_t collect_instances = 0;
  uint64_t warm_concepts = 0;
  uint64_t extractions = 0;

  static RegistryMark Now();
  RegistryMark Since(const RegistryMark& earlier) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// Shared plumbing of the benchmark program: workload parameters, the result
// report, seeded inputs, quality scoring and snapshot install helpers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "eval/metrics.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "stats.h"

namespace perfbench {

/// Workload parameters, given as `--set key=value` (perfbench/run.py passes
/// the `params` of perfbench/workloads.json): only what differs between
/// workloads (input sizes, set-up repeats, whether to run the ladder). A
/// missing key is an error, so what runs is exactly what the file documents.
class Params {
 public:
  void Set(const std::string& key, const std::string& value) { values_[key] = value; }
  int64_t Int(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Everything one run passes between its phases.
struct RunContext {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Params params;
  /// Scratch directory for publishes and the socket (inside the checkout).
  std::string work_dir;
  /// Where the traced run writes its span JSONL.
  std::string trace_path;
};

/// Metric values plus the failure count; prints a human-readable block and
/// the machine-readable result line.
class Report {
 public:
  /// `basis` states the sample count or base behind the value.
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& basis);
  bool Has(const std::string& name) const { return metrics_.count(name) != 0; }

  /// Records one checked operation; `what` is printed when it failed.
  void Check(bool ok, const std::string& what);
  FailureCount& failures() { return failures_; }
  const FailureCount& failures() const { return failures_; }

  /// Prints every metric, then the JSON line as the last line of stdout.
  /// Returns the process exit code (1 when any check failed).
  int Emit() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
    std::string basis;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> order_;
  FailureCount failures_;
};

/// The per-layer metric names every traced run reports (an idle layer
/// reports 0). Must match the per_layer list of BENCHMARK.json; run.py
/// checks that on every run.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

double NowSeconds();

/// Peak resident set of this process in MB.
double PeakRssMb();
std::string FormatMs(double ms);

/// The world shape every workload uses: the PaperScaleConfig world with 240
/// concepts (the 20 named evaluation concepts among them, plus
/// highly-similar twins).
inline constexpr int kConcepts = 240;

/// The seeded world and a corpus of `sentences` sentences (text rendering
/// off), generated in memory.
std::unique_ptr<semdrift::Experiment> BuildInputs(int64_t sentences, uint64_t seed);

/// The seed of a workload's k-th corpus, for workloads that replay several.
uint64_t CorpusSeed(uint64_t seed, int64_t k);
std::vector<semdrift::ConceptId> AllConcepts(const semdrift::World& world);

/// Table 3's counts over every pair a KB ever extracted (EvaluateCleaning),
/// added up over a run's corpora.
struct QualityCount {
  size_t pairs = 0;              // Ever extracted.
  size_t remaining = 0;          // Still live.
  size_t remaining_correct = 0;
  size_t correct = 0;            // Correct among every pair ever extracted.

  void Add(const semdrift::Experiment& experiment, const semdrift::KnowledgeBase& kb);
};

/// Sets pcorr (remaining correct / remaining) and rcorr (remaining correct /
/// correct) with their base, and checks both are defined.
void ReportQuality(const QualityCount& q, Report* report);

/// The end-of-run hand-off users run (`run --snapshot-out`): validate the KB
/// against the id spaces, compile, frame.
semdrift::Result<std::string> CompileImage(const semdrift::KnowledgeBase& kb,
                                           const semdrift::World& world,
                                           size_t num_sentences,
                                           semdrift::SnapshotParts* parts_out = nullptr);

/// Median of `values` (the mean of the middle two for an even count; 0 when
/// empty).
double Median(std::vector<double> values);

/// The pace loop: kPaceSlices slices of a fixed loop of the benchmark's own
/// code (kPacePasses passes of scattered reads over a 4 MiB table),
/// each timed. The machine's speed drifts by up to 1.6x over minutes, in CPU
/// time as in wall time; the loop's median slice time tracks that drift, so
/// set-up and build times are reported at a reference pace
/// (ReportWriteTimes).
inline constexpr int kPaceSlices = 5;
inline constexpr int kPacePasses = 20;
/// The loop's median slice time on a 2.0 GHz Xeon vCPU in a quiet stretch.
inline constexpr double kReferencePaceMs = 75.0;

/// Runs the pace loop, appending each slice's time in ms to `slices_ms`.
void SamplePace(std::vector<double>* slices_ms);

/// Write-path times of one run; every workload fills all of them, so each
/// metric has one definition everywhere.
struct WriteTimes {
  /// Per set-up: its wall time in seconds; and what a set-up does.
  std::vector<double> setup_s;
  std::string setup_what;
  /// Per build: the sentences of its corpus, and the time from the
  /// in-memory corpus to the last snapshot built (batch-clean, serve-read,
  /// serve-swap) or installed (stream-epochs).
  std::vector<size_t> sentences;
  std::vector<double> build_ms;
  /// Per generation: its input handed over to the generation installed.
  std::vector<double> epoch_ms;
  /// Per install: the generation's file published to SnapshotManager having
  /// installed it (LoadInitial for a first generation, Poll for the rest).
  std::vector<double> swap_ms;
  /// Pace loop slices (SamplePace), taken before every build and after the
  /// last one, outside the build times.
  std::vector<double> pace_ms;
};

/// Reports, at the reference pace (wall times scaled by kReferencePaceMs
/// over the median pace slice): setup_s (median set-up) and sentences_per_s
/// (all builds' sentences over their summed build time), each with its wall
/// figure; and the wall medians epoch_p50_ms and swap_p50_ms. All with their
/// sample counts.
void ReportWriteTimes(const WriteTimes& times, Report* report);

/// Extra installs of each built image, for swap_p50_ms, on the workloads
/// that install a built snapshot once per build (batch-clean, serve-read).
inline constexpr int kInstallRepeats = 9;

/// Publishes `image` as generation 1 into a fresh `dir` and installs it with
/// a new SnapshotManager (checked: installs and validates). Returns the
/// publish-to-install time in ms, or a negative value on failure.
double Install(const std::string& image, const std::string& dir,
               std::unique_ptr<semdrift::SnapshotManager>* manager, Report* report);

/// Creates (emptying) a directory; returns false with a message on error.
bool ResetDir(const std::string& dir, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

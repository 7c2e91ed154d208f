// semdrift — command-line driver for the library.
//
// Every subcommand is one row of kCommands (bottom of this file): its
// positional arguments and, for each flag, the name, kind, metavar, default
// and integer bounds. The parser, the usage text printed on exit 2, the
// global --threads and the trace/metrics exports all work from that table,
// so it is the only list of flags; `semdrift` with no arguments prints it.
//
//   generate         Generate a ground-truth world + Hearst corpus and save
//                    both.
//   run              Load world + corpus, run iterative extraction and DP
//                    cleaning, report quality against ground truth, and
//                    export the taxonomy (plus, on request, a serving
//                    snapshot or a delta against an earlier one). A
//                    checkpointed run snapshots after every iteration and
//                    can resume from the latest valid snapshot. Supervision
//                    runs the cleaning stages with per-concept deadlines,
//                    bounded retries and quarantine, and can inject seeded
//                    compute faults for robustness drills. Tracing never
//                    changes an output byte: spans record only from serial
//                    driver contexts, so checkpoints, taxonomy and snapshot
//                    are bit-identical with tracing on or off.
//   stream           Streaming incremental extraction: replay the corpus as
//                    N timestamped epochs. Each epoch ingests its sentence
//                    delta, continues extraction, re-runs DP cleaning
//                    scoped to the dirty concept set, revalidates through
//                    the replay path, and can publish the result for a live
//                    `serve --publish-dir` (full snap-<gen>.bin on rebuild
//                    epochs, CRC-bound delta-<gen>.bin otherwise). A rebuild
//                    re-runs the batch pipeline over the cumulative corpus,
//                    so the final state is byte-identical to `run`.
//   parse            Run the Hearst parser over sentences on stdin.
//   serve            Answer the line protocol (instances-of, concepts-of,
//                    is-a, drift-score, mutex, stats, metrics) from one
//                    snapshot or from a publish directory that is hot-swapped
//                    generation by generation (corrupt publishes are
//                    quarantined and serving stays on the last good one).
//                    One ShardRouter answers every request, partitioning the
//                    concept space over N shards by consistent hash with
//                    byte-identical answers at any shard count. Front ends:
//                    stdin/stdout, one line at a time (`quit` exits), or a
//                    TCP/unix socket with pipelining until SIGINT/SIGTERM.
//   query            One-shot: answer a single query from a snapshot file or
//                    a running `serve --listen`. Exit codes form the
//                    scripting contract shared with serve's line protocol:
//                    0 OK, 1 ERR, 2 usage, 3 NOT_FOUND, 4 OVERLOADED. Each
//                    shell argument becomes one protocol field.
//   snapshot-verify  Check snapshot framing (magic, version, CRCs) and deep
//                    structure; with delta files, the whole publish chain.
//   fuzz-load        Corrupt world/corpus/checkpoint/snapshot/delta files in
//                    seeded, targeted ways and prove every loader yields a
//                    clean Status or a fully-accounted LoadReport.
//   scenario-run / scenario-hunt / scenario-sample
//                    Replay, hunt for and sample adversarial drift scenarios.
//
// Every subcommand is deterministic in its seeds, and results are identical
// at any thread count. Usage errors (unknown flags, missing or malformed
// values, out-of-range integers) exit 2.

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "corpus/serialization.h"
#include "dp/cleaner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "extract/checkpoint.h"
#include "extract/extractor.h"
#include "extract/hearst_parser.h"
#include "net/net_client.h"
#include "net/router.h"
#include "net/server.h"
#include "scenario/grammar.h"
#include "scenario/hunt.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_delta.h"
#include "serve/snapshot_manager.h"
#include "stream/stream.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

using namespace semdrift;

namespace {

/// How a flag's value is read. Booleans take no value.
enum class Kind { kBool, kString, kInt, kReal };

/// One flag of a subcommand. An integer value outside [min, max] is a usage
/// error, and every bound fits the option the flag feeds, so no narrowing
/// of a parsed value can wrap.
struct FlagSpec {
  const char* name;
  Kind kind;
  const char* metavar = "";
  /// Default in command-line form; "" leaves the flag unset (the option
  /// keeps its library default).
  const char* fallback = "";
  uint64_t min = 0;
  uint64_t max = 0;
};

constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
constexpr uint64_t kU32Max = std::numeric_limits<uint32_t>::max();
constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

FlagSpec BoolFlag(const char* name) { return {name, Kind::kBool}; }
FlagSpec StrFlag(const char* name, const char* metavar, const char* fallback = "") {
  return {name, Kind::kString, metavar, fallback};
}
FlagSpec RealFlag(const char* name, const char* metavar, const char* fallback = "") {
  return {name, Kind::kReal, metavar, fallback};
}
FlagSpec IntFlag(const char* name, const char* metavar, const char* fallback,
                 uint64_t max = kIntMax, uint64_t min = 0) {
  return {name, Kind::kInt, metavar, fallback, min, max};
}

/// Accepted by every subcommand (0 = auto: SEMDRIFT_THREADS env var, then
/// hardware concurrency). Parallel stages are bit-deterministic, so this
/// only changes wall-clock time, never output.
const FlagSpec kThreadsFlag = IntFlag("threads", "N", "0");

class Args;

/// One row of the command table.
struct Command {
  const char* name;
  /// Positional arguments as the usage shows them; "" takes none, anything
  /// else requires at least one.
  const char* positional;
  std::vector<FlagSpec> flags;
  int (*run)(const Args&);
  /// Extra usage text.
  const char* note = "";

  /// The row's flag named `flag`, or --threads, or null.
  const FlagSpec* Find(std::string_view flag) const {
    if (flag == kThreadsFlag.name) return &kThreadsFlag;
    for (const FlagSpec& spec : flags) {
      if (flag == spec.name) return &spec;
    }
    return nullptr;
  }
};

/// A command line parsed against one row of the table. Accessors return
/// the given value or the row's default; a flag the row does not declare
/// reads as unset.
class Args {
 public:
  explicit Args(const Command* command) : command_(command) {}

  /// Parses argv[2..]. Flags may appear anywhere; an argument that does not
  /// start with "--" is positional. Every value is checked against its
  /// flag's kind and bounds here, before the command does any work. Returns
  /// the usage error, or "" when the line is valid.
  std::string Parse(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!StartsWith(arg, "--")) {
        if (*command_->positional == '\0') return "unexpected argument: " + arg;
        positional_.push_back(arg);
        continue;
      }
      const FlagSpec* flag = command_->Find(std::string_view(arg).substr(2));
      if (flag == nullptr) return "unknown flag " + arg;
      if (flag->kind == Kind::kBool) {
        given_[flag->name] = "";
        continue;
      }
      if (i + 1 >= argc) return "missing value for " + arg;
      const std::string value = argv[++i];
      double real = 0.0;
      uint64_t integer = 0;
      const bool valid =
          flag->kind == Kind::kString ||
          (flag->kind == Kind::kReal && ParseDouble(value, &real)) ||
          (flag->kind == Kind::kInt && ParseUint64(value, &integer) &&
           integer >= flag->min && integer <= flag->max);
      if (!valid) return "invalid value for " + arg + ": '" + value + "'";
      given_[flag->name] = value;
    }
    if (*command_->positional != '\0' && positional_.empty()) {
      return std::string("missing ") + command_->positional;
    }
    return "";
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// True when the flag was given on the command line.
  bool Has(std::string_view name) const { return given_.find(name) != given_.end(); }
  std::string Str(std::string_view name) const {
    auto it = given_.find(name);
    if (it != given_.end()) return it->second;
    const FlagSpec* spec = command_->Find(name);
    return spec != nullptr ? spec->fallback : "";
  }
  /// Real flag (0 when unset without a default).
  double Real(std::string_view name) const {
    double value = 0.0;
    ParseDouble(Str(name), &value);
    return value;
  }
  /// Integer flag narrowed to the type of the option it feeds. This is the
  /// one place a flag value is narrowed: Parse() held it to the table's
  /// bounds, and a bound wider than T is refused here rather than wrapped.
  template <typename T = uint64_t>
  T Int(std::string_view name) const {
    uint64_t value = 0;
    ParseUint64(Str(name), &value);
    if (value > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
      std::fprintf(stderr, "invalid value for --%.*s: '%llu'\n",
                   static_cast<int>(name.size()), name.data(),
                   static_cast<unsigned long long>(value));
      std::exit(2);
    }
    return static_cast<T>(value);
  }

 private:
  const Command* command_;
  std::map<std::string, std::string, std::less<>> given_;
  std::vector<std::string> positional_;
};

/// Prints lenient-load damage so skipped lines are visible, not silent.
void ReportSkips(const char* what, const LoadReport& report) {
  if (report.skipped.empty() && !report.truncated &&
      (!report.checksum_present || report.checksum_ok)) {
    return;
  }
  std::fprintf(stderr, "%s: loaded %zu/%zu lines", what, report.lines_loaded,
               report.lines_seen);
  if (report.truncated) std::fprintf(stderr, ", truncated");
  if (report.checksum_present && !report.checksum_ok) {
    std::fprintf(stderr, ", checksum mismatch");
  }
  std::fprintf(stderr, "\n");
  for (const auto& skip : report.skipped) {
    std::fprintf(stderr, "  line %zu: %s\n", skip.line_number, skip.reason.c_str());
  }
}

int Generate(const Args& args) {
  ExperimentConfig config = PaperScaleConfig(args.Real("scale"));
  config.seed = args.Int("seed");
  config.corpus.render_text = true;
  auto experiment = Experiment::Build(config);
  std::string world_path = args.Str("world");
  std::string corpus_path = args.Str("corpus");
  Status s = SaveWorld(experiment->world(), world_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  s = SaveCorpus(experiment->world(), experiment->corpus(), corpus_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("world: %zu concepts, %zu instances -> %s\n",
              experiment->world().num_concepts(), experiment->world().num_instances(),
              world_path.c_str());
  std::printf("corpus: %zu sentences -> %s\n", experiment->corpus().sentences.size(),
              corpus_path.c_str());
  return 0;
}

/// The world and corpus `run` and `stream` read (--world, --corpus;
/// --lenient skips and reports malformed lines), and the all-concepts
/// scope both score against.
struct Inputs {
  World world;
  Corpus corpus;
  std::vector<ConceptId> scope;
};

std::optional<Inputs> LoadInputs(const Args& args) {
  LoadOptions load_options;
  if (args.Has("lenient")) load_options.mode = LoadOptions::Mode::kLenient;
  LoadReport world_report;
  auto world = LoadWorld(args.Str("world"), load_options, &world_report);
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return std::nullopt;
  }
  ReportSkips("world", world_report);
  LoadReport corpus_report;
  auto corpus = LoadCorpus(*world, args.Str("corpus"), load_options, &corpus_report);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return std::nullopt;
  }
  ReportSkips("corpus", corpus_report);
  std::optional<Inputs> in(Inputs{std::move(*world), std::move(*corpus), {}});
  for (size_t ci = 0; ci < in->world.num_concepts(); ++ci) {
    in->scope.push_back(ConceptId(static_cast<uint32_t>(ci)));
  }
  return in;
}

/// Exports the observability artifacts a successful run asked for
/// (--trace-out / --trace-chrome / --metrics-out), naming each on stdout.
int WriteObsArtifacts(const Args& args) {
  std::string trace_out = args.Str("trace-out");
  if (!trace_out.empty()) {
    std::string error;
    if (!GlobalTrace().WriteJsonl(trace_out, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("trace -> %s\n", trace_out.c_str());
  }
  std::string trace_chrome = args.Str("trace-chrome");
  if (!trace_chrome.empty()) {
    std::string error;
    if (!GlobalTrace().WriteChromeTrace(trace_chrome, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("chrome trace -> %s\n", trace_chrome.c_str());
  }
  std::string metrics_out = args.Str("metrics-out");
  if (!metrics_out.empty()) {
    Status s = WriteStringToFile(GlobalMetrics().ToJson() + "\n", metrics_out);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("metrics -> %s\n", metrics_out.c_str());
  }
  return 0;
}

/// Exports the taxonomy and names every artifact the run wrote (taxonomy,
/// checkpoints, snapshot, delta) on stdout so serve/query commands can be
/// chained in scripts. Writing the serving snapshot is part of the run: a
/// KB that fails validation fails the run rather than becoming a corrupt
/// snapshot.
int FinishRun(const Args& args, const KnowledgeBase& kb, const Inputs& in,
              const RunHealthReport* health) {
  const std::string taxonomy_path = args.Str("out");
  Status s = ExportTaxonomyTsv(kb, in.world, taxonomy_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("taxonomy -> %s\n", taxonomy_path.c_str());
  const std::string checkpoint_dir = args.Str("checkpoint-dir");
  if (!checkpoint_dir.empty()) {
    std::printf("checkpoints -> %s\n", checkpoint_dir.c_str());
  }
  const size_t num_sentences = in.corpus.sentences.size();
  std::string snapshot_path = args.Str("snapshot-out");
  if (!snapshot_path.empty()) {
    s = WriteServingSnapshot(kb, in.world, num_sentences, health, snapshot_path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("snapshot -> %s\n", snapshot_path.c_str());
  }
  std::string delta_path = args.Str("snapshot-delta-out");
  if (!delta_path.empty()) {
    std::string base_path = args.Str("snapshot-delta-base");
    if (base_path.empty()) {
      std::fprintf(stderr,
                   "--snapshot-delta-out requires --snapshot-delta-base\n");
      return 2;
    }
    uint64_t base_gen = args.Int("snapshot-delta-base-gen");
    s = WriteServingSnapshotDelta(kb, in.world, num_sentences, health, base_path,
                                  base_gen, delta_path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("snapshot delta -> %s (generation %llu)\n", delta_path.c_str(),
                static_cast<unsigned long long>(base_gen + 1));
  }
  return 0;
}

/// Replaces `*out` with the comma-separated list given as --`name`, each
/// element read by `parse`; a bad element is a usage error (false).
template <typename T>
bool ParseListFlag(const Args& args, const char* name,
                   bool (*parse)(std::string_view, T*), const char* expected,
                   std::vector<T>* out) {
  const std::string list = args.Str(name);
  if (list.empty()) return true;
  out->clear();
  for (const std::string& item : Split(list, ',')) {
    T value;
    if (!parse(item, &value)) {
      std::fprintf(stderr, "invalid value for --%s: '%s' (expected %s)\n",
                   name, item.c_str(), expected);
      return false;
    }
    out->push_back(value);
  }
  return true;
}

int Run(const Args& args) {
  CheckpointConfig checkpoint;
  checkpoint.dir = args.Str("checkpoint-dir");
  checkpoint.resume = args.Has("resume");
  if (checkpoint.dir.empty() && checkpoint.resume) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return 2;
  }
  checkpoint.validate_each_iteration = args.Has("validate");
  checkpoint.keep_last = args.Int<int>("keep-checkpoints");
  auto in = LoadInputs(args);
  if (!in) return 1;
  const World& world = in->world;
  const SentenceStore& sentences = in->corpus.sentences;
  checkpoint.num_concepts = world.num_concepts();
  checkpoint.num_sentences = sentences.size();
  GroundTruth truth(&world);
  auto verified = [&world](const IsAPair& pair) {
    return world.IsVerified(pair.concept_id, pair.instance);
  };

  double fault_rate = args.Real("fault-rate");
  bool supervise =
      args.Has("supervise") || args.Has("health-report") || fault_rate > 0.0;
  if (supervise) {
    SupervisedRunConfig config;
    config.supervisor.stage_deadline_ms = args.Int<int>("stage-deadline-ms");
    config.supervisor.max_retries = args.Int<int>("max-retries");
    std::string quarantine = args.Str("quarantine");
    if (quarantine == "on") {
      config.supervisor.quarantine = true;
    } else if (quarantine == "off") {
      config.supervisor.quarantine = false;
    } else {
      std::fprintf(stderr, "invalid value for --quarantine: '%s' (expected on|off)\n",
                   quarantine.c_str());
      return 2;
    }
    config.faults.rate = fault_rate;
    config.faults.seed = args.Int("fault-seed");
    if (!ParseListFlag(args, "fault-kinds", ParseComputeFaultKind,
                       "throw|stall|nan", &config.faults.kinds) ||
        !ParseListFlag(args, "fault-stages", ParsePipelineStage,
                       "warm|collect|train|score", &config.faults.stages)) {
      return 2;
    }
    config.checkpoint = checkpoint;
    config.clean = !args.Has("no-clean");

    IterativeExtractor extractor(&sentences, ExtractorOptions{});
    auto run = RunSupervisedPipeline(&extractor, &sentences, verified,
                                     world.num_concepts(), sentences.size(),
                                     in->scope, config);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    std::printf("supervised run: %zu iterations, %zu live pairs (precision %.3f)\n",
                run->stats.size(), run->kb.num_live_pairs(),
                LivePairPrecision(truth, run->kb, in->scope));
    if (config.clean) {
      std::printf("cleaned: %d rounds, %zu DPs, %zu -> %zu pairs\n",
                  run->cleaning.rounds,
                  run->cleaning.intentional_dps.size() +
                      run->cleaning.accidental_dps.size(),
                  run->cleaning.live_pairs_before, run->cleaning.live_pairs_after);
    }
    const RunHealthReport& health = run->health;
    std::printf("health: %zu quarantined, %zu degraded, %zu retried, %zu dropped "
                "instances%s\n",
                health.CountWithOutcome(ConceptOutcome::kQuarantined),
                health.CountWithOutcome(ConceptOutcome::kDegraded),
                health.CountWithOutcome(ConceptOutcome::kRetried),
                health.num_drops(),
                health.detector_fallback() ? ", detector fell back" : "");
    if (args.Has("health-report")) {
      std::printf("%s", health.ToTable().c_str());
    }
    return FinishRun(args, run->kb, *in, &run->health);
  }

  KnowledgeBase kb;
  IterativeExtractor extractor(&sentences, ExtractorOptions{});
  std::vector<IterationStats> iterations;
  if (!checkpoint.dir.empty()) {
    auto run = RunWithCheckpoints(&extractor, &kb, checkpoint);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    iterations = std::move(*run);
  } else {
    iterations = extractor.Run(&kb);
  }
  std::printf("extracted %zu pairs in %zu iterations (precision %.3f)\n",
              kb.num_live_pairs(), iterations.size(),
              LivePairPrecision(truth, kb, in->scope));

  if (!args.Has("no-clean")) {
    CleanerOptions options;
    DpCleaner cleaner(&sentences, verified, world.num_concepts(), options);
    CleaningReport report = cleaner.Clean(&kb, in->scope);
    std::printf("cleaned: %d rounds, %zu DPs, %zu -> %zu pairs (precision %.3f)\n",
                report.rounds,
                report.intentional_dps.size() + report.accidental_dps.size(),
                report.live_pairs_before, report.live_pairs_after,
                LivePairPrecision(truth, kb, in->scope));
  }
  return FinishRun(args, kb, *in, /*health=*/nullptr);
}

/// Streaming incremental extraction (src/stream/): replays the corpus as
/// `--epochs` timestamped deltas through a StreamPipeline, publishing every
/// epoch into `--publish-dir` for a live `serve --publish-dir` to hot-swap.
int StreamCmd(const Args& args) {
  auto in = LoadInputs(args);
  if (!in) return 1;
  const int epochs = args.Int<int>("epochs");
  StreamOptions options;
  options.extractor.max_iterations = args.Int<int>("max-iterations");
  options.cleaner.max_rounds = args.Int<int>("max-rounds");
  options.full_rebuild_every = args.Int<int>("full-rebuild-every");
  options.final_full_rebuild = !args.Has("no-final-rebuild");
  options.rebuild_dirty_frac = args.Real("rebuild-dirty-frac");
  options.publish_dir = args.Str("publish-dir");
  options.epoch_snapshot_dir = args.Str("epoch-snapshots");
  const int sleep_ms = args.Int<int>("epoch-sleep-ms");

  for (const std::string& dir : {options.publish_dir, options.epoch_snapshot_dir}) {
    if (dir.empty()) continue;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }

  GroundTruth truth(&in->world);
  StreamPipeline pipeline(&in->world, options);
  const std::vector<Sentence>& all = in->corpus.sentences.sentences();
  size_t total = all.size();
  for (int k = 0; k < epochs; ++k) {
    size_t begin = total * static_cast<size_t>(k) / static_cast<size_t>(epochs);
    size_t end = total * static_cast<size_t>(k + 1) / static_cast<size_t>(epochs);
    std::vector<Sentence> delta(all.begin() + begin, all.begin() + end);
    auto stats = pipeline.RunEpoch(std::move(delta), k + 1 == epochs);
    if (!stats.ok()) {
      std::fprintf(stderr, "epoch %d: %s\n", k + 1,
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf("epoch %d/%d [%s]: +%zu sentences (%zu total), %zu dirty, "
                "%zu extracted, %zu rolled back, %zu pairs",
                stats->epoch, epochs,
                stats->full_rebuild ? (stats->escalated ? "rebuild:escalated"
                                                        : "rebuild")
                                    : "incremental",
                stats->sentences_ingested, stats->corpus_size,
                stats->dirty_concepts, stats->extractions,
                stats->records_rolled_back, stats->live_pairs);
    if (stats->generation > 0) {
      std::printf(", gen %llu (%s)",
                  static_cast<unsigned long long>(stats->generation),
                  stats->published_delta ? "delta" : "full");
    }
    std::printf("\n");
    std::fflush(stdout);
    if (sleep_ms > 0 && k + 1 < epochs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
  std::printf("stream done: %d epochs, %zu sentences, %zu live pairs "
              "(precision %.3f), generation %llu\n",
              epochs, pipeline.sentences().size(), pipeline.kb().num_live_pairs(),
              LivePairPrecision(truth, pipeline.kb(), in->scope),
              static_cast<unsigned long long>(pipeline.generation()));
  return 0;
}

int Parse(const Args& args) {
  auto world = LoadWorld(args.Str("world"));
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return 1;
  }
  HearstParser parser(&world->concept_vocab(), world->instance_vocab());
  std::string line;
  while (std::getline(std::cin, line)) {
    auto parsed = parser.Parse(line);
    if (!parsed.has_value()) {
      std::printf("NO-MATCH\t%s\n", line.c_str());
      continue;
    }
    std::printf("MATCH\tconcepts=[");
    for (size_t i = 0; i < parsed->candidate_concepts.size(); ++i) {
      std::printf("%s%s", i ? ", " : "",
                  world->ConceptName(parsed->candidate_concepts[i]).c_str());
    }
    std::printf("]\tinstances=[");
    for (size_t i = 0; i < parsed->candidate_instances.size(); ++i) {
      std::printf("%s%s", i ? ", " : "",
                  parser.instance_lexicon().TermOf(parsed->candidate_instances[i].value)
                      .c_str());
    }
    std::printf("]\n");
  }
  return 0;
}

/// Opens --snapshot, zero-copy with deferred per-section CRCs under --mmap.
Result<SnapshotReader> OpenSnapshot(const Args& args) {
  SnapshotOpenOptions options;
  options.source = args.Has("mmap") ? SnapshotSource::kMmap : SnapshotSource::kRead;
  return SnapshotReader::Open(args.Str("snapshot"), options);
}

/// Sends one request line through the router and waits for its answer,
/// which arrives before Submit returns when the router answers inline and
/// from a pool thread when it queues (split mutex legs, admission control).
std::string Ask(ShardRouter& router, std::string line, RequestPriority priority) {
  std::promise<std::string> answer;
  router.Submit(std::move(line), priority,
                [&answer](std::string response) { answer.set_value(std::move(response)); });
  return answer.get_future().get();
}

/// The stdin front end: each line goes through the router and its answer is
/// printed before the next line is read, so answers come back in request
/// order with nothing to reorder.
int ServeStdin(ShardRouter& router) {
  std::fprintf(stderr, "serving on stdin; %u shards; ready\n", router.num_shards());
  std::string line;
  while (std::getline(std::cin, line) && line != "quit" && line != "exit") {
    if (line.empty()) continue;
    std::printf("%s\n", Ask(router, line, RequestPriority::kNormal).c_str());
    std::fflush(stdout);
  }
  return 0;
}

/// Signal-driven shutdown for `serve --listen`: the handler writes one byte
/// into a self-pipe (the only async-signal-safe notification there is), and
/// the main thread blocks reading it.
int g_shutdown_pipe[2] = {-1, -1};

extern "C" void HandleShutdownSignal(int) {
  const char byte = 1;
  // Best-effort: a full pipe already means shutdown is pending.
  [[maybe_unused]] ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

/// The socket front end: runs until SIGINT/SIGTERM. Prints the resolved
/// endpoint to stderr (port 0 means "pick one", so scripts need the answer).
int RunNetServer(ShardRouter& router, const std::string& listen) {
  NetServerOptions server_options;
  server_options.listen = listen;
  NetServer server(&router, server_options);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  if (::pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa {};
  sa.sa_handler = HandleShutdownSignal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  std::fprintf(stderr, "listening on %s; %u shards; ready\n",
               server.endpoint().c_str(), router.num_shards());
  char byte = 0;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  server.Stop();
  ::close(g_shutdown_pipe[0]);
  ::close(g_shutdown_pipe[1]);
  g_shutdown_pipe[0] = g_shutdown_pipe[1] = -1;
  return 0;
}

/// Runs the front end --listen picks (a socket, else stdin) over `router`.
/// --stats-interval-ms > 0 prints the router's `stats` line to stderr every
/// N milliseconds, in either mode (stdout stays pure protocol).
int ServeRouter(ShardRouter& router, const Args& args) {
  const std::chrono::milliseconds interval(args.Int<int>("stats-interval-ms"));
  std::promise<void> stop;
  std::thread ticker;
  if (interval.count() > 0) {
    ticker = std::thread([&router, interval, stopped = stop.get_future()] {
      while (stopped.wait_for(interval) == std::future_status::timeout) {
        std::fprintf(stderr, "%s\n",
                     Ask(router, "stats", RequestPriority::kHigh).c_str());
      }
    });
  }
  const std::string listen = args.Str("listen");
  const int rc = listen.empty() ? ServeStdin(router) : RunNetServer(router, listen);
  stop.set_value();
  if (ticker.joinable()) ticker.join();
  return rc;
}

/// `serve`: one ShardRouter over --snapshot, or over a SnapshotManager
/// watching --publish-dir, answers every request of either front end.
int Serve(const Args& args) {
  const std::string snapshot = args.Str("snapshot");
  const std::string publish_dir = args.Str("publish-dir");
  if (snapshot.empty() == publish_dir.empty()) {
    std::fprintf(stderr, "serve takes exactly one of --snapshot, --publish-dir\n");
    return 2;
  }
  // SnapshotManager always reads and CRC-checks whole files.
  if (args.Has("mmap") && snapshot.empty()) {
    std::fprintf(stderr, "--mmap requires --snapshot\n");
    return 2;
  }
  // A malformed address is a usage error (exit 2), same as any bad flag
  // value — not a runtime serving failure.
  const std::string listen = args.Str("listen");
  ListenAddress parsed_listen;
  std::string listen_error;
  if (!listen.empty() && !ParseListenAddress(listen, &parsed_listen, &listen_error)) {
    std::fprintf(stderr, "--listen: %s\n", listen_error.c_str());
    return 2;
  }
  RouterOptions options;
  options.num_shards = args.Int<uint32_t>("shards");
  options.engine.cache_capacity = args.Int<size_t>("cache");
  options.engine.cache_shards = args.Int<size_t>("cache-shards");
  options.batch.max_batch = args.Int<size_t>("max-batch");
  options.batch.max_wait_ms = args.Int<int>("max-wait-ms");
  options.batch.default_deadline_ms = args.Int<int>("deadline-ms");
  options.batch.deadline_budget_ms = args.Int<int>("deadline-budget-ms");

  if (!publish_dir.empty()) {
    SnapshotManagerOptions manager_options;
    manager_options.dir = publish_dir;
    manager_options.engine = options.engine;
    SnapshotManager manager(manager_options);
    if (Status initial = manager.LoadInitial(); !initial.ok()) {
      std::fprintf(stderr, "%s\n", initial.ToString().c_str());
      return 1;
    }
    ShardRouter router(&manager, options);
    manager.StartWatching(args.Int<int>("poll-ms"));
    const int rc = ServeRouter(router, args);
    manager.StopWatching();
    return rc;
  }
  auto reader = OpenSnapshot(args);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  ShardRouter router(&*reader, options);
  return ServeRouter(router, args);
}

/// One-shot query. Positional arguments become protocol fields (joined with
/// tabs), so a quoted multi-word name stays a single field. The exit code
/// mirrors the response class so scripts can branch without parsing: 0 OK,
/// 1 ERR, 3 NOT_FOUND, 4 OVERLOADED (reserved — one-shots never shed).
int Query(const Args& args) {
  const std::string connect = args.Str("connect");
  if (args.Str("snapshot").empty() == connect.empty()) {
    std::fprintf(stderr, "query takes exactly one of --snapshot, --connect\n");
    return 2;
  }
  const std::string line = Join(args.positional(), "\t");
  if (line.empty()) {
    std::fprintf(stderr, "query: empty request\n");
    return 2;
  }
  std::string response;
  if (!connect.empty()) {
    // Remote one-shot: same request, same exit-code contract, answered by a
    // running `serve --listen` instance over its socket.
    auto client = LineClient::Connect(connect);
    if (!client.ok()) {
      std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
      return 1;
    }
    auto remote = client->RoundTrip(line);
    if (!remote.ok()) {
      std::fprintf(stderr, "%s\n", remote.status().ToString().c_str());
      return 1;
    }
    response = std::move(remote).value();
  } else {
    auto reader = OpenSnapshot(args);
    if (!reader.ok()) {
      std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
      return 1;
    }
    QueryEngine engine(&*reader);
    response = engine.Answer(line);
  }
  std::printf("%s\n", response.c_str());
  if (StartsWith(response, "OK")) return 0;
  if (StartsWith(response, "NOT_FOUND")) return 3;
  if (StartsWith(response, "OVERLOADED")) return 4;
  return 1;
}

/// Integrity gate for stored snapshots: Open() re-checks framing and every
/// CRC, then Validate() walks the deep structural invariants. With extra
/// arguments the remaining files are verified as a delta chain rooted at the
/// base: each delta's framing, checksum, base binding (generation + base
/// image CRC32) and record invariants are checked, and each materialized
/// image is re-opened so Validate() runs on every generation the chain can
/// produce. Non-zero exit on any corruption makes this usable as a deploy
/// precondition.
int SnapshotVerify(const Args& args) {
  const std::vector<std::string>& files = args.positional();
  const std::string& path = files[0];
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) {
    std::fprintf(stderr, "FAIL %s\n", bytes.status().ToString().c_str());
    return 1;
  }
  auto reader = SnapshotReader::OpenFromBuffer(*bytes, path);
  if (!reader.ok()) {
    std::fprintf(stderr, "FAIL %s\n", reader.status().ToString().c_str());
    return 1;
  }
  std::printf("OK %s: %u concepts, %u instances, %llu pairs, %llu mutex pairs, "
              "%llu bytes\n",
              path.c_str(), reader->num_concepts(), reader->num_instances(),
              static_cast<unsigned long long>(reader->num_pairs()),
              static_cast<unsigned long long>(reader->num_mutex_pairs()),
              static_cast<unsigned long long>(reader->file_bytes()));
  if (files.size() == 1) return 0;

  // Walk the chain. The first delta declares which generation the base is;
  // the CRC binding is what actually authenticates it.
  auto parts = PartsFromReader(*reader);
  if (!parts.ok()) {
    std::fprintf(stderr, "FAIL %s\n", parts.status().ToString().c_str());
    return 1;
  }
  uint32_t crc = Crc32Of(*bytes);
  uint64_t generation = 0;
  for (size_t i = 1; i < files.size(); ++i) {
    const std::string& delta_path = files[i];
    auto delta = LoadSnapshotDelta(delta_path);
    if (!delta.ok()) {
      std::fprintf(stderr, "FAIL %s\n", delta.status().ToString().c_str());
      return 1;
    }
    if (i == 1) generation = delta->base_generation;
    auto image = MaterializeSnapshotDelta(*delta, *parts, generation, crc);
    if (!image.ok()) {
      std::fprintf(stderr, "FAIL %s\n", image.status().ToString().c_str());
      return 1;
    }
    auto next = SnapshotReader::OpenFromBuffer(*image, delta_path);
    if (!next.ok()) {
      std::fprintf(stderr, "FAIL %s\n", next.status().ToString().c_str());
      return 1;
    }
    std::printf("OK %s: generation %llu, %zu records, materialized %u "
                "concepts, %u instances, %llu pairs\n",
                delta_path.c_str(),
                static_cast<unsigned long long>(delta->generation),
                delta->num_records(), next->num_concepts(),
                next->num_instances(),
                static_cast<unsigned long long>(next->num_pairs()));
    parts = PartsFromReader(*next, parts->names);
    if (!parts.ok()) {
      std::fprintf(stderr, "FAIL %s\n", parts.status().ToString().c_str());
      return 1;
    }
    crc = Crc32Of(*image);
    generation = delta->generation;
  }
  std::printf("OK chain verified through generation %llu\n",
              static_cast<unsigned long long>(generation));
  return 0;
}

/// One fuzz-load target: a pristine file plus the loads to attempt on a
/// corrupted copy of it.
struct FuzzTally {
  int runs = 0;
  int strict_ok = 0;       // Corruption happened to be survivable.
  int strict_rejected = 0; // Clean Status error.
  int lenient_ok = 0;
  int lenient_rejected = 0;
  int violations = 0;      // LoadReport failed to account for the damage.
};

void PrintTally(const char* name, const FuzzTally& t) {
  std::printf("%-10s %5d runs  strict ok/rejected %4d/%4d  "
              "lenient ok/rejected %4d/%4d  violations %d\n",
              name, t.runs, t.strict_ok, t.strict_rejected, t.lenient_ok,
              t.lenient_rejected, t.violations);
}

/// A lenient load must account for every payload line: seen = loaded +
/// skipped. Anything else means lines vanished silently.
bool ReportAccounts(const LoadReport& report) {
  return report.lines_seen == report.lines_loaded + report.skipped.size();
}

int FuzzLoad(const Args& args) {
  uint64_t seed = args.Int("seed");
  int count = args.Int<int>("count");
  double scale = args.Real("scale");
  std::string dir = args.Str("dir");
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "semdrift-fuzz").string();
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(), ec.message().c_str());
    return 1;
  }

  // Pristine artifacts to corrupt: a world, a corpus, and a real checkpoint
  // produced by a short checkpointed extraction over them.
  ExperimentConfig config = PaperScaleConfig(scale);
  config.seed = seed;
  config.corpus.render_text = true;
  auto experiment = Experiment::Build(config);
  std::string world_path = dir + "/world.tsv";
  std::string corpus_path = dir + "/corpus.tsv";
  Status s = SaveWorld(experiment->world(), world_path);
  if (s.ok()) s = SaveCorpus(experiment->world(), experiment->corpus(), corpus_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  CheckpointConfig checkpoint;
  checkpoint.dir = dir + "/ckpt";
  std::vector<IterationStats> stats;
  auto kb = experiment->ExtractWithCheckpoints(checkpoint, &stats);
  if (!kb.ok() || stats.empty()) {
    std::fprintf(stderr, "checkpoint seed run failed: %s\n",
                 kb.status().ToString().c_str());
    return 1;
  }
  std::string checkpoint_path = CheckpointPath(checkpoint.dir, stats.back().iteration);

  // Serving artifacts round out the target set: a full snapshot compiled
  // from the extracted KB, and a delta from that snapshot to a perturbed
  // compile (one score nudged, so the delta carries real records).
  std::string snap_path = dir + "/snap.bin";
  s = WriteServingSnapshot(*kb, experiment->world(),
                           experiment->corpus().sentences.size(), nullptr,
                           snap_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto snap_bytes = ReadFileToString(snap_path);
  if (!snap_bytes.ok()) {
    std::fprintf(stderr, "%s\n", snap_bytes.status().ToString().c_str());
    return 1;
  }
  const uint32_t base_crc = Crc32Of(*snap_bytes);
  auto base_reader = SnapshotReader::OpenFromBuffer(*snap_bytes, snap_path);
  if (!base_reader.ok()) {
    std::fprintf(stderr, "%s\n", base_reader.status().ToString().c_str());
    return 1;
  }
  auto base_parts = PartsFromReader(*base_reader);
  if (!base_parts.ok()) {
    std::fprintf(stderr, "%s\n", base_parts.status().ToString().c_str());
    return 1;
  }
  std::string delta_path = dir + "/delta.bin";
  {
    SnapshotParts next_parts = *base_parts;
    if (!next_parts.score.empty()) next_parts.score[0] += 1.0;
    auto delta = DiffSnapshotParts(*base_parts, next_parts);
    if (!delta.ok()) {
      std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
      return 1;
    }
    delta->base_generation = 1;
    delta->base_crc32 = base_crc;
    delta->generation = 2;
    Status wrote = WriteSnapshotDeltaFile(*delta, delta_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
  }

  std::vector<std::string> pristine(5);
  const char* names[5] = {"world", "corpus", "checkpoint", "snapshot", "delta"};
  const std::string paths[5] = {world_path, corpus_path, checkpoint_path,
                                snap_path, delta_path};
  for (int t = 0; t < 5; ++t) {
    auto content = ReadFileToString(paths[t]);
    if (!content.ok()) {
      std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
      return 1;
    }
    pristine[t] = std::move(*content);
  }

  // The sweep runs across the thread pool: each iteration corrupts into its
  // own scratch file, loads, and returns an outcome. Ordered reduction of
  // the outcomes makes the tallies identical to the serial sweep (each
  // iteration's FaultInjector is seeded by index, never by schedule).
  struct FuzzOutcome {
    int target = 0;
    FuzzTally delta;
    std::string io_error;  // Scratch-file write failure, fatal.
  };
  std::vector<FuzzOutcome> outcomes = ParallelMap<FuzzOutcome>(
      static_cast<size_t>(count), [&](size_t i) {
        FuzzOutcome out;
        out.target = static_cast<int>(i % 5);
        FaultInjector injector(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
        FaultKind kind;
        std::string corrupted = injector.CorruptRandom(pristine[out.target], &kind);
        std::string fuzz_path = dir + "/fuzzed-" + std::to_string(i) + ".bin";
        Status written = WriteStringToFile(corrupted, fuzz_path);
        if (!written.ok()) {
          out.io_error = written.ToString();
          return out;
        }
        FuzzTally& tally = out.delta;
        ++tally.runs;
        if (out.target == 0) {
          auto strict = LoadWorld(fuzz_path);
          strict.ok() ? ++tally.strict_ok : ++tally.strict_rejected;
          LoadOptions lenient{LoadOptions::Mode::kLenient};
          LoadReport report;
          auto loose = LoadWorld(fuzz_path, lenient, &report);
          loose.ok() ? ++tally.lenient_ok : ++tally.lenient_rejected;
          if (loose.ok() && !ReportAccounts(report)) ++tally.violations;
        } else if (out.target == 1) {
          auto strict = LoadCorpus(experiment->world(), fuzz_path);
          strict.ok() ? ++tally.strict_ok : ++tally.strict_rejected;
          LoadOptions lenient{LoadOptions::Mode::kLenient};
          LoadReport report;
          auto loose = LoadCorpus(experiment->world(), fuzz_path, lenient, &report);
          loose.ok() ? ++tally.lenient_ok : ++tally.lenient_rejected;
          if (loose.ok() && !ReportAccounts(report)) ++tally.violations;
        } else if (out.target == 2) {
          // Checkpoints have no lenient mode: the full restore pipeline (load,
          // replay, validate) must either produce a valid KB or reject cleanly.
          auto loaded = LoadCheckpoint(fuzz_path);
          if (!loaded.ok()) {
            ++tally.strict_rejected;
          } else {
            auto restored = KnowledgeBase::FromRecords(loaded->records);
            if (restored.ok() &&
                restored->Validate(experiment->world().num_concepts(),
                                   experiment->corpus().sentences.size()).ok()) {
              ++tally.strict_ok;
            } else {
              ++tally.strict_rejected;
            }
          }
        } else if (out.target == 3) {
          // Snapshots are strict-only by design: Open() re-checks every CRC
          // and then deep-validates structure.
          auto opened = SnapshotReader::Open(fuzz_path);
          opened.ok() ? ++tally.strict_ok : ++tally.strict_rejected;
        } else {
          // Deltas: load, materialize against the pristine base, and re-open
          // the produced image. A delta that loads and materializes must
          // yield a snapshot that passes full validation — anything else is
          // a containment violation, not a mere rejection.
          auto delta = LoadSnapshotDelta(fuzz_path);
          if (!delta.ok()) {
            ++tally.strict_rejected;
          } else {
            auto image = MaterializeSnapshotDelta(*delta, *base_parts, 1, base_crc);
            if (!image.ok()) {
              ++tally.strict_rejected;
            } else {
              auto opened = SnapshotReader::OpenFromBuffer(*image, fuzz_path);
              if (opened.ok()) {
                ++tally.strict_ok;
              } else {
                ++tally.violations;
              }
            }
          }
        }
        std::error_code remove_ec;
        std::filesystem::remove(fuzz_path, remove_ec);  // Best-effort scratch cleanup.
        return out;
      });

  FuzzTally tallies[5];
  int violations = 0;
  for (const FuzzOutcome& out : outcomes) {
    if (!out.io_error.empty()) {
      std::fprintf(stderr, "%s\n", out.io_error.c_str());
      return 1;
    }
    FuzzTally& tally = tallies[out.target];
    tally.runs += out.delta.runs;
    tally.strict_ok += out.delta.strict_ok;
    tally.strict_rejected += out.delta.strict_rejected;
    tally.lenient_ok += out.delta.lenient_ok;
    tally.lenient_rejected += out.delta.lenient_rejected;
    tally.violations += out.delta.violations;
  }

  std::printf("fuzz-load: %d corruptions over %s seed %llu\n", count, dir.c_str(),
              static_cast<unsigned long long>(seed));
  for (int t = 0; t < 5; ++t) {
    PrintTally(names[t], tallies[t]);
    violations += tallies[t].violations;
  }
  if (violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %d loads did not account for or contain the damage\n",
                 violations);
    return 1;
  }
  std::printf("OK: no crashes, every load rejected cleanly or accounted for damage\n");
  return 0;
}

/// Replays checked-in scenarios against their recorded envelopes. One line
/// per scenario; any violation fails the whole invocation (the ctest gate
/// and check.sh --scenarios both run this over scenarios/*.toml).
int ScenarioRun(const Args& args) {
  int failures = 0;
  for (const std::string& path : args.positional()) {
    auto scenario = scenario::LoadScenarioFile(path);
    if (!scenario.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   scenario.status().ToString().c_str());
      return 2;
    }
    auto outcome = scenario::RunScenario(*scenario);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   outcome.status().ToString().c_str());
      return 2;
    }
    if (args.Has("pin-envelope")) {
      // Authoring aid: record the measured behavior as the file's replay
      // envelope (tight precision bands, cost ceilings) and rewrite it.
      scenario::PinEnvelope(&*scenario, outcome->metrics);
      if (Status s = scenario::SaveScenarioFile(*scenario, path); !s.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), s.ToString().c_str());
        return 2;
      }
      outcome = scenario::RunScenario(*scenario);
      if (!outcome.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     outcome.status().ToString().c_str());
        return 2;
      }
    }
    std::printf("%-28s %s  %s\n", scenario->name.c_str(),
                outcome->ok() ? "PASS" : "FAIL",
                scenario::FormatMetricsLine(outcome->metrics).c_str());
    if (args.Has("verbose") && !scenario->notes.empty()) {
      std::printf("  notes: %s\n", scenario->notes.c_str());
    }
    for (const std::string& violation : outcome->violations) {
      std::printf("  violation: %s\n", violation.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int ScenarioHunt(const Args& args) {
  scenario::HuntOptions options;
  options.seed = args.Int("seed");
  options.num_samples = args.Int<int>("samples");
  options.archetype = args.Str("archetype");
  if (args.Has("floor")) options.precision_floor = args.Real("floor");
  if (args.Has("margin")) options.regression_margin = args.Real("margin");
  options.shrink = !args.Has("no-shrink");
  if (args.Has("max-shrink-evals")) {
    options.shrink_options.max_evaluations = args.Int<size_t>("max-shrink-evals");
  }
  options.log = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };
  auto report = scenario::RunHunt(options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("hunted %zu samples, %zu findings\n", report->samples_run,
              report->findings.size());
  const std::string out_dir = args.Str("out-dir");
  for (const auto& finding : report->findings) {
    std::printf("%s: %s\n", finding.scenario.name.c_str(),
                finding.summary.c_str());
    if (!out_dir.empty()) {
      std::filesystem::create_directories(out_dir);
      const std::string path =
          out_dir + "/" + finding.scenario.name + ".toml";
      if (Status s = scenario::SaveScenarioFile(finding.scenario, path);
          !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("  -> %s\n", path.c_str());
    }
  }
  return 0;
}

/// Prints (or saves) one grammar sample — the authoring starting point for
/// hand-written scenarios, and the determinism probe for tests.
int ScenarioSample(const Args& args) {
  const uint64_t seed = args.Int("seed");
  const std::string archetype = args.Str("archetype");
  scenario::Scenario s = archetype.empty()
                             ? scenario::SampleScenario(seed)
                             : scenario::SampleScenario(seed, archetype);
  const std::string out = args.Str("out");
  if (out.empty()) {
    std::fputs(scenario::ScenarioToToml(s).c_str(), stdout);
    return 0;
  }
  if (Status st = scenario::SaveScenarioFile(s, out); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%s -> %s\n", s.name.c_str(), out.c_str());
  return 0;
}

std::vector<FlagSpec> Concat(std::initializer_list<std::vector<FlagSpec>> groups) {
  std::vector<FlagSpec> all;
  for (const std::vector<FlagSpec>& group : groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  return all;
}

// Flag groups shared by `run` and `stream`: what LoadInputs reads, and the
// observability exports main() handles for every command that takes them.
const std::vector<FlagSpec> kInputFlags = {
    StrFlag("world", "W", "world.tsv"), StrFlag("corpus", "C", "corpus.tsv"),
    BoolFlag("lenient")};
const std::vector<FlagSpec> kObsFlags = {StrFlag("trace-out", "T.jsonl"),
                                         StrFlag("trace-chrome", "T.json"),
                                         StrFlag("metrics-out", "M.json")};

const Command kCommands[] = {
    {"generate", "",
     {RealFlag("scale", "S", "0.25"), IntFlag("seed", "N", "2014", kU64Max),
      StrFlag("world", "W", "world.tsv"), StrFlag("corpus", "C", "corpus.tsv")},
     Generate},
    {"run", "",
     Concat({kInputFlags,
             {StrFlag("out", "T.tsv", "taxonomy.tsv"), BoolFlag("no-clean"),
              StrFlag("snapshot-out", "S"), StrFlag("snapshot-delta-out", "D"),
              StrFlag("snapshot-delta-base", "S"),
              IntFlag("snapshot-delta-base-gen", "N", "1", kU64Max),
              StrFlag("checkpoint-dir", "D"), BoolFlag("resume"),
              BoolFlag("validate"), IntFlag("keep-checkpoints", "N", "0"),
              BoolFlag("supervise"), BoolFlag("health-report"),
              IntFlag("stage-deadline-ms", "N", "30000"),
              IntFlag("max-retries", "N", "2"),
              StrFlag("quarantine", "on|off", "on"),
              RealFlag("fault-rate", "R", "0"),
              IntFlag("fault-seed", "N", "2014", kU64Max),
              StrFlag("fault-kinds", "throw,stall,nan"),
              StrFlag("fault-stages", "warm,collect,train,score")},
             kObsFlags}),
     Run},
    {"stream", "",
     Concat({kInputFlags,
             {IntFlag("epochs", "N", "4", kIntMax, 1),
              IntFlag("full-rebuild-every", "K", "0"), BoolFlag("no-final-rebuild"),
              RealFlag("rebuild-dirty-frac", "F", "1.0"),
              StrFlag("publish-dir", "D"), StrFlag("epoch-snapshots", "D2"),
              IntFlag("max-iterations", "N", "12"), IntFlag("max-rounds", "N", "6"),
              IntFlag("epoch-sleep-ms", "N", "0")},
             kObsFlags}),
     StreamCmd},
    {"parse", "", {StrFlag("world", "W", "world.tsv")}, Parse, "sentences on stdin"},
    {"serve", "",
     {StrFlag("snapshot", "S"), BoolFlag("mmap"), StrFlag("publish-dir", "D"),
      IntFlag("poll-ms", "N", "200"), StrFlag("listen", "tcp:host:port|unix:/path"),
      IntFlag("shards", "N", "1", kU32Max), IntFlag("cache", "N", "4096", kU64Max),
      IntFlag("cache-shards", "N", "16", kU64Max),
      IntFlag("max-batch", "N", "64", kU64Max), IntFlag("max-wait-ms", "N", "1"),
      IntFlag("deadline-ms", "N", "1000"), IntFlag("deadline-budget-ms", "N", "0"),
      IntFlag("stats-interval-ms", "N", "0")},
     Serve,
     "exactly one of --snapshot, --publish-dir; --mmap only with --snapshot; "
     "without --listen, lines come from stdin; --max-batch, --max-wait-ms and "
     "--deadline-ms apply only to queued requests: split mutex legs, and all "
     "requests when --deadline-budget-ms > 0"},
    {"query", "<verb> <args...>",
     {StrFlag("snapshot", "S"), BoolFlag("mmap"), StrFlag("connect", "EP")},
     Query,
     "exactly one of --snapshot, --connect; exit: 0 OK, 1 ERR, 2 usage, "
     "3 NOT_FOUND, 4 OVERLOADED"},
    {"snapshot-verify", "<base> [delta...]", {}, SnapshotVerify},
    {"fuzz-load", "",
     {IntFlag("count", "N", "200"), IntFlag("seed", "N", "2014", kU64Max),
      RealFlag("scale", "S", "0.05"), StrFlag("dir", "D")},
     FuzzLoad},
    {"scenario-run", "<file.toml>...",
     {BoolFlag("verbose"), BoolFlag("pin-envelope")},
     ScenarioRun,
     "exit: 0 all pass, 1 violations, 2 usage"},
    {"scenario-hunt", "",
     {IntFlag("seed", "N", "1", kU64Max), IntFlag("samples", "N", "50"),
      StrFlag("archetype", "A"), RealFlag("floor", "F"), RealFlag("margin", "M"),
      BoolFlag("no-shrink"), IntFlag("max-shrink-evals", "N", "", kU64Max),
      StrFlag("out-dir", "D")},
     ScenarioHunt},
    {"scenario-sample", "",
     {IntFlag("seed", "N", "1", kU64Max), StrFlag("archetype", "A"),
      StrFlag("out", "F")},
     ScenarioSample},
};

/// One flag as the usage shows it, with its default.
std::string Synopsis(const FlagSpec& flag) {
  std::string out = std::string("[--") + flag.name;
  if (flag.kind != Kind::kBool) out += std::string(" ") + flag.metavar;
  if (*flag.fallback != '\0') out += std::string("=") + flag.fallback;
  return out + "]";
}

/// Prints the usage of `only` (of every command when null), generated from
/// the table, and returns the usage exit code.
int Usage(const Command* only) {
  std::string out = "usage:\n";
  for (const Command& cmd : kCommands) {
    if (only != nullptr && only != &cmd) continue;
    std::string line = std::string("  semdrift ") + cmd.name;
    auto append = [&](const std::string& word) {
      if (line.size() + 1 + word.size() > 79) {
        out += line + "\n";
        line = std::string(14, ' ');
      }
      line += " " + word;
    };
    if (*cmd.positional != '\0') append(cmd.positional);
    for (const FlagSpec& flag : cmd.flags) append(Synopsis(flag));
    if (*cmd.note != '\0') {
      out += line + "\n";
      line = std::string(14, ' ');
      for (const std::string& word : Split(std::string("(") + cmd.note + ")", ' ')) {
        append(word);
      }
    }
    out += line + "\n";
  }
  out += "\nEvery subcommand accepts " + Synopsis(kThreadsFlag) +
         " (0: SEMDRIFT_THREADS env var, then\nhardware concurrency). "
         "Results are identical at any thread count.\n";
  std::fputs(out.c_str(), stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Command* command = nullptr;
  for (const Command& cmd : kCommands) {
    if (argc > 1 && std::string_view(argv[1]) == cmd.name) command = &cmd;
  }
  if (command == nullptr) return Usage(nullptr);
  Args args(command);
  if (std::string error = args.Parse(argc, argv); !error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return Usage(command);
  }
  SetGlobalThreadCount(args.Int<int>("threads"));
  // Commands that take the observability flags record spans only when a
  // trace export is asked for, and export after a successful run.
  if (!args.Str("trace-out").empty() || !args.Str("trace-chrome").empty()) {
    GlobalTrace().Enable(true);
  }
  const int rc = command->run(args);
  return rc == 0 ? WriteObsArtifacts(args) : rc;
}

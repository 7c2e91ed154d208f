#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

namespace perfbench {

int64_t Params::Int(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) throw std::runtime_error("missing workload parameter " + key);
  size_t used = 0;
  int64_t value = std::stoll(it->second, &used);
  if (used != it->second.size()) {
    throw std::runtime_error("parameter " + key + " is not an integer");
  }
  return value;
}

void Report::Set(const std::string& name, double value, const std::string& unit,
                 const std::string& basis) {
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Value{value, unit, basis};
}

void Report::Check(bool ok, const std::string& what) {
  failures_.Add(ok);
  if (!ok) std::printf("CHECK FAILED: %s\n", what.c_str());
}

int Report::Emit() const {
  std::printf("metrics (failed_share %.6g = %llu failed / %llu attempted)\n",
              failures_.FailedShare(), static_cast<unsigned long long>(failures_.failed),
              static_cast<unsigned long long>(failures_.attempted));
  for (const std::string& name : order_) {
    const Value& v = metrics_.at(name);
    std::printf("  %-26s %16.6f %-6s %s\n", name.c_str(), v.value, v.unit.c_str(),
                v.basis.c_str());
  }
  bool correct = failures_.failed == 0 && failures_.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(failures_.attempted);
  json += ", \"failed\": " + std::to_string(failures_.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const std::string& name : order_) {
    const Value& v = metrics_.at(name);
    std::snprintf(value, sizeof(value), "%.17g", v.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + v.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"extract.ms", "ms"},
      {"extract.extractions", "count"},
      {"mutex.build_ms", "ms"},
      {"rank.warm_ms", "ms"},
      {"rank.concepts", "count"},
      {"dp.collect_ms", "ms"},
      {"dp.collect_instances", "count"},
      {"dp.train_ms", "ms"},
      {"dp.train_calls", "count"},
      {"ml.pool_rows", "count"},
      {"ml.kpca_components", "count"},
      {"ml.kpca_fit_ms", "ms"},
      {"ml.kpca_transform_ms", "ms"},
      {"ml.manifold_ms", "ms"},
      {"ml.multitask_ms", "ms"},
      {"ml.multitask_iters", "count"},
      {"ml.tasks", "count"},
      {"dp.classify_ms", "ms"},
      {"dp.classified", "count"},
      {"dp.detections", "count"},
      {"ml.kpca_point_us", "us"},
      {"dp.adjudicate_ms", "ms"},
      {"dp.adjudications", "count"},
      {"dp.rolled_back", "count"},
      {"dp.rounds", "count"},
      {"kb.replay_ms", "ms"},
      {"kb.validate_ms", "ms"},
      {"serve.compile_ms", "ms"},
      {"serve.snapshot_bytes", "bytes"},
      {"serve.delta_bytes", "bytes"},
      {"serve.install_ms", "ms"},
      {"stream.epoch_ms", "ms"},
      {"stream.dirty_concepts", "count"},
      {"pool.tasks", "count"},
      {"pool.busy_share", "ratio"},
      {"serve.engine_us.p50", "us"},
      {"serve.engine_us.p99", "us"},
      {"serve.cache_hit_rate", "ratio"},
      {"serve.batcher_us.p50", "us"},
      {"serve.queue_wait_us.p50", "us"},
      {"serve.batch_size", "count"},
      {"serve.shed", "count"},
      {"serve.deadline_expired", "count"},
      {"net.router_us.p50", "us"},
      {"net.socket_us.p50", "us"},
      {"net.backpressure_pauses", "count"},
      {"net.dropped_responses", "count"},
      {"serve.swap_ms", "ms"},
      {"loadgen.late_us.p99", "us"},
      {"loadgen.outstanding_max", "count"},
      {"trace.overhead_pct", "%"},
      {"residual_ms", "ms"},
  };
  return kMetrics;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SamplePace(std::vector<double>* slices_ms) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(size_t{1} << 20);
    for (size_t i = 0; i < t.size(); ++i) t[i] = static_cast<uint32_t>(i * 2654435761u);
    return t;
  }();
  const size_t mask = table.size() - 1;
  uint64_t acc = 0;
  for (int s = 0; s < kPaceSlices; ++s) {
    const double start = NowSeconds();
    for (int pass = 0; pass < kPacePasses; ++pass) {
      for (size_t i = 0; i < table.size(); ++i) acc += table[(i * 7919) & mask] ^ (acc >> 3);
    }
    slices_ms->push_back((NowSeconds() - start) * 1e3);
  }
  // Keeps the loop's result live.
  if (acc == 1) std::printf("pace loop sum %llu\n", static_cast<unsigned long long>(acc));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string FormatMs(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f ms", ms);
  return buf;
}

std::unique_ptr<semdrift::Experiment> BuildInputs(int64_t sentences, uint64_t seed) {
  semdrift::ExperimentConfig config = semdrift::PaperScaleConfig(1.0);
  config.world.num_concepts = kConcepts;
  config.corpus.num_sentences = static_cast<int>(sentences);
  config.corpus.render_text = false;
  config.seed = seed;
  return semdrift::Experiment::Build(config);
}

uint64_t CorpusSeed(uint64_t seed, int64_t k) {
  return k == 0 ? seed : seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(k);
}

std::vector<semdrift::ConceptId> AllConcepts(const semdrift::World& world) {
  std::vector<semdrift::ConceptId> out;
  out.reserve(world.num_concepts());
  for (size_t c = 0; c < world.num_concepts(); ++c) {
    out.push_back(semdrift::ConceptId{static_cast<uint32_t>(c)});
  }
  return out;
}

void QualityCount::Add(const semdrift::Experiment& experiment,
                       const semdrift::KnowledgeBase& kb) {
  std::vector<semdrift::IsAPair> population;
  std::unordered_set<semdrift::IsAPair, semdrift::IsAPairHash> removed;
  for (semdrift::ConceptId c : AllConcepts(experiment.world())) {
    for (semdrift::InstanceId e : kb.InstancesEverOf(c)) {
      semdrift::IsAPair pair{c, e};
      population.push_back(pair);
      if (!kb.Contains(pair)) removed.insert(pair);
    }
  }
  semdrift::CleaningMetrics m =
      semdrift::EvaluateCleaning(experiment.truth(), population, removed);
  pairs += population.size();
  remaining += m.remaining;
  remaining_correct += static_cast<size_t>(
      std::llround(m.pcorr * static_cast<double>(m.remaining)));
  correct += m.total_correct;
}

void ReportQuality(const QualityCount& q, Report* report) {
  report->Check(q.remaining > 0 && q.correct > 0, "pcorr/rcorr defined");
  std::string basis = std::to_string(q.remaining_correct) + " remaining correct of " +
                      std::to_string(q.remaining) + " remaining, " +
                      std::to_string(q.correct) + " correct, " + std::to_string(q.pairs) +
                      " pairs ever extracted";
  report->Set("pcorr", q.remaining > 0 ? static_cast<double>(q.remaining_correct) / q.remaining : 0.0,
              "ratio", basis);
  report->Set("rcorr", q.correct > 0 ? static_cast<double>(q.remaining_correct) / q.correct : 0.0,
              "ratio", basis);
}

semdrift::Result<std::string> CompileImage(const semdrift::KnowledgeBase& kb,
                                           const semdrift::World& world,
                                           size_t num_sentences,
                                           semdrift::SnapshotParts* parts_out) {
  semdrift::Status valid = kb.Validate(world.num_concepts(), num_sentences);
  if (!valid.ok()) return valid;
  semdrift::SnapshotParts parts =
      semdrift::CompileSnapshotParts(kb, world, nullptr, semdrift::SnapshotOptions{});
  semdrift::Result<std::string> image = semdrift::BuildSnapshotImage(parts);
  if (parts_out != nullptr) *parts_out = std::move(parts);
  return image;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

void ReportWriteTimes(const WriteTimes& times, Report* report) {
  double sentences = 0.0;
  double build_s = 0.0;
  std::vector<double> per_s;
  for (size_t b = 0; b < times.build_ms.size(); ++b) {
    sentences += static_cast<double>(times.sentences[b]);
    build_s += times.build_ms[b] / 1e3;
    per_s.push_back(static_cast<double>(times.sentences[b]) / (times.build_ms[b] / 1e3));
  }
  // Every build counts: the best build would follow the easiest corpus and
  // the machine's rare fast moments. The machine's slow stretches last
  // minutes, longer than a run, so set-up and build times are scaled to the
  // reference pace by the pace loop run between the builds. Install times
  // stay wall times: they did not follow the pace loop (scaled, their spread
  // over ten seeds grew from 0.06-0.08 to 0.20-0.23).
  const double wall_per_s = build_s > 0 ? sentences / build_s : 0.0;
  const double pace_ms = Median(times.pace_ms);
  const double to_reference = pace_ms > 0 ? kReferencePaceMs / pace_ms : 0.0;
  char pace[96];
  std::snprintf(pace, sizeof(pace), "pace %.2f ms (median of %zu slices), reference %.0f ms",
                pace_ms, times.pace_ms.size(), kReferencePaceMs);
  const double setup_wall_s = Median(times.setup_s);
  report->Set("setup_s", setup_wall_s * to_reference, "s",
              "median of " + std::to_string(times.setup_s.size()) + " set-ups (" +
                  times.setup_what + "): " + std::to_string(setup_wall_s) +
                  " s wall x reference / pace; " + pace);
  char basis[280];
  std::snprintf(basis, sizeof(basis),
                "%.0f sentences in %.3f s over %zu builds: %.1f/s wall (per build: median %.0f, "
                "%.0f-%.0f) x pace / reference; %s",
                sentences, build_s, per_s.size(), wall_per_s, Median(per_s),
                Percentile(per_s, 0.0), Percentile(per_s, 100.0), pace);
  report->Set("sentences_per_s", to_reference > 0 ? wall_per_s / to_reference : 0.0, "1/s",
              basis);
  report->Set("epoch_p50_ms", Median(times.epoch_ms), "ms",
              "median of " + std::to_string(times.epoch_ms.size()) + " generations, wall");
  report->Set("swap_p50_ms", Median(times.swap_ms), "ms",
              "median of " + std::to_string(times.swap_ms.size()) + " installs, wall");
  report->Check(!times.setup_s.empty() && !times.build_ms.empty() && !times.epoch_ms.empty() &&
                    !times.swap_ms.empty() && !times.pace_ms.empty(),
                "set-up and write path timed");
}

double Install(const std::string& image, const std::string& dir,
               std::unique_ptr<semdrift::SnapshotManager>* manager, Report* report) {
  std::string error;
  if (!ResetDir(dir, &error)) {
    report->Check(false, error);
    return -1.0;
  }
  manager->reset();
  semdrift::Status published = semdrift::PublishSnapshotImage(image, dir + "/snap-1.bin");
  report->Check(published.ok(), "publish: " + published.ToString());
  double start = NowSeconds();
  semdrift::SnapshotManagerOptions options;
  options.dir = dir;
  *manager = std::make_unique<semdrift::SnapshotManager>(options);
  semdrift::Status loaded = (*manager)->LoadInitial();
  double ms = (NowSeconds() - start) * 1e3;
  bool ok = loaded.ok() && (*manager)->generation() == 1 &&
            (*manager)->Current()->reader.Validate().ok();
  report->Check(ok, "install of the built snapshot: " + loaded.ToString());
  return ok ? ms : -1.0;
}

bool ResetDir(const std::string& dir, std::string* error) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  return true;
}

}  // namespace perfbench

// batch-clean and stream-epochs: the write path (extraction, DP cleaning,
// snapshot compile/publish/install), then the read phase over the
// generation they installed.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "corpus/serialization.h"
#include "dp/cleaner.h"
#include "dp/detector.h"
#include "extract/dirty_set.h"
#include "extract/extractor.h"
#include "ml/kpca.h"
#include "ml/manifold.h"
#include "ml/multitask.h"
#include "mutex/mutex_index.h"
#include "net/router.h"
#include "obs/metrics.h"
#include "rank/scorers.h"
#include "stream/stream.h"
#include "workloads.h"

namespace perfbench {

namespace sd = semdrift;

RegistryMark RegistryMark::Now() {
  sd::MetricsRegistry& m = sd::GlobalMetrics();
  RegistryMark mark;
  mark.pool_tasks = m.CounterValue("pool.tasks");
  mark.pool_job_ns = m.HistogramValues("pool.job_ns").sum;
  mark.train_calls = m.CounterValue("train.calls");
  mark.train_ns = m.HistogramValues("train.ns").sum;
  mark.collect_instances = m.CounterValue("collect.instances");
  mark.warm_concepts = m.CounterValue("warm.concepts");
  mark.extractions = m.CounterValue("extract.extractions");
  return mark;
}

RegistryMark RegistryMark::Since(const RegistryMark& e) const {
  RegistryMark d;
  d.pool_tasks = pool_tasks - e.pool_tasks;
  d.pool_job_ns = pool_job_ns - e.pool_job_ns;
  d.train_calls = train_calls - e.train_calls;
  d.train_ns = train_ns - e.train_ns;
  d.collect_instances = collect_instances - e.collect_instances;
  d.warm_concepts = warm_concepts - e.warm_concepts;
  d.extractions = extractions - e.extractions;
  return d;
}

void StartTrace() {
  sd::GlobalTrace().Clear();
  sd::GlobalTrace().Enable(true);
}

LayerTable FinishTrace(const RunContext& ctx, const std::string& root, Report* report) {
  sd::TraceRecorder& trace = sd::GlobalTrace();
  const LayerTable table = BuildLayerTable(trace.Snapshot(), root);
  report->Check(table.wall_ms > 0, "root span " + root + " recorded");
  report->Check(trace.spans_dropped() == 0,
                std::to_string(trace.spans_dropped()) + " spans dropped by the recorder");
  report->Set("residual_ms", table.residual_ms, "ms",
              "traced wall " + FormatMs(table.wall_ms) + " minus every layer span's self time");
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (!report->Has(name)) report->Set(name, 0.0, unit, "layer does not run in this workload");
  }
  PrintLayerTable("per-layer table, " + ctx.workload, table);
  std::string error;
  report->Check(trace.WriteJsonl(ctx.trace_path, &error), "trace JSONL: " + error);
  std::printf("%llu spans -> %s\n", static_cast<unsigned long long>(trace.spans_recorded()),
              ctx.trace_path.c_str());
  trace.Enable(false);
  return table;
}

namespace {

std::string TaxonomyBytes(const sd::KnowledgeBase& kb, const sd::World& world,
                          const std::string& path, Report* report) {
  sd::Status wrote = sd::ExportTaxonomyTsv(kb, world, path);
  report->Check(wrote.ok(), "taxonomy export: " + wrote.ToString());
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// One pass of the default write path: extraction, DP cleaning over every
/// concept, validated snapshot compile.
struct BatchBuild {
  sd::KnowledgeBase kb;
  std::string image;
  double start_s = 0.0;
  double build_ms = 0.0;
};

BatchBuild BuildBatch(const sd::Experiment& exp, Report* report) {
  BatchBuild b;
  b.start_s = NowSeconds();
  const sd::SentenceStore& sentences = exp.corpus().sentences;
  sd::IterativeExtractor extractor(&sentences, exp.config().extractor);
  extractor.Run(&b.kb);
  sd::DpCleaner cleaner(&sentences, exp.MakeVerifiedSource(), exp.world().num_concepts());
  cleaner.Clean(&b.kb, AllConcepts(exp.world()));
  auto image = CompileImage(b.kb, exp.world(), sentences.size());
  report->Check(image.ok(), "batch snapshot compile: " + image.status().ToString());
  if (image.ok()) b.image = std::move(*image);
  b.build_ms = (NowSeconds() - b.start_s) * 1e3;
  return b;
}

/// The run's seeded worlds and corpora (`corpora` of them), generated
/// setup_repeats times for setup_s.
std::vector<std::unique_ptr<sd::Experiment>> SetUpInputs(const RunContext& ctx,
                                                         WriteTimes* times) {
  std::vector<std::unique_ptr<sd::Experiment>> exps;
  const int64_t sentences = ctx.params.Int("sentences");
  const int64_t corpora = ctx.params.Int("corpora");
  for (int64_t r = 0; r < ctx.params.Int("setup_repeats"); ++r) {
    exps.clear();
    const double start = NowSeconds();
    for (int64_t k = 0; k < corpora; ++k) {
      exps.push_back(BuildInputs(sentences, CorpusSeed(ctx.seed, k)));
    }
    times->setup_s.push_back(NowSeconds() - start);
  }
  times->setup_what = std::to_string(corpora) + " seeded worlds with " +
                      std::to_string(sentences) + "-sentence corpora, generated";
  return exps;
}

/// Accumulated ml-layer probe results (traced runs).
struct MlAcc {
  size_t pool_rows = 0;
  std::vector<double> components;
  std::vector<double> tasks;
  size_t iterations = 0;
  size_t points = 0;
  double point_ms = 0.0;
  size_t probes = 0;
};

/// Times the ml layer's public entry points on a pool of the shape
/// TrainDetector builds from `data` (labeled rows plus a seeded sample of
/// unlabeled rows per concept, capped at max_pool_samples).
void MlProbe(const sd::TrainingData& data, const sd::DetectorTrainOptions& options,
             int64_t round, MlAcc* acc) {
  BenchSpan probe("ml.probe", round);
  ++acc->probes;
  sd::Rng rng(options.seed);
  std::vector<sd::FeatureVector> pool;
  for (const sd::ConceptTrainingData& concept_data : data) {
    std::vector<size_t> unlabeled;
    for (size_t i = 0; i < concept_data.instances.size(); ++i) {
      if (concept_data.seed_labels[i] == sd::DpClass::kUnlabeled) {
        unlabeled.push_back(i);
      } else {
        pool.push_back(concept_data.features[i]);
      }
    }
    rng.Shuffle(&unlabeled);
    size_t take = std::min<size_t>(unlabeled.size(),
                                   static_cast<size_t>(options.max_unlabeled_per_concept));
    for (size_t t = 0; t < take; ++t) pool.push_back(concept_data.features[unlabeled[t]]);
  }
  if (pool.size() > static_cast<size_t>(options.max_pool_samples)) {
    rng.Shuffle(&pool);
    pool.resize(static_cast<size_t>(options.max_pool_samples));
  }
  acc->pool_rows = std::max(acc->pool_rows, pool.size());
  sd::KernelPca kpca;
  sd::Matrix pool_matrix(pool.size(), 4);
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = 0; j < 4; ++j) pool_matrix(i, j) = pool[i][j];
  }
  bool fitted = false;
  {
    BenchSpan s("ml.kpca_fit", round);
    fitted = pool.size() >= 4 && kpca.Fit(pool_matrix, options.kpca);
  }
  if (!fitted) return;
  const size_t r = kpca.num_components();
  acc->components.push_back(static_cast<double>(r));
  sd::Matrix projected;
  {
    BenchSpan s("ml.kpca_transform", round);
    projected = kpca.TransformMatrix(pool_matrix);
  }
  sd::Matrix a;
  {
    BenchSpan s("ml.manifold", round);
    a = sd::BuildManifoldRegularizer(projected, options.manifold);
  }
  std::vector<sd::LearningTask> tasks;
  {
    BenchSpan s("ml.kpca_transform", round);
    for (const sd::ConceptTrainingData& concept_data : data) {
      std::vector<size_t> labeled;
      for (size_t i = 0; i < concept_data.instances.size(); ++i) {
        if (concept_data.seed_labels[i] != sd::DpClass::kUnlabeled) labeled.push_back(i);
      }
      if (labeled.empty()) continue;
      sd::LearningTask task;
      task.xl = sd::Matrix(labeled.size(), r);
      task.y = sd::Matrix(labeled.size(), 3);
      for (size_t row = 0; row < labeled.size(); ++row) {
        size_t i = labeled[row];
        std::vector<double> raw(concept_data.features[i].begin(),
                                concept_data.features[i].end());
        std::vector<double> point = kpca.Transform(raw);
        for (size_t p = 0; p < r; ++p) task.xl(row, p) = point[p];
        task.y(row, static_cast<size_t>(concept_data.seed_labels[i])) = 1.0;
      }
      acc->points += labeled.size();
      tasks.push_back(std::move(task));
    }
    acc->point_ms += s.ElapsedUs() / 1e3;
  }
  acc->tasks.push_back(static_cast<double>(tasks.size()));
  if (!tasks.empty()) {
    BenchSpan s("ml.multitask", round);
    sd::MultiTaskResult result = sd::TrainMultiTask(tasks, a, options.multitask);
    acc->iterations += result.objective_trace.size();
  }
}

void ReportMl(const LayerTable& table, const MlAcc& ml, Report* report) {
  const std::string calls = std::to_string(ml.probes) + " probes";
  report->Set("ml.pool_rows", static_cast<double>(ml.pool_rows), "count",
              "largest pooled sample (cap 600)");
  report->Set("ml.kpca_components", Median(ml.components), "count", "median r over " + calls);
  report->Set("ml.kpca_fit_ms", table.TotalMs("ml.kpca_fit"), "ms", calls);
  report->Set("ml.kpca_transform_ms", table.TotalMs("ml.kpca_transform"), "ms",
              "TransformMatrix of the pool plus Transform of every labeled row, " + calls);
  report->Set("ml.manifold_ms", table.TotalMs("ml.manifold"), "ms", calls);
  report->Set("ml.multitask_ms", table.TotalMs("ml.multitask"), "ms", calls);
  report->Set("ml.multitask_iters", static_cast<double>(ml.iterations), "count",
              "Algorithm 1 iterations summed over " + calls);
  report->Set("ml.tasks", Median(ml.tasks), "count", "median tasks per probe");
  report->Set("ml.kpca_point_us", ml.points > 0 ? ml.point_ms * 1e3 / ml.points : 0.0, "us",
              "per projected point over " + std::to_string(ml.points) + " points");
}

void ReportPool(const RegistryMark& d, double wall_ms, Report* report) {
  report->Set("pool.tasks", static_cast<double>(d.pool_tasks), "count", "pool.tasks counter");
  report->Set("pool.busy_share", wall_ms > 0 ? d.pool_job_ns / 1e6 / wall_ms : 0.0, "ratio",
              "share of the write path's wall time with a parallel job running "
              "(pool.job_ns)");
}

void BatchCleanTraced(const RunContext& ctx, Report* report) {
  auto exp = BuildInputs(ctx.params.Int("sentences"), ctx.seed);
  const sd::World& world = exp->world();
  const sd::SentenceStore& sentences = exp->corpus().sentences;
  const size_t nc = world.num_concepts();
  const std::vector<sd::ConceptId> scope = AllConcepts(world);

  BatchBuild plain = BuildBatch(*exp, report);
  const std::string plain_taxonomy =
      TaxonomyBytes(plain.kb, world, ctx.work_dir + "/untraced.tsv", report);

  StartTrace();
  const RegistryMark before = RegistryMark::Now();
  sd::KnowledgeBase kb;
  size_t extractions = 0;
  size_t warmed = 0, collected = 0, classified = 0, detections = 0;
  size_t adjudications = 0, rolled_back = 0;
  int rounds = 0;
  double adjudicate_ms = 0.0;
  double write_wall_ms = 0.0;
  double install_ms = 0.0;
  std::string image;
  MlAcc ml;
  {
    BenchSpan root("batch.traced");
    {
      BenchSpan s("extract");
      sd::IterativeExtractor extractor(&sentences, exp->config().extractor);
      for (const sd::IterationStats& it : extractor.Run(&kb)) extractions += it.extractions;
    }
    const sd::CleanerOptions options;
    sd::CleanerOptions one_round = options;
    one_round.max_rounds = 1;
    sd::DpCleaner cleaner(&sentences, exp->MakeVerifiedSource(), nc, one_round);
    const sd::VerifiedSource verified = exp->MakeVerifiedSource();
    // One round at a time, as DpCleaner::Clean would run them: each round
    // first times every stage's public entry point on that round's KB state,
    // then runs the real single-round clean.
    for (int round = 1; round <= options.max_rounds; ++round) {
      BenchSpan rs("bench.round", round);
      double stages_us = 0.0;
      {
        std::unique_ptr<sd::MutexIndex> mutex;
        {
          BenchSpan s("mutex.build", round);
          mutex = std::make_unique<sd::MutexIndex>(kb, nc, options.mutex);
          stages_us += s.ElapsedUs();
        }
        sd::ScoreCache scores(&kb, options.score_model);
        {
          BenchSpan s("rank.warm", round);
          scores.Warm(scope);
          stages_us += s.ElapsedUs();
        }
        warmed += scope.size();
        sd::FeatureExtractor features(&kb, mutex.get(), &scores);
        sd::SeedLabeler seeds(&kb, mutex.get(), verified, options.seeds);
        sd::TrainingData data;
        {
          BenchSpan s("dp.collect", round);
          data = sd::CollectTrainingData(kb, &features, seeds, scope);
          stages_us += s.ElapsedUs();
        }
        for (const auto& entry : data) collected += entry.instances.size();
        std::unique_ptr<sd::DpDetector> detector;
        {
          BenchSpan s("dp.train", round);
          detector = sd::TrainDetector(options.detector, data, options.train);
          stages_us += s.ElapsedUs();
        }
        MlProbe(data, options.train, round, &ml);
        if (detector != nullptr) {
          BenchSpan s("dp.classify", round);
          for (sd::ConceptId c : scope) {
            for (sd::InstanceId e : kb.LiveInstancesOf(c)) {
              sd::DpClass type = detector->Classify(c, features.Extract(c, e));
              ++classified;
              if (type == sd::DpClass::kAccidentalDP || type == sd::DpClass::kIntentionalDP) {
                ++detections;
              }
            }
          }
          stages_us += s.ElapsedUs();
        }
      }
      sd::CleaningReport cleaned;
      {
        BenchSpan s("dp.round", round);
        cleaned = cleaner.Clean(&kb, scope);
        adjudicate_ms += (s.ElapsedUs() - stages_us) / 1e3;
      }
      adjudications += cleaned.sentence_checks.size();
      rolled_back += cleaned.records_rolled_back;
      ++rounds;
      if (cleaned.records_rolled_back == 0) break;
    }
    {
      BenchSpan s("serve.compile");
      auto compiled = CompileImage(kb, world, sentences.size());
      report->Check(compiled.ok(), "traced compile: " + compiled.status().ToString());
      if (compiled.ok()) image = std::move(*compiled);
    }
    write_wall_ms = root.ElapsedUs() / 1e3;
    {
      BenchSpan s("kb.replay");
      auto replayed = sd::KnowledgeBase::FromRecords(kb.records());
      report->Check(replayed.ok(), "replay: " + replayed.status().ToString());
      BenchSpan v("kb.validate");
      sd::Status valid = replayed.ok() ? replayed->Validate(nc, sentences.size())
                                       : replayed.status();
      report->Check(valid.ok(), "validate: " + valid.ToString());
    }
    std::unique_ptr<sd::SnapshotManager> manager;
    {
      BenchSpan s("serve.install");
      install_ms = Install(image, ctx.work_dir + "/pub", &manager, report);
    }
    if (manager != nullptr && manager->Current() != nullptr) {
      BenchSpan s("serve.read_path");
      TraceReadPhaseOn(ctx, manager->Current()->reader, manager.get(), report);
    }
  }
  const RegistryMark registry = RegistryMark::Now().Since(before);
  report->Check(TaxonomyBytes(kb, world, ctx.work_dir + "/traced.tsv", report) == plain_taxonomy,
                "traced taxonomy is byte-identical to the untraced run's");
  report->Check(image == plain.image, "traced snapshot is byte-identical to the untraced run's");

  const LayerTable table = FinishTrace(ctx, "batch.traced", report);
  const std::string per_round = std::to_string(rounds) + " rounds";
  report->Set("extract.ms", table.TotalMs("extract"), "ms",
              std::to_string(sentences.size()) + " sentences");
  report->Set("extract.extractions", static_cast<double>(extractions), "count", "");
  report->Set("mutex.build_ms", table.TotalMs("mutex.build"), "ms", per_round);
  report->Set("rank.warm_ms", table.TotalMs("rank.warm"), "ms", per_round);
  report->Set("rank.concepts", static_cast<double>(warmed), "count", per_round);
  report->Set("dp.collect_ms", table.TotalMs("dp.collect"), "ms", per_round);
  report->Set("dp.collect_instances", static_cast<double>(collected), "count", per_round);
  report->Set("dp.train_ms", table.TotalMs("dp.train"), "ms", per_round);
  report->Set("dp.train_calls", static_cast<double>(table.Count("dp.train")), "count", "");
  ReportMl(table, ml, report);
  report->Set("dp.classify_ms", table.TotalMs("dp.classify"), "ms", per_round);
  report->Set("dp.classified", static_cast<double>(classified), "count", per_round);
  report->Set("dp.detections", static_cast<double>(detections), "count",
              "of " + std::to_string(classified) + " classified");
  report->Set("dp.adjudicate_ms", adjudicate_ms, "ms",
              "round time minus the stages timed before it, " + per_round);
  report->Set("dp.adjudications", static_cast<double>(adjudications), "count", per_round);
  report->Set("dp.rolled_back", static_cast<double>(rolled_back), "count",
              "of " + std::to_string(adjudications) + " adjudications (with cascades)");
  report->Set("dp.rounds", static_cast<double>(rounds), "count", "");
  report->Set("kb.replay_ms", table.TotalMs("kb.replay"), "ms", "");
  report->Set("kb.validate_ms", table.TotalMs("kb.validate"), "ms", "");
  report->Set("serve.compile_ms", table.TotalMs("serve.compile"), "ms", "validate+compile+frame");
  report->Set("serve.snapshot_bytes", static_cast<double>(image.size()), "bytes", "");
  report->Set("serve.install_ms", install_ms, "ms", "publish to LoadInitial");
  ReportPool(registry, write_wall_ms, report);
  const double traced_ms =
      table.TotalMs("extract") + table.TotalMs("dp.round") + table.TotalMs("serve.compile");
  report->Set("trace.overhead_pct", 100.0 * (traced_ms - plain.build_ms) / plain.build_ms, "%",
              "extract + single-round cleans + compile (" + FormatMs(traced_ms) +
                  ") against the untraced build (" + FormatMs(plain.build_ms) + ")");
}

void BatchCleanUntraced(const RunContext& ctx, Report* report) {
  WriteTimes times;
  auto exps = SetUpInputs(ctx, &times);
  QualityCount quality;
  std::unique_ptr<sd::SnapshotManager> manager;
  const std::string dir = ctx.work_dir + "/pub";
  for (const auto& exp : exps) {
    SamplePace(&times.pace_ms);
    BatchBuild b = BuildBatch(*exp, report);
    times.swap_ms.push_back(Install(b.image, dir, &manager, report));
    times.epoch_ms.push_back((NowSeconds() - b.start_s) * 1e3);
    times.build_ms.push_back(b.build_ms);
    times.sentences.push_back(exp->corpus().sentences.size());
    for (int k = 0; k < kInstallRepeats; ++k) {
      times.swap_ms.push_back(Install(b.image, dir, &manager, report));
    }
    quality.Add(*exp, b.kb);
    std::printf("build %zu: %s to the snapshot, %s to installed\n", times.build_ms.size(),
                FormatMs(b.build_ms).c_str(), FormatMs(times.epoch_ms.back()).c_str());
  }
  SamplePace(&times.pace_ms);
  ReportWriteTimes(times, report);
  ReportQuality(quality, report);
  if (manager == nullptr || manager->Current() == nullptr) return;
  sd::ShardRouter router(manager.get(), sd::RouterOptions{});
  ReadPhaseOn(ctx, manager->Current()->reader, &router, report);
}

/// What the traced stream collects per epoch beyond the spans.
struct StreamTrace {
  MlAcc ml;
  RegistryMark in_epochs;
  double epochs_ms = 0.0;
  size_t extractions = 0;
  size_t rolled_back = 0;
};

/// Replays the corpus as even epochs through StreamPipeline, installing
/// every published generation and checking it is the one served. With
/// `trace`, each epoch and install gets a span and the epoch's state is
/// probed from outside afterwards.
void RunStream(const RunContext& ctx, const sd::Experiment& exp, Report* report,
               WriteTimes* times, StreamTrace* trace,
               std::unique_ptr<sd::StreamPipeline>* pipeline,
               std::unique_ptr<sd::SnapshotManager>* manager) {
  const sd::World& world = exp.world();
  const std::string dir = ctx.work_dir + "/stream";
  std::string error;
  if (!ResetDir(dir, &error)) {
    report->Check(false, error);
    return;
  }
  const std::vector<sd::Sentence>& all = exp.corpus().sentences.sentences();
  const int64_t epochs = ctx.params.Int("epochs");
  sd::StreamOptions options;
  options.final_full_rebuild = false;
  options.publish_dir = dir;
  manager->reset();
  *pipeline = std::make_unique<sd::StreamPipeline>(&world, options);
  sd::SnapshotManagerOptions manager_options;
  manager_options.dir = dir;
  *manager = std::make_unique<sd::SnapshotManager>(manager_options);
  double staleness_ms = 0.0;
  for (int64_t k = 0; k < epochs; ++k) {
    size_t begin = all.size() * static_cast<size_t>(k) / static_cast<size_t>(epochs);
    size_t end = all.size() * static_cast<size_t>(k + 1) / static_cast<size_t>(epochs);
    std::vector<sd::Sentence> delta(all.begin() + static_cast<long>(begin),
                                    all.begin() + static_cast<long>(end));
    const size_t first_record = (*pipeline)->kb().num_records();
    const RegistryMark before = RegistryMark::Now();
    const double handoff = NowSeconds();
    sd::Result<sd::StreamEpochStats> stats = [&] {
      BenchSpan s("bench.epoch", k + 1);
      return (*pipeline)->RunEpoch(std::move(delta), k + 1 == epochs);
    }();
    const double published = NowSeconds();
    const RegistryMark in_epoch = RegistryMark::Now().Since(before);
    report->Check(stats.ok(), "epoch " + std::to_string(k + 1) + ": " + stats.status().ToString());
    if (!stats.ok()) return;
    bool installed = false;
    {
      BenchSpan s("serve.install", k + 1);
      if (k == 0) {
        installed = (*manager)->LoadInitial().ok();
      } else {
        sd::SnapshotPollResult poll = (*manager)->Poll();
        installed = poll.swaps == 1 && poll.failed == 0 && poll.orphaned == 0;
      }
    }
    const double done = NowSeconds();
    times->epoch_ms.push_back((done - handoff) * 1e3);
    times->swap_ms.push_back((done - published) * 1e3);
    staleness_ms += times->epoch_ms.back();
    std::printf("epoch %lld: %s to installed (%s publish to installed), %llu cleaning rounds, "
                "%zu dirty concepts\n",
                static_cast<long long>(k + 1), FormatMs(times->epoch_ms.back()).c_str(),
                FormatMs(times->swap_ms.back()).c_str(),
                static_cast<unsigned long long>(in_epoch.train_calls), stats->dirty_concepts);
    // The epoch's generation installed, validates, and is the one served.
    auto current = (*manager)->Current();
    sd::EnginePin pin = (*manager)->Pin();
    bool served = installed && current != nullptr &&
                  current->generation == stats->generation &&
                  current->reader.Validate().ok() && pin.engine != nullptr &&
                  pin.engine->Answer("stats").find(
                      "\tgeneration=" + std::to_string(stats->generation) + "\t") !=
                      std::string::npos;
    report->Check(served, "epoch " + std::to_string(k + 1) + " generation " +
                              std::to_string(stats->generation) + " installed and served");
    if (trace == nullptr) continue;
    trace->epochs_ms += (published - handoff) * 1e3;
    trace->extractions += stats->extractions;
    trace->rolled_back += stats->records_rolled_back;
    trace->in_epochs.pool_tasks += in_epoch.pool_tasks;
    trace->in_epochs.pool_job_ns += in_epoch.pool_job_ns;
    trace->in_epochs.train_calls += in_epoch.train_calls;
    trace->in_epochs.train_ns += in_epoch.train_ns;
    trace->in_epochs.collect_instances += in_epoch.collect_instances;
    trace->in_epochs.warm_concepts += in_epoch.warm_concepts;
    trace->in_epochs.extractions += in_epoch.extractions;
    // Probes of the epoch's state from outside, for what the program builds
    // inside clean.round without a span of its own (MutexIndex,
    // ValidateConcepts) and for the ml layer inside TrainDetector.
    BenchSpan probe("probe", k + 1);
    const sd::KnowledgeBase& kb = (*pipeline)->kb();
    const size_t nc = world.num_concepts();
    std::vector<sd::ConceptId> dirty = sd::ComputeDirtyConcepts(kb, first_record, nc);
    std::unique_ptr<sd::MutexIndex> mutex;
    {
      BenchSpan s("mutex.build", k + 1);
      mutex = std::make_unique<sd::MutexIndex>(kb, nc, options.cleaner.mutex);
    }
    {
      BenchSpan s("kb.validate", k + 1);
      sd::Status valid = kb.ValidateConcepts(dirty, (*pipeline)->sentences().size());
      report->Check(valid.ok(), "validate: " + valid.ToString());
    }
    sd::ScoreCache scores(&kb, options.cleaner.score_model);
    scores.Warm(dirty);
    sd::FeatureExtractor features(&kb, mutex.get(), &scores);
    sd::SeedLabeler seeds(&kb, mutex.get(), exp.MakeVerifiedSource(), options.cleaner.seeds);
    sd::TrainingData data = sd::CollectTrainingData(kb, &features, seeds, dirty);
    MlProbe(data, options.cleaner.train, k + 1, &trace->ml);
  }
  times->sentences.push_back(all.size());
  times->build_ms.push_back(staleness_ms);
}

size_t PublishedBytes(const std::string& dir, const std::string& prefix) {
  size_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) bytes += entry.file_size(ec);
  }
  return bytes;
}

void StreamEpochsUntraced(const RunContext& ctx, Report* report) {
  WriteTimes times;
  auto exps = SetUpInputs(ctx, &times);
  std::unique_ptr<sd::StreamPipeline> pipeline;
  std::unique_ptr<sd::SnapshotManager> manager;
  QualityCount quality;
  for (const auto& exp : exps) {
    SamplePace(&times.pace_ms);
    RunStream(ctx, *exp, report, &times, nullptr, &pipeline, &manager);
    if (times.epoch_ms.empty() || pipeline == nullptr) return;
    quality.Add(*exp, pipeline->kb());
  }
  SamplePace(&times.pace_ms);
  ReportWriteTimes(times, report);
  ReportQuality(quality, report);
  if (manager->Current() == nullptr) return;
  sd::ShardRouter router(manager.get(), sd::RouterOptions{});
  ReadPhaseOn(ctx, manager->Current()->reader, &router, report);
}

/// Sums over the spans called `name` that lie inside a span called
/// `container` on the same thread: count, duration, and one numeric tag.
struct Within {
  size_t count = 0;
  double ms = 0.0;
  uint64_t tag_sum = 0;
};

Within SumWithin(const std::vector<sd::TraceSpan>& spans, const std::string& name,
                 const std::string& container, const std::string& tag = "") {
  std::vector<const sd::TraceSpan*> boxes;
  for (const sd::TraceSpan& s : spans) {
    if (s.name == container) boxes.push_back(&s);
  }
  Within out;
  for (const sd::TraceSpan& s : spans) {
    if (s.name != name) continue;
    bool inside = false;
    for (const sd::TraceSpan* box : boxes) {
      inside = inside || (box->thread == s.thread && box->start_ns <= s.start_ns &&
                          s.start_ns + s.dur_ns <= box->start_ns + box->dur_ns);
    }
    if (!inside) continue;
    ++out.count;
    out.ms += static_cast<double>(s.dur_ns) / 1e6;
    for (const auto& [key, value] : s.tags) {
      if (key == tag) out.tag_sum += std::stoull(value);
    }
  }
  return out;
}

void StreamEpochsTraced(const RunContext& ctx, Report* report) {
  auto exp = BuildInputs(ctx.params.Int("sentences"), ctx.seed);
  std::unique_ptr<sd::StreamPipeline> pipeline;
  std::unique_ptr<sd::SnapshotManager> manager;
  WriteTimes plain;
  RunStream(ctx, *exp, report, &plain, nullptr, &pipeline, &manager);
  StartTrace();
  WriteTimes traced;
  StreamTrace st;
  {
    BenchSpan root("stream.traced");
    RunStream(ctx, *exp, report, &traced, &st, &pipeline, &manager);
    if (manager != nullptr && manager->Current() != nullptr) {
      BenchSpan s("serve.read_path");
      TraceReadPhaseOn(ctx, manager->Current()->reader, manager.get(), report);
    }
  }
  const std::vector<sd::TraceSpan> spans = sd::GlobalTrace().Snapshot();
  const LayerTable table = FinishTrace(ctx, "stream.traced", report);
  const std::string dir = ctx.work_dir + "/stream";
  const std::string epochs = std::to_string(traced.epoch_ms.size()) + " epochs";
  auto inside = [&](const char* name, const char* tag = "") {
    return SumWithin(spans, name, "stream.epoch", tag);
  };
  const Within rounds = inside("clean.round", "detections");
  const RegistryMark& d = st.in_epochs;
  report->Set("extract.ms", inside("stream.extract").ms, "ms", "stream.extract spans, " + epochs);
  report->Set("extract.extractions", static_cast<double>(st.extractions), "count", epochs);
  report->Set("mutex.build_ms", table.TotalMs("mutex.build"), "ms",
              "MutexIndex over each epoch's KB, timed from outside (built inside clean.round "
              "without a span)");
  report->Set("rank.warm_ms", inside("warm.batch").ms, "ms", "warm.batch spans in the epochs");
  report->Set("rank.concepts", static_cast<double>(d.warm_concepts), "count", epochs);
  report->Set("dp.collect_ms", inside("collect.batch").ms, "ms",
              "collect.batch spans in the epochs");
  report->Set("dp.collect_instances", static_cast<double>(d.collect_instances), "count", epochs);
  report->Set("dp.train_ms", d.train_ns / 1e6, "ms",
              "train.ns registry histogram over the epochs (TrainDetector records no span)");
  report->Set("dp.train_calls", static_cast<double>(d.train_calls), "count",
              "train.calls, " + epochs);
  ReportMl(table, st.ml, report);
  report->Set("dp.classify_ms", 0.0, "ms",
              "no span of its own in the program: counted in dp.adjudicate_ms here");
  report->Set("dp.classified", 0.0, "count", "not recorded by the program");
  report->Set("dp.detections", static_cast<double>(rounds.tag_sum), "count",
              "clean.round detections tags, " + std::to_string(rounds.count) + " rounds");
  const LayerRow* round_row = table.Find("clean.round");
  const double round_self_ms = round_row != nullptr ? round_row->self_ms : 0.0;
  report->Set("dp.adjudicate_ms", std::max(0.0, round_self_ms - d.train_ns / 1e6), "ms",
              "clean.round self time minus train.ns: MutexIndex, classification and Eq. 21 "
              "adjudication, " + std::to_string(rounds.count) + " rounds");
  report->Set("dp.adjudications", 0.0, "count", "not recorded by the program");
  report->Set("dp.rolled_back", static_cast<double>(st.rolled_back), "count",
              "StreamEpochStats::records_rolled_back, " + epochs);
  report->Set("dp.rounds", static_cast<double>(rounds.count), "count", "clean.round spans");
  report->Set("kb.replay_ms", inside("stream.validate").ms, "ms",
              "stream.validate spans (FromRecords replay), " + epochs);
  report->Set("kb.validate_ms", table.TotalMs("kb.validate"), "ms",
              "ValidateConcepts over each epoch's dirty scope, timed from outside");
  report->Set("serve.compile_ms", inside("snapshot.compile").ms, "ms",
              "snapshot.compile spans in the epochs' publishes");
  report->Set("serve.snapshot_bytes", static_cast<double>(PublishedBytes(dir, "snap-")), "bytes",
              "first (full) publish");
  report->Set("serve.delta_bytes", static_cast<double>(PublishedBytes(dir, "delta-")), "bytes",
              "all delta publishes");
  report->Set("serve.install_ms", table.TotalMs("serve.install"), "ms",
              "LoadInitial/Poll, " + epochs);
  report->Set("stream.epoch_ms", inside("stream.epoch").ms, "ms", "RunEpoch, " + epochs);
  size_t dirty = 0;
  for (const sd::TraceSpan& s : spans) {
    if (s.name != "stream.epoch") continue;
    for (const auto& [key, value] : s.tags) {
      if (key == "dirty") dirty += std::stoull(value);
    }
  }
  report->Set("stream.dirty_concepts", static_cast<double>(dirty), "count", epochs);
  ReportPool(d, st.epochs_ms, report);
  double plain_ms = 0.0;
  double traced_ms = 0.0;
  for (double ms : plain.epoch_ms) plain_ms += ms;
  for (double ms : traced.epoch_ms) traced_ms += ms;
  report->Set("trace.overhead_pct", plain_ms > 0 ? 100.0 * (traced_ms - plain_ms) / plain_ms : 0.0,
              "%",
              "traced epochs+installs (" + FormatMs(traced_ms) + ") against untraced (" +
                  FormatMs(plain_ms) + ")");
}

}  // namespace

void BatchClean(const RunContext& ctx, Report* report) {
  if (ctx.trace) {
    BatchCleanTraced(ctx, report);
  } else {
    BatchCleanUntraced(ctx, report);
  }
}

void StreamEpochs(const RunContext& ctx, Report* report) {
  if (ctx.trace) {
    StreamEpochsTraced(ctx, report);
  } else {
    StreamEpochsUntraced(ctx, report);
  }
}

}  // namespace perfbench

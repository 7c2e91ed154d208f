// serve-read and serve-swap: the read path, over a snapshot built and
// installed at set-up (serve-read) or over a chain of generations published
// while the requests run (serve-swap). Cleaning is left out of both: it
// changes which pairs are live, not the snapshot format or the read path.
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>

#include "extract/extractor.h"
#include "net/router.h"
#include "serve/snapshot_delta.h"
#include "util/crc32.h"
#include "workloads.h"

namespace perfbench {

namespace sd = semdrift;

uint64_t RequestSeed(uint64_t seed) { return seed * 0x9e3779b97f4a7c15ULL + 0x5eed; }

void ReadPhaseOn(const RunContext& ctx, const sd::SnapshotReader& reader,
                 sd::ShardRouter* router, Report* report) {
  KeySpace keys = KeySpaceFromSnapshot(reader);
  RequestGenerator generator(&keys, RequestMix{}, RequestSeed(ctx.seed));
  ReferenceAnswers reference;
  reference.AddGeneration(1, &reader);
  std::vector<GenerationWindow> windows = {GenerationWindow{1, 0.0, 1e300}};
  RunReadMetrics(ReadCycles(ctx.seconds), ctx.params.Int("ladder") != 0, router, ctx.work_dir,
                 &generator, &reference, &windows, report);
}

double TraceReadPhaseOn(const RunContext& ctx, const sd::SnapshotReader& reader,
                        sd::SnapshotManager* manager, Report* report) {
  KeySpace keys = KeySpaceFromSnapshot(reader);
  RequestGenerator generator(&keys, RequestMix{}, RequestSeed(ctx.seed) + 1);
  ReferenceAnswers reference;
  uint64_t gen = manager != nullptr ? manager->generation() : 1;
  reference.AddGeneration(gen, &reader);
  std::vector<GenerationWindow> windows = {GenerationWindow{gen, 0.0, 1e300}};
  return TraceReadPath(&reader, manager, ctx.work_dir, &generator, &reference, &windows, report);
}

namespace {

/// Cache hit share from a `stats` response (sums of per-verb hits/count).
double HitRate(const std::string& stats) {
  double hits = 0.0;
  double count = 0.0;
  for (size_t pos = stats.find("count:"); pos != std::string::npos;
       pos = stats.find("count:", pos + 1)) {
    count += std::atof(stats.c_str() + pos + 6);
    size_t h = stats.find("hits:", pos);
    if (h != std::string::npos) hits += std::atof(stats.c_str() + h + 5);
  }
  return count > 0 ? hits / count : 0.0;
}

std::string RouterStats(sd::ShardRouter* router) {
  std::promise<std::string> answer;
  std::future<std::string> done = answer.get_future();
  router->Submit("stats", sd::RequestPriority::kHigh,
                 [&answer](std::string response) { answer.set_value(std::move(response)); });
  return done.get();
}

/// The serve-read snapshot: the seed's extracted (uncleaned) KB, compiled,
/// published and installed by a SnapshotManager.
struct ServedSnapshot {
  std::unique_ptr<sd::Experiment> exp;
  sd::KnowledgeBase kb;
  std::string image;
  std::unique_ptr<sd::SnapshotManager> manager;
  double build_ms = 0.0;    // Corpus to compiled image.
  double epoch_ms = 0.0;    // Corpus to installed.
  double install_ms = 0.0;  // Published to installed.
  size_t extractions = 0;
};

ServedSnapshot BuildServed(const RunContext& ctx, Report* report) {
  ServedSnapshot s;
  s.exp = BuildInputs(ctx.params.Int("sentences"), ctx.seed);
  const sd::SentenceStore& sentences = s.exp->corpus().sentences;
  const double start = NowSeconds();
  {
    BenchSpan span("extract");
    sd::IterativeExtractor extractor(&sentences, s.exp->config().extractor);
    for (const sd::IterationStats& it : extractor.Run(&s.kb)) s.extractions += it.extractions;
  }
  {
    BenchSpan span("serve.compile");
    auto image = CompileImage(s.kb, s.exp->world(), sentences.size());
    report->Check(image.ok(), "snapshot compile: " + image.status().ToString());
    if (!image.ok()) return s;
    s.image = std::move(*image);
  }
  s.build_ms = (NowSeconds() - start) * 1e3;
  {
    BenchSpan span("serve.install");
    s.install_ms = Install(s.image, ctx.work_dir + "/pub", &s.manager, report);
  }
  s.epoch_ms = (NowSeconds() - start) * 1e3;
  return s;
}

void ServeReadUntraced(const RunContext& ctx, Report* report) {
  WriteTimes times;
  times.setup_what = "generation, extraction, compile, publish and install";
  ServedSnapshot served;
  std::string first_image;
  for (int64_t r = 0; r < ctx.params.Int("setup_repeats"); ++r) {
    served = ServedSnapshot{};
    SamplePace(&times.pace_ms);
    const double start = NowSeconds();
    served = BuildServed(ctx, report);
    times.setup_s.push_back(NowSeconds() - start);
    times.sentences.push_back(served.exp->corpus().sentences.size());
    times.build_ms.push_back(served.build_ms);
    times.epoch_ms.push_back(served.epoch_ms);
    times.swap_ms.push_back(served.install_ms);
    for (int k = 0; k < kInstallRepeats; ++k) {
      std::unique_ptr<sd::SnapshotManager> again;
      times.swap_ms.push_back(Install(served.image, ctx.work_dir + "/again", &again, report));
    }
    if (r == 0) first_image = served.image;
    report->Check(served.image == first_image, "repeated set-ups compile the same snapshot");
  }
  SamplePace(&times.pace_ms);
  if (served.manager == nullptr || served.manager->Current() == nullptr) return;
  ReportWriteTimes(times, report);
  QualityCount quality;
  quality.Add(*served.exp, served.kb);
  ReportQuality(quality, report);
  std::shared_ptr<const sd::ServingGeneration> current = served.manager->Current();
  sd::ShardRouter router(&current->reader, sd::RouterOptions{});
  ReadPhaseOn(ctx, current->reader, &router, report);
}

void ServeReadTraced(const RunContext& ctx, Report* report) {
  StartTrace();
  ServedSnapshot served;
  double overhead = 0.0;
  {
    BenchSpan root("serve.traced");
    {
      BenchSpan s("setup");
      served = BuildServed(ctx, report);
    }
    if (served.manager != nullptr && served.manager->Current() != nullptr) {
      BenchSpan s("serve.read_path");
      overhead = TraceReadPhaseOn(ctx, served.manager->Current()->reader, nullptr, report);
    }
  }
  const LayerTable table = FinishTrace(ctx, "serve.traced", report);
  const size_t n = served.exp->corpus().sentences.size();
  report->Set("extract.ms", table.TotalMs("extract"), "ms",
              std::to_string(n) + " sentences (set-up)");
  report->Set("extract.extractions", static_cast<double>(served.extractions), "count",
              "set-up");
  report->Set("serve.compile_ms", table.TotalMs("serve.compile"), "ms",
              "validate+compile+frame (set-up)");
  report->Set("serve.snapshot_bytes", static_cast<double>(served.image.size()), "bytes", "");
  report->Set("serve.install_ms", served.install_ms, "ms", "publish to LoadInitial (set-up)");
  report->Set("trace.overhead_pct", overhead, "%", "traced vs untraced socket p50 at mid");
}

/// serve-swap's generations: growing corpus prefixes, each extracted
/// incrementally and compiled; a full image first, then CRC-bound deltas.
struct Chain {
  std::unique_ptr<sd::Experiment> exp;
  sd::KnowledgeBase kb;
  std::vector<std::string> images;          // Index g-1.
  std::vector<sd::SnapshotDelta> deltas;    // Index g-1; [0] unused.
  std::vector<std::unique_ptr<sd::SnapshotReader>> readers;
  double build_ms = 0.0;
};

Chain BuildChain(const RunContext& ctx, Report* report) {
  Chain chain;
  chain.exp = BuildInputs(ctx.params.Int("sentences"), ctx.seed);
  const sd::World& world = chain.exp->world();
  const std::vector<sd::Sentence>& all = chain.exp->corpus().sentences.sentences();
  // One generation installed before the reads, then one per mid rung.
  const int64_t gens = ReadCycles(ctx.seconds) + 1;
  const double start = NowSeconds();
  sd::SentenceStore store;
  sd::IterativeExtractor extractor(&store, chain.exp->config().extractor);
  sd::SnapshotParts previous;
  uint32_t previous_crc = 0;
  for (int64_t g = 1; g <= gens; ++g) {
    size_t begin = all.size() * static_cast<size_t>(g - 1) / static_cast<size_t>(gens);
    size_t end = all.size() * static_cast<size_t>(g) / static_cast<size_t>(gens);
    for (size_t i = begin; i < end; ++i) store.Add(all[i]);
    extractor.SyncCorpusGrowth();
    extractor.Run(&chain.kb);
    sd::SnapshotParts parts;
    auto image = CompileImage(chain.kb, world, store.size(), &parts);
    report->Check(image.ok(), "generation " + std::to_string(g) + " compile");
    if (!image.ok()) return chain;
    sd::SnapshotDelta delta;
    if (g > 1) {
      auto diff = sd::DiffSnapshotParts(previous, parts);
      report->Check(diff.ok(), "generation " + std::to_string(g) + " diff");
      if (!diff.ok()) return chain;
      delta = std::move(*diff);
      delta.base_generation = static_cast<uint64_t>(g - 1);
      delta.base_crc32 = previous_crc;
      delta.generation = static_cast<uint64_t>(g);
    }
    previous_crc = sd::Crc32Of(*image);
    previous = std::move(parts);
    chain.images.push_back(std::move(*image));
    chain.deltas.push_back(std::move(delta));
  }
  chain.build_ms = (NowSeconds() - start) * 1e3;
  for (size_t g = 0; g < chain.images.size(); ++g) {
    auto reader = sd::SnapshotReader::OpenFromBuffer(chain.images[g], "generation");
    report->Check(reader.ok(), "reference open of generation " + std::to_string(g + 1));
    if (reader.ok()) chain.readers.push_back(std::make_unique<sd::SnapshotReader>(std::move(*reader)));
  }
  return chain;
}

/// Publishes one generation per mid rung, half-way through it, and polls.
struct Publisher {
  const Chain* chain = nullptr;
  sd::SnapshotManager* manager = nullptr;
  std::string dir;
  double delay_us = 0.0;
  std::vector<GenerationWindow>* windows = nullptr;
  uint64_t trace_parent = 0;
  std::vector<double> epoch_ms;  // Delta handed over to installed.
  std::vector<double> swap_ms;   // Delta file written to installed.
  std::vector<std::string> errors;
  size_t delta_bytes = 0;

  /// Generation cycle + 2 (generation 1 is installed before the rungs).
  void Run(int cycle) {
    const size_t g = static_cast<size_t>(cycle) + 2;
    if (g > chain->images.size()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(static_cast<int64_t>(delay_us)));
    const std::string path = dir + "/delta-" + std::to_string(g) + ".bin";
    double handoff = MonoUs();
    sd::Status wrote = sd::WriteSnapshotDeltaFile(chain->deltas[g - 1], path);
    double written = MonoUs();
    sd::SnapshotPollResult poll = manager->Poll();
    double installed = MonoUs();
    RecordRequestSpan("serve.swap", installed - written, g, trace_parent);
    windows->back().to_us = installed;
    windows->push_back(GenerationWindow{g, written, 1e300});
    epoch_ms.push_back((installed - handoff) / 1e3);
    swap_ms.push_back((installed - written) / 1e3);
    std::error_code ec;
    delta_bytes += std::filesystem::file_size(path, ec);
    if (!wrote.ok() || poll.swaps != 1 || poll.failed != 0 || manager->generation() != g) {
      errors.push_back("generation " + std::to_string(g) + " did not install under load");
    }
  }
};

void ServeSwapRun(const RunContext& ctx, Report* report) {
  if (ctx.trace) StartTrace();
  std::unique_ptr<BenchSpan> root;
  if (ctx.trace) root = std::make_unique<BenchSpan>("swap.traced");
  WriteTimes times;
  Chain chain;
  const int64_t repeats = ctx.trace ? 1 : ctx.params.Int("setup_repeats");
  for (int64_t r = 0; r < repeats; ++r) {
    chain = Chain{};
    if (!ctx.trace) SamplePace(&times.pace_ms);
    const double start = NowSeconds();
    {
      BenchSpan s("setup");
      chain = BuildChain(ctx, report);
    }
    times.setup_s.push_back(NowSeconds() - start);
    times.sentences.push_back(chain.exp->corpus().sentences.size());
    times.build_ms.push_back(chain.build_ms);
  }
  if (!ctx.trace) SamplePace(&times.pace_ms);
  if (chain.readers.size() != chain.images.size() || chain.images.empty()) return;
  const size_t gens = chain.images.size();
  const std::string dir = ctx.work_dir + "/swap";
  std::string error;
  report->Check(ResetDir(dir, &error), error);
  sd::Status published = sd::PublishSnapshotImage(chain.images[0], dir + "/snap-1.bin");
  sd::SnapshotManagerOptions manager_options;
  manager_options.dir = dir;
  sd::SnapshotManager manager(manager_options);
  double install_ms = 0.0;
  {
    BenchSpan s("serve.install");
    sd::Status loaded = manager.LoadInitial();
    install_ms = s.ElapsedUs() / 1e3;
    report->Check(published.ok() && loaded.ok() && manager.generation() == 1,
                  "generation 1 installs: " + loaded.ToString());
    if (!loaded.ok()) return;
  }
  times.swap_ms.push_back(install_ms);

  KeySpace keys = KeySpaceFromSnapshot(*chain.readers.back());
  RequestGenerator generator(&keys, RequestMix{}, RequestSeed(ctx.seed));
  ReferenceAnswers reference;
  for (size_t g = 0; g < gens; ++g) reference.AddGeneration(g + 1, chain.readers[g].get());
  std::vector<GenerationWindow> windows = {GenerationWindow{1, 0.0, 1e300}};
  Publisher publisher;
  publisher.chain = &chain;
  publisher.manager = &manager;
  publisher.dir = dir;
  publisher.windows = &windows;
  const double mid = kReadRates[1];
  const size_t mid_n = RungSize(mid, kRungSeconds);
  publisher.delay_us = static_cast<double>(mid_n) / mid * 1e6 / 2;
  auto publish = [&publisher](int cycle) { publisher.Run(cycle); };

  sd::ShardRouter router(&manager, sd::RouterOptions{});
  if (!ctx.trace) {
    RunReadMetrics(ReadCycles(ctx.seconds), ctx.params.Int("ladder") != 0, &router, ctx.work_dir,
                   &generator, &reference, &windows, report, publish);
    for (const std::string& e : publisher.errors) report->Check(false, e);
    report->Check(publisher.swap_ms.size() == gens - 1, "every generation published");
    report->Check(manager.generation() == gens, "last generation serving");
    times.epoch_ms = publisher.epoch_ms;
    times.swap_ms.insert(times.swap_ms.end(), publisher.swap_ms.begin(), publisher.swap_ms.end());
    times.setup_what = "generation and the " + std::to_string(gens) + "-generation chain build";
    ReportWriteTimes(times, report);
    QualityCount quality;
    quality.Add(*chain.exp, chain.kb);
    ReportQuality(quality, report);
    return;
  }
  {
    BenchSpan s("serve.swap_phase");
    publisher.trace_parent = s.key();
    SocketServer server(&router, ctx.work_dir + "/s.sock");
    report->Check(server.status().ok(), "socket server start");
    ReadRunner runner(ctx.work_dir + "/s.sock", &generator, &reference, &windows);
    for (int cycle = 0; static_cast<size_t>(cycle) + 1 < gens; ++cycle) {
      RungResult rung = runner.Rung(mid, mid_n, [&publish, cycle] { publish(cycle); });
      report->failures().Merge(rung.failures);
    }
  }
  const double swap_hit_rate = HitRate(RouterStats(&router));
  double overhead = 0.0;
  {
    BenchSpan s("serve.read_path");
    overhead = TraceReadPhaseOn(ctx, *chain.readers.back(), &manager, report);
  }
  root.reset();
  const LayerTable table = FinishTrace(ctx, "swap.traced", report);
  // The hit rate under swaps (each generation starts with an empty cache)
  // is this workload's, not the read path pass's.
  report->Set("serve.cache_hit_rate", swap_hit_rate, "ratio",
              "router stats over the mid rungs under swaps");
  report->Set("serve.swap_ms", Median(publisher.swap_ms), "ms",
              "Poll under the mid load, median of " + std::to_string(publisher.swap_ms.size()) +
                  " swaps");
  report->Set("serve.delta_bytes", static_cast<double>(publisher.delta_bytes), "bytes",
              std::to_string(gens - 1) + " deltas");
  report->Set("serve.snapshot_bytes", static_cast<double>(chain.images[0].size()), "bytes",
              "generation 1 image");
  report->Set("serve.install_ms", install_ms, "ms", "LoadInitial of generation 1");
  report->Set("extract.ms", table.TotalMs("extract.iteration"), "ms",
              "extract.iteration spans of the chain build (set-up)");
  report->Set("serve.compile_ms", table.TotalMs("snapshot.compile"), "ms",
              "snapshot.compile spans of the chain build (set-up)");
  report->Set("trace.overhead_pct", overhead, "%", "traced vs untraced socket p50 at mid");
  for (const std::string& e : publisher.errors) report->Check(false, e);
  report->Check(publisher.swap_ms.size() == gens - 1, "every generation published");
}

}  // namespace

void ServeRead(const RunContext& ctx, Report* report) {
  if (ctx.trace) {
    ServeReadTraced(ctx, report);
  } else {
    ServeReadUntraced(ctx, report);
  }
}

void ServeSwap(const RunContext& ctx, Report* report) { ServeSwapRun(ctx, report); }

}  // namespace perfbench

// Closed-loop load generator for the serving stack (BENCH_serve.json).
//
// Builds the bench-scale experiment, writes a snapshot, then drives a
// Batcher-fronted QueryEngine with C closed-loop clients (each client
// submits one request and waits for the answer before sending the next,
// so concurrency == clients). The workload is a deterministic mix over
// every populated concept: instances-of (top-k), concepts-of, is-a,
// drift-score and mutex.
//
// Three measurements land in the JSON report:
//
//   cold — first pass over the workload, empty result cache;
//   hot  — second pass over the identical workload, cache fully warm;
//   cached_point — a single hot point query (is-a) answered directly by
//          QueryEngine::Answer in a tight loop, i.e. the floor latency a
//          cached lookup pays without batching overhead.
//
// Per query type: request count, p50/p99 latency (µs) cold and hot, and
// the cache hit rate of the hot pass. The bench batcher runs with
// max_wait_ms 0: closed-loop clients refill the queue themselves, so a
// coalescing linger would only add idle time to every sample.
//
// A fourth measurement exercises hot swapping: clients run the workload
// closed-loop against a SnapshotManager-fronted batcher while the main
// thread publishes ≥ --swaps generations (alternating full images and
// deltas) into a watch directory, polling after each publish. The gate is
// zero failed (non-OK, non-shed) responses across every swap; with
// --publish-faults every fifth publish is corrupted first and must be
// quarantined and rolled back without the serving generation regressing.
// --max-p99-ms (when > 0) additionally bounds the p99 request latency of
// the swap phase.
//
// A fifth measurement drives the network tier end to end and multi-process:
// for each shard count in {1, 2, 4} an in-process NetServer listens on a
// unix socket while --clients copies of this binary (re-spawned in a hidden
// --client mode) run the workload closed-loop over real sockets for
// --net-seconds. Children report raw latency samples, so the merged
// p50/p99 are exact. A cold-start probe times SnapshotReader::Open in read
// mode (eager whole-file CRC) against mmap mode (map + header parse, CRC
// deferred) and mmap-to-first-answer; the gate is mmap open < read open.
//
//   bench_serve [--scale 0.25] [--threads 4] [--clients 8] [--swaps 120]
//               [--publish-faults] [--max-p99-ms 0] [--net-seconds 2]
//               [--out BENCH_serve.json]

#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "eval/experiment.h"
#include "net/net_client.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_delta.h"
#include "serve/snapshot_manager.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

extern char** environ;

using namespace semdrift;

namespace {

constexpr int kNumTypes = 5;
constexpr const char* kTypeNames[kNumTypes] = {"instances-of", "concepts-of",
                                               "is-a", "drift-score", "mutex"};

struct WorkItem {
  int type;  // Index into kTypeNames.
  std::string line;
};

/// One latency sample: request type + wall nanoseconds from Submit to get().
struct Sample {
  int type;
  uint64_t ns;
};

struct PassResult {
  double wall_ms = 0.0;
  double qps = 0.0;
  uint64_t failures = 0;  // Responses that were not OK.
  std::vector<uint64_t> latencies_ns[kNumTypes];
};

/// p-th percentile of `ns` in microseconds (ns is sorted in place).
double PercentileUs(std::vector<uint64_t>* ns, double p) {
  if (ns->empty()) return 0.0;
  std::sort(ns->begin(), ns->end());
  const size_t idx = static_cast<size_t>(p / 100.0 * (ns->size() - 1) + 0.5);
  return static_cast<double>((*ns)[idx]) / 1e3;
}

/// Deterministic query mix: every populated concept contributes one query
/// of each type, with arguments read off the snapshot itself.
std::vector<WorkItem> BuildWorkload(const SnapshotReader& snap) {
  std::vector<WorkItem> workload;
  const std::string anchor(snap.ConceptName(0));
  for (uint32_t c = 0; c < snap.num_concepts(); ++c) {
    if (snap.ConceptEnd(c) == snap.ConceptBegin(c)) continue;
    const std::string concept_name(snap.ConceptName(c));
    const std::string member(
        snap.InstanceName(snap.PairInstance(snap.ConceptBegin(c))));
    workload.push_back({0, "instances-of\t" + concept_name + "\t8"});
    workload.push_back({1, "concepts-of\t" + member});
    workload.push_back({2, "is-a\t" + member + "\t" + concept_name});
    workload.push_back({3, "drift-score\t" + member + "\t" + concept_name});
    workload.push_back({4, "mutex\t" + concept_name + "\t" + anchor});
  }
  return workload;
}

/// One closed-loop pass: `clients` threads stride through the workload,
/// each waiting for its answer before submitting the next request.
PassResult RunPass(Batcher* batcher, const std::vector<WorkItem>& workload,
                   size_t clients) {
  std::vector<std::vector<Sample>> samples(clients);
  std::vector<uint64_t> failures(clients, 0);
  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      samples[c].reserve(workload.size() / clients + 1);
      for (size_t i = c; i < workload.size(); i += clients) {
        const auto start = std::chrono::steady_clock::now();
        const std::string response = batcher->Submit(workload[i].line).get();
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        samples[c].push_back({workload[i].type, static_cast<uint64_t>(ns)});
        if (response.rfind("OK", 0) != 0) failures[c]++;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  PassResult result;
  result.wall_ms = wall.ElapsedMillis();
  result.qps = result.wall_ms > 0.0
                   ? static_cast<double>(workload.size()) / (result.wall_ms / 1e3)
                   : 0.0;
  for (size_t c = 0; c < clients; ++c) {
    result.failures += failures[c];
    for (const Sample& s : samples[c]) result.latencies_ns[s.type].push_back(s.ns);
  }
  return result;
}

/// Result of the swap-under-load phase.
struct SwapResult {
  int swaps_done = 0;
  int failed_publishes = 0;
  int rolled_back = 0;
  uint64_t requests = 0;
  uint64_t failures = 0;  // Non-OK responses (shed is disabled here).
  uint64_t shed = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::string error;  // Non-empty: the phase itself broke.
};

/// Publishes `swaps` generations under closed-loop query load. Odd
/// generations republish image A as a full snapshot; even generations
/// publish the A→B delta (so both publish paths and the base binding are
/// exercised on every other swap). With `publish_faults`, every fifth
/// publish first lands as a corrupted full image that must be quarantined
/// without the serving generation moving.
SwapResult RunSwapPhase(const SnapshotReader& snap,
                        const std::vector<WorkItem>& workload, size_t clients,
                        int swaps, bool publish_faults,
                        const QueryEngineOptions& engine_options) {
  SwapResult result;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bench_serve_publish").string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    result.error = "cannot create " + dir + ": " + ec.message();
    return result;
  }

  auto recovered = PartsFromReader(snap);
  if (!recovered.ok()) {
    result.error = "parts recovery failed: " + recovered.status().ToString();
    return result;
  }
  const SnapshotParts parts_a = std::move(*recovered);
  SnapshotParts parts_b = parts_a;
  if (!parts_b.score.empty()) parts_b.score[0] += 1.0;
  auto image_a = BuildSnapshotImage(parts_a);
  auto image_b = BuildSnapshotImage(parts_b);
  if (!image_a.ok() || !image_b.ok()) {
    result.error = "image build failed";
    return result;
  }
  const uint32_t crc_a = Crc32Of(*image_a);
  auto delta = DiffSnapshotParts(parts_a, parts_b);
  if (!delta.ok()) {
    result.error = "diff failed: " + delta.status().ToString();
    return result;
  }

  Status published = PublishSnapshotImage(*image_a, dir + "/snap-1.bin");
  if (!published.ok()) {
    result.error = published.ToString();
    return result;
  }
  SnapshotManagerOptions manager_options;
  manager_options.dir = dir;
  manager_options.engine = engine_options;
  SnapshotManager manager(manager_options);
  Status initial = manager.LoadInitial();
  if (!initial.ok()) {
    result.error = initial.ToString();
    return result;
  }

  BatcherOptions batcher_options;
  batcher_options.max_wait_ms = 0;
  Batcher batcher(EngineSource([&manager] { return manager.Pin(); }),
                  batcher_options);

  std::atomic<bool> stop{false};
  std::vector<std::vector<uint64_t>> latencies(clients);
  std::vector<uint64_t> failures(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  Timer wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      size_t i = c;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto start = std::chrono::steady_clock::now();
        const std::string response =
            batcher.Submit(workload[i % workload.size()].line).get();
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        latencies[c].push_back(static_cast<uint64_t>(ns));
        if (response.rfind("OK", 0) != 0) failures[c]++;
        i += clients;
      }
    });
  }

  for (uint64_t gen = 2; gen <= static_cast<uint64_t>(swaps) + 1; ++gen) {
    const bool even = gen % 2 == 0;
    const std::string full_path = dir + "/snap-" + std::to_string(gen) + ".bin";
    const std::string delta_path = dir + "/delta-" + std::to_string(gen) + ".bin";
    if (publish_faults && gen % 5 == 0) {
      // A torn full-image publish: half the bytes under the real name. The
      // manager must quarantine it and keep serving gen-1.
      const uint64_t before = manager.generation();
      std::string torn = image_a->substr(0, image_a->size() / 2);
      Status wrote = WriteStringToFile(torn, full_path);
      if (!wrote.ok()) {
        result.error = wrote.ToString();
        break;
      }
      SnapshotPollResult poll = manager.Poll();
      result.failed_publishes += poll.failed;
      result.rolled_back += poll.rolled_back;
      if (poll.failed == 0 || manager.generation() != before) {
        result.error = "corrupt publish at generation " + std::to_string(gen) +
                       " was not contained";
        break;
      }
    }
    Status wrote;
    if (even) {
      SnapshotDelta d = *delta;
      d.base_generation = gen - 1;
      d.base_crc32 = crc_a;  // Odd generations always serve image A.
      d.generation = gen;
      wrote = WriteSnapshotDeltaFile(d, delta_path);
    } else {
      wrote = PublishSnapshotImage(*image_a, full_path);
    }
    if (!wrote.ok()) {
      result.error = wrote.ToString();
      break;
    }
    SnapshotPollResult poll = manager.Poll();
    result.failed_publishes += poll.failed;
    result.rolled_back += poll.rolled_back;
    if (poll.generation != gen) {
      result.error = "generation " + std::to_string(gen) + " did not install";
      break;
    }
    result.swaps_done += poll.swaps;
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  result.wall_ms = wall.ElapsedMillis();

  std::vector<uint64_t> all;
  for (size_t c = 0; c < clients; ++c) {
    result.failures += failures[c];
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  result.requests = all.size();
  result.qps = result.wall_ms > 0.0
                   ? static_cast<double>(all.size()) / (result.wall_ms / 1e3)
                   : 0.0;
  result.p50_us = PercentileUs(&all, 50.0);
  result.p99_us = PercentileUs(&all, 99.0);
  BatcherStats stats = batcher.Snapshot();
  result.shed = stats.shed;
  std::filesystem::remove_all(dir, ec);
  return result;
}

/// Hidden child mode (`bench_serve --client ...`): a closed-loop socket
/// client for the net phase. Reads the workload file, round-trips lines
/// against --connect for --seconds, then writes "failures N" followed by
/// one latency sample (ns) per line so the parent can merge exact
/// percentiles.
int RunClientMode(int argc, char** argv) {
  std::string endpoint, workload_path, out_path;
  double seconds = 2.0;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "client: missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--connect") {
      endpoint = value();
    } else if (arg == "--workload") {
      workload_path = value();
    } else if (arg == "--seconds") {
      if (!ParseDouble(value(), &seconds)) return 2;
    } else if (arg == "--out") {
      out_path = value();
    } else {
      std::fprintf(stderr, "client: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  std::vector<std::string> lines;
  {
    std::ifstream in(workload_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  if (lines.empty()) {
    std::fprintf(stderr, "client: empty workload %s\n", workload_path.c_str());
    return 1;
  }
  auto client = LineClient::Connect(endpoint);
  if (!client.ok()) {
    std::fprintf(stderr, "client: %s\n", client.status().ToString().c_str());
    return 1;
  }
  std::vector<uint64_t> samples;
  uint64_t failures = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(seconds));
  size_t i = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto start = std::chrono::steady_clock::now();
    auto response = client->RoundTrip(lines[i % lines.size()]);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    if (!response.ok()) {
      std::fprintf(stderr, "client: %s\n", response.status().ToString().c_str());
      failures++;
      break;
    }
    samples.push_back(static_cast<uint64_t>(ns));
    if (response->rfind("OK", 0) != 0) failures++;
    ++i;
  }
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "client: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "failures %llu\n", static_cast<unsigned long long>(failures));
  for (uint64_t ns : samples) {
    std::fprintf(f, "%llu\n", static_cast<unsigned long long>(ns));
  }
  std::fclose(f);
  return 0;
}

/// Result of one net-phase run (one shard count).
struct NetResult {
  int shards = 0;
  uint64_t requests = 0;
  uint64_t failures = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::string error;  // Non-empty: the phase itself broke.
};

/// Spawns `clients` copies of this binary in --client mode against an
/// in-process NetServer on a unix socket and merges their raw samples.
NetResult RunNetPhase(const char* self, const SnapshotReader& snap,
                      const std::string& workload_path, size_t clients,
                      int shards, double seconds,
                      const QueryEngineOptions& engine_options) {
  NetResult result;
  result.shards = shards;

  RouterOptions router_options;
  router_options.num_shards = static_cast<uint32_t>(shards);
  router_options.engine = engine_options;
  router_options.batch.max_wait_ms = 0;
  ShardRouter router(&snap, router_options);

  const std::string sock =
      (std::filesystem::temp_directory_path() / "bench_serve_net.sock").string();
  NetServerOptions server_options;
  server_options.listen = "unix:" + sock;
  NetServer server(&router, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    result.error = started.ToString();
    return result;
  }

  char seconds_arg[32];
  std::snprintf(seconds_arg, sizeof(seconds_arg), "%g", seconds);
  std::vector<pid_t> pids;
  std::vector<std::string> out_paths;
  for (size_t c = 0; c < clients; ++c) {
    out_paths.push_back(
        (std::filesystem::temp_directory_path() /
         ("bench_serve_client_" + std::to_string(c) + ".txt"))
            .string());
    std::vector<std::string> args = {
        self,         "--client", "--connect", server.endpoint(),
        "--workload", workload_path, "--seconds", seconds_arg,
        "--out",      out_paths.back()};
    std::vector<char*> argv_c;
    argv_c.reserve(args.size() + 1);
    for (std::string& a : args) argv_c.push_back(a.data());
    argv_c.push_back(nullptr);
    pid_t pid = 0;
    const int rc =
        ::posix_spawnp(&pid, self, nullptr, nullptr, argv_c.data(), environ);
    if (rc != 0) {
      result.error = "posix_spawn: " + std::string(std::strerror(rc));
      break;
    }
    pids.push_back(pid);
  }
  for (pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      result.error = "a net client exited abnormally";
    }
  }
  server.Stop();
  if (!result.error.empty()) return result;

  std::vector<uint64_t> all;
  for (const std::string& path : out_paths) {
    std::ifstream in(path);
    std::string word;
    uint64_t client_failures = 0;
    if (!(in >> word >> client_failures) || word != "failures") {
      result.error = "malformed client report " + path;
      return result;
    }
    result.failures += client_failures;
    uint64_t ns = 0;
    while (in >> ns) all.push_back(ns);
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  result.requests = all.size();
  result.qps =
      seconds > 0.0 ? static_cast<double>(all.size()) / seconds : 0.0;
  result.p50_us = PercentileUs(&all, 50.0);
  result.p99_us = PercentileUs(&all, 99.0);
  return result;
}

/// Cold-start probe: best-of-5 open latency for the eager read path
/// (whole-file CRC before serving) vs mmap (map + header/section-table
/// parse, CRC deferred), plus mmap open through the first answered query.
struct ColdStartResult {
  double read_open_ms = 0.0;
  double mmap_open_ms = 0.0;
  double mmap_first_query_ms = 0.0;
  std::string error;
};

ColdStartResult MeasureColdStart(const std::string& path,
                                 const std::string& point_query) {
  ColdStartResult result;
  result.read_open_ms = result.mmap_open_ms = result.mmap_first_query_ms = 1e18;
  constexpr int kIters = 5;
  for (int i = 0; i < kIters; ++i) {
    {
      Timer t;
      auto reader = SnapshotReader::Open(path);
      const double ms = t.ElapsedMillis();
      if (!reader.ok()) {
        result.error = reader.status().ToString();
        return result;
      }
      result.read_open_ms = std::min(result.read_open_ms, ms);
    }
    {
      SnapshotOpenOptions options;
      options.source = SnapshotSource::kMmap;
      Timer t;
      auto reader = SnapshotReader::Open(path, options);
      const double open_ms = t.ElapsedMillis();
      if (!reader.ok()) {
        result.error = reader.status().ToString();
        return result;
      }
      QueryEngine engine(&*reader);
      const std::string response = engine.Answer(point_query);
      const double first_ms = t.ElapsedMillis();
      if (response.rfind("OK", 0) != 0) {
        result.error = "cold mmap query failed: " + response;
        return result;
      }
      result.mmap_open_ms = std::min(result.mmap_open_ms, open_ms);
      result.mmap_first_query_ms = std::min(result.mmap_first_query_ms, first_ms);
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--client") {
    return RunClientMode(argc, argv);
  }
  double scale = bench::EnvScale();
  int threads = 4;
  size_t clients = 8;
  int swaps = 120;
  bool publish_faults = false;
  double max_p99_ms = 0.0;
  double net_seconds = 2.0;
  std::string out = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scale") {
      if (!ParseDouble(value(), &scale)) std::exit(2);
    } else if (arg == "--threads") {
      threads = std::atoi(value().c_str());
    } else if (arg == "--clients") {
      clients = static_cast<size_t>(std::atoi(value().c_str()));
    } else if (arg == "--swaps") {
      swaps = std::atoi(value().c_str());
    } else if (arg == "--publish-faults") {
      publish_faults = true;
    } else if (arg == "--max-p99-ms") {
      if (!ParseDouble(value(), &max_p99_ms)) std::exit(2);
    } else if (arg == "--net-seconds") {
      if (!ParseDouble(value(), &net_seconds)) std::exit(2);
    } else if (arg == "--out") {
      out = value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (clients == 0) clients = 1;
  SetGlobalThreadCount(threads);

  std::printf("bench_serve: scale %g, threads %d, clients %zu\n", scale, threads,
              clients);
  ExperimentConfig config = PaperScaleConfig(scale);
  auto experiment = Experiment::Build(config);
  KnowledgeBase kb = experiment->Extract();

  const std::string snapshot_path =
      (std::filesystem::temp_directory_path() / "bench_serve_snapshot.bin").string();
  Status written = WriteServingSnapshot(kb, experiment->world(),
                                        experiment->corpus().sentences.size(),
                                        nullptr, snapshot_path);
  if (!written.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n", written.ToString().c_str());
    return 1;
  }
  auto opened = SnapshotReader::Open(snapshot_path);
  if (!opened.ok()) {
    std::fprintf(stderr, "snapshot open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  const SnapshotReader& snap = *opened;

  std::vector<WorkItem> workload = BuildWorkload(snap);
  std::printf("snapshot: %u concepts, %llu pairs, %llu bytes; workload %zu requests\n",
              snap.num_concepts(),
              static_cast<unsigned long long>(snap.num_pairs()),
              static_cast<unsigned long long>(snap.file_bytes()), workload.size());
  if (workload.empty()) {
    std::fprintf(stderr, "empty workload: no populated concepts\n");
    return 1;
  }

  // Cache must hold the whole workload so the hot pass is all hits.
  QueryEngineOptions engine_options;
  engine_options.cache_capacity = std::max<size_t>(4096, 2 * workload.size());
  QueryEngine engine(&snap, engine_options);
  BatcherOptions batcher_options;
  batcher_options.max_wait_ms = 0;  // Closed-loop clients refill the queue.
  Batcher batcher(&engine, batcher_options);

  PassResult cold = RunPass(&batcher, workload, clients);
  QueryTypeStats after_cold[kNumTypes];
  for (int t = 0; t < kNumTypes; ++t) {
    after_cold[t] = engine.stats().Snapshot(static_cast<QueryType>(t));
  }
  PassResult hot = RunPass(&batcher, workload, clients);
  uint64_t hot_hits = 0, hot_count = 0;
  QueryTypeStats hot_stats[kNumTypes];
  for (int t = 0; t < kNumTypes; ++t) {
    QueryTypeStats total = engine.stats().Snapshot(static_cast<QueryType>(t));
    hot_stats[t].count = total.count - after_cold[t].count;
    hot_stats[t].cache_hits = total.cache_hits - after_cold[t].cache_hits;
    hot_hits += hot_stats[t].cache_hits;
    hot_count += hot_stats[t].count;
  }
  const double hot_hit_rate =
      hot_count == 0 ? 0.0 : static_cast<double>(hot_hits) / hot_count;

  // Floor latency of a cached point query, without batching in the path.
  const std::string point_query = workload[2].line;  // First is-a.
  (void)engine.Answer(point_query);  // Ensure it is cached.
  constexpr int kPointIters = 2000;
  std::vector<uint64_t> point_ns;
  point_ns.reserve(kPointIters);
  for (int i = 0; i < kPointIters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const std::string response = engine.Answer(point_query);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    point_ns.push_back(static_cast<uint64_t>(ns));
    if (response.rfind("OK", 0) != 0) {
      std::fprintf(stderr, "cached point query failed: %s\n", response.c_str());
      return 1;
    }
  }
  const double point_p50_us = PercentileUs(&point_ns, 50.0);
  const double point_p99_us = PercentileUs(&point_ns, 99.0);

  SwapResult swap = RunSwapPhase(snap, workload, clients, swaps, publish_faults,
                                 engine_options);

  // Net phase: real sockets, child processes, per shard count.
  const std::string workload_path =
      (std::filesystem::temp_directory_path() / "bench_serve_workload.txt").string();
  {
    std::string joined;
    for (const WorkItem& item : workload) joined += item.line + "\n";
    Status wrote = WriteStringToFile(joined, workload_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "workload write failed: %s\n", wrote.ToString().c_str());
      return 1;
    }
  }
  const int kShardCounts[] = {1, 2, 4};
  std::vector<NetResult> net_results;
  for (int shards : kShardCounts) {
    net_results.push_back(RunNetPhase(argv[0], snap, workload_path, clients,
                                      shards, net_seconds, engine_options));
    const NetResult& n = net_results.back();
    if (!n.error.empty()) {
      std::fprintf(stderr, "net phase (%d shards) failed: %s\n", shards,
                   n.error.c_str());
      return 1;
    }
    std::printf("net %d shard(s): %llu requests, %9.0f qps, p50 %.1f us, "
                "p99 %.1f us, %llu failures\n",
                n.shards, static_cast<unsigned long long>(n.requests), n.qps,
                n.p50_us, n.p99_us, static_cast<unsigned long long>(n.failures));
  }
  ColdStartResult cold_start = MeasureColdStart(snapshot_path, point_query);
  if (!cold_start.error.empty()) {
    std::fprintf(stderr, "cold-start probe failed: %s\n", cold_start.error.c_str());
    return 1;
  }
  std::printf("cold start: read open %.3f ms, mmap open %.3f ms, "
              "mmap first query %.3f ms\n",
              cold_start.read_open_ms, cold_start.mmap_open_ms,
              cold_start.mmap_first_query_ms);

  BatcherStats batch_stats = batcher.Snapshot();
  std::printf("cold: %7.1f ms  %9.0f qps\n", cold.wall_ms, cold.qps);
  std::printf("hot:  %7.1f ms  %9.0f qps  hit rate %.3f\n", hot.wall_ms, hot.qps,
              hot_hit_rate);
  std::printf("cached point (%s): p50 %.1f us  p99 %.1f us\n", point_query.c_str(),
              point_p50_us, point_p99_us);
  std::printf("batches: %llu over %llu requests (max batch %llu)\n",
              static_cast<unsigned long long>(batch_stats.batches),
              static_cast<unsigned long long>(batch_stats.requests),
              static_cast<unsigned long long>(batch_stats.max_batch));
  std::printf("swap: %d swaps, %llu requests, %9.0f qps, p50 %.1f us, "
              "p99 %.1f us, %llu failures, %d failed publishes (%d rolled back)\n",
              swap.swaps_done, static_cast<unsigned long long>(swap.requests),
              swap.qps, swap.p50_us, swap.p99_us,
              static_cast<unsigned long long>(swap.failures),
              swap.failed_publishes, swap.rolled_back);

  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"scale\": %g,\n  \"threads\": %d,\n  \"clients\": %zu,\n"
               "  \"requests_per_pass\": %zu,\n  \"snapshot_bytes\": %llu,\n",
               scale, threads, clients, workload.size(),
               static_cast<unsigned long long>(snap.file_bytes()));
  std::fprintf(f, "  \"cold\": {\"wall_ms\": %.3f, \"qps\": %.1f},\n", cold.wall_ms,
               cold.qps);
  std::fprintf(f,
               "  \"hot\": {\"wall_ms\": %.3f, \"qps\": %.1f, "
               "\"cache_hit_rate\": %.4f},\n",
               hot.wall_ms, hot.qps, hot_hit_rate);
  std::fprintf(f, "  \"query_types\": [\n");
  for (int t = 0; t < kNumTypes; ++t) {
    const double hit_rate =
        hot_stats[t].count == 0
            ? 0.0
            : static_cast<double>(hot_stats[t].cache_hits) / hot_stats[t].count;
    std::fprintf(f,
                 "    {\"type\": \"%s\", \"count\": %zu, "
                 "\"cold_p50_us\": %.1f, \"cold_p99_us\": %.1f, "
                 "\"hot_p50_us\": %.1f, \"hot_p99_us\": %.1f, "
                 "\"hot_hit_rate\": %.4f}%s\n",
                 kTypeNames[t], cold.latencies_ns[t].size(),
                 PercentileUs(&cold.latencies_ns[t], 50.0),
                 PercentileUs(&cold.latencies_ns[t], 99.0),
                 PercentileUs(&hot.latencies_ns[t], 50.0),
                 PercentileUs(&hot.latencies_ns[t], 99.0), hit_rate,
                 t + 1 == kNumTypes ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"cached_point\": {\"query\": \"%s\", \"iters\": %d, "
               "\"p50_us\": %.2f, \"p99_us\": %.2f},\n",
               "is-a (hot cache, direct engine)", kPointIters, point_p50_us,
               point_p99_us);
  std::fprintf(f,
               "  \"batches\": {\"requests\": %llu, \"batches\": %llu, "
               "\"max_batch\": %llu},\n",
               static_cast<unsigned long long>(batch_stats.requests),
               static_cast<unsigned long long>(batch_stats.batches),
               static_cast<unsigned long long>(batch_stats.max_batch));
  std::fprintf(f,
               "  \"swap\": {\"swaps\": %d, \"requests\": %llu, "
               "\"qps\": %.1f, \"p50_us\": %.2f, \"p99_us\": %.2f, "
               "\"failed_responses\": %llu, \"shed\": %llu, "
               "\"failed_publishes\": %d, \"rolled_back\": %d, "
               "\"wall_ms\": %.3f},\n",
               swap.swaps_done, static_cast<unsigned long long>(swap.requests),
               swap.qps, swap.p50_us, swap.p99_us,
               static_cast<unsigned long long>(swap.failures),
               static_cast<unsigned long long>(swap.shed),
               swap.failed_publishes, swap.rolled_back, swap.wall_ms);
  std::fprintf(f, "  \"net\": [\n");
  for (size_t i = 0; i < net_results.size(); ++i) {
    const NetResult& n = net_results[i];
    std::fprintf(f,
                 "    {\"shards\": %d, \"clients\": %zu, \"seconds\": %g, "
                 "\"requests\": %llu, \"qps\": %.1f, \"p50_us\": %.2f, "
                 "\"p99_us\": %.2f, \"failures\": %llu}%s\n",
                 n.shards, clients, net_seconds,
                 static_cast<unsigned long long>(n.requests), n.qps, n.p50_us,
                 n.p99_us, static_cast<unsigned long long>(n.failures),
                 i + 1 == net_results.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"cold_start\": {\"read_open_ms\": %.4f, "
               "\"mmap_open_ms\": %.4f, \"mmap_first_query_ms\": %.4f},\n",
               cold_start.read_open_ms, cold_start.mmap_open_ms,
               cold_start.mmap_first_query_ms);
  std::fprintf(f, "  \"metrics\": %s\n", GlobalMetrics().ToJson().c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("-> %s\n", out.c_str());

  std::error_code ec;
  std::filesystem::remove(snapshot_path, ec);
  std::filesystem::remove(workload_path, ec);

  if (cold.failures + hot.failures > 0) {
    std::fprintf(stderr, "FAIL: %llu non-OK responses\n",
                 static_cast<unsigned long long>(cold.failures + hot.failures));
    return 1;
  }
  if (cold.qps <= 0.0 || hot.qps <= 0.0) {
    std::fprintf(stderr, "FAIL: zero QPS\n");
    return 1;
  }
  if (point_p50_us >= 1000.0) {
    std::fprintf(stderr, "FAIL: cached point p50 %.1f us is not sub-millisecond\n",
                 point_p50_us);
    return 1;
  }
  if (!swap.error.empty()) {
    std::fprintf(stderr, "FAIL: swap phase: %s\n", swap.error.c_str());
    return 1;
  }
  if (swap.swaps_done < swaps) {
    std::fprintf(stderr, "FAIL: only %d of %d swaps installed\n", swap.swaps_done,
                 swaps);
    return 1;
  }
  if (swap.failures > 0) {
    std::fprintf(stderr, "FAIL: %llu non-OK responses during hot swaps\n",
                 static_cast<unsigned long long>(swap.failures));
    return 1;
  }
  if (publish_faults && swap.failed_publishes == 0) {
    std::fprintf(stderr, "FAIL: publish faults were injected but none recorded\n");
    return 1;
  }
  if (max_p99_ms > 0.0 && swap.p99_us > max_p99_ms * 1000.0) {
    std::fprintf(stderr, "FAIL: swap-phase p99 %.1f us exceeds bound %.1f ms\n",
                 swap.p99_us, max_p99_ms);
    return 1;
  }
  for (const NetResult& n : net_results) {
    if (n.failures > 0) {
      std::fprintf(stderr, "FAIL: %llu non-OK responses over the socket (%d shards)\n",
                   static_cast<unsigned long long>(n.failures), n.shards);
      return 1;
    }
    if (n.qps <= 0.0) {
      std::fprintf(stderr, "FAIL: zero socket QPS (%d shards)\n", n.shards);
      return 1;
    }
  }
  if (cold_start.mmap_open_ms >= cold_start.read_open_ms) {
    std::fprintf(stderr,
                 "FAIL: mmap cold open %.3f ms is not faster than read open %.3f ms\n",
                 cold_start.mmap_open_ms, cold_start.read_open_ms);
    return 1;
  }
  return 0;
}

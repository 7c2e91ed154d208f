#include "serve/snapshot_manager.h"

#include <chrono>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "obs/metrics.h"
#include "serve/snapshot_delta.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/string_util.h"
#include "util/supervisor.h"

namespace semdrift {

namespace {

struct ManagerMetrics {
  MetricsRegistry::Gauge generation;
  MetricsRegistry::Counter swaps;
  MetricsRegistry::Counter failed;
  MetricsRegistry::Counter rolled_back;
  MetricsRegistry::Counter orphaned;
  MetricsRegistry::Histogram swap_ns;
  MetricsRegistry::Histogram read_ns;
  MetricsRegistry::Histogram parse_ns;
  MetricsRegistry::Histogram materialize_ns;
  MetricsRegistry::Histogram open_ns;
};

ManagerMetrics& GetManagerMetrics() {
  static ManagerMetrics* m = new ManagerMetrics{
      GlobalMetrics().RegisterGauge("serve.generation"),
      GlobalMetrics().RegisterCounter("serve.swap.count"),
      GlobalMetrics().RegisterCounter("serve.publish.failed"),
      GlobalMetrics().RegisterCounter("serve.publish.rolled_back"),
      GlobalMetrics().RegisterCounter("serve.publish.orphaned"),
      GlobalMetrics().RegisterHistogram("serve.swap.ns", LatencyBucketsNs()),
      GlobalMetrics().RegisterHistogram("serve.install.read_ns", LatencyBucketsNs()),
      GlobalMetrics().RegisterHistogram("serve.install.parse_ns", LatencyBucketsNs()),
      GlobalMetrics().RegisterHistogram("serve.install.materialize_ns",
                                        LatencyBucketsNs()),
      GlobalMetrics().RegisterHistogram("serve.install.open_ns", LatencyBucketsNs()),
  };
  return *m;
}

/// Parses "<prefix><gen>.bin" publish names; anything else (temp carcasses,
/// quarantined files, foreign files) is ignored by the scanner.
bool ParsePublishName(const std::string& name, const std::string& prefix,
                      uint64_t* gen) {
  if (!StartsWith(name, prefix) || !EndsWith(name, ".bin")) return false;
  std::string digits = name.substr(prefix.size(),
                                   name.size() - prefix.size() - 4);
  return !digits.empty() && ParseUint64(digits, gen) && *gen > 0;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

SnapshotManager::SnapshotManager(SnapshotManagerOptions options)
    : options_(std::move(options)) {
  stats_ = options_.shared_stats != nullptr ? options_.shared_stats : &owned_stats_;
  GetManagerMetrics();  // Register handles before the first stats/metrics query.
}

SnapshotManager::~SnapshotManager() { StopWatching(); }

Status SnapshotManager::LoadInitial() {
  Poll();
  if (Current() == nullptr) {
    return Status::NotFound("no loadable snapshot generation in " + options_.dir);
  }
  return Status::OK();
}

std::shared_ptr<const ServingGeneration> SnapshotManager::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

EnginePin SnapshotManager::Pin() const {
  std::shared_ptr<const ServingGeneration> cur = Current();
  return EnginePin{cur == nullptr ? nullptr : cur->engine.get(), cur};
}

uint64_t SnapshotManager::generation() const {
  std::shared_ptr<const ServingGeneration> cur = Current();
  return cur == nullptr ? 0 : cur->generation;
}

std::shared_ptr<ServingGeneration> SnapshotManager::LoadFull(
    const std::string& path, uint64_t gen, std::string* error) {
  Supervisor supervisor(SupervisorOptions{options_.load_deadline_ms,
                                          options_.load_retries,
                                          /*quarantine=*/true,
                                          options_.backoff_base_ms,
                                          options_.backoff_cap_ms});
  // Phase times add up over retried attempts.
  uint64_t read_ns = 0;
  uint64_t open_ns = 0;
  std::function<std::shared_ptr<ServingGeneration>(int)> body =
      [&](int /*attempt*/) {
        const uint64_t started = NowNs();
        auto content = ReadFileToString(path);
        const uint64_t read = NowNs();
        read_ns += read - started;
        if (!content.ok()) throw std::runtime_error(content.status().message());
        auto reader = SnapshotReader::OpenFromBuffer(*content, path);
        if (!reader.ok()) throw std::runtime_error(reader.status().message());
        auto out = std::make_shared<ServingGeneration>(gen, Crc32Of(*content),
                                                       path, std::move(*reader));
        open_ns += NowNs() - read;
        return out;
      };
  std::shared_ptr<ServingGeneration> loaded;
  StageOutcome outcome;
  if (!supervisor.RunGuarded<std::shared_ptr<ServingGeneration>>(
          PipelineStage::kSnapshotLoad, static_cast<uint32_t>(gen), body,
          /*validate=*/nullptr, &loaded, &outcome)) {
    *error = outcome.error;
    return nullptr;
  }
  ManagerMetrics& metrics = GetManagerMetrics();
  metrics.read_ns.Observe(static_cast<double>(read_ns));
  metrics.open_ns.Observe(static_cast<double>(open_ns));
  return loaded;
}

std::shared_ptr<ServingGeneration> SnapshotManager::LoadDelta(
    const std::string& path, const ServingGeneration& base, std::string* error) {
  Supervisor supervisor(SupervisorOptions{options_.load_deadline_ms,
                                          options_.load_retries,
                                          /*quarantine=*/true,
                                          options_.backoff_base_ms,
                                          options_.backoff_cap_ms});
  // Phase 1 (retried): parse the delta file strictly. This is the only step
  // with a transient failure mode — a publisher racing our read — so it is
  // the only step that earns retries.
  uint64_t parse_ns = 0;
  std::function<SnapshotDelta(int)> parse =
      [&](int /*attempt*/) {
        const uint64_t started = NowNs();
        auto delta = LoadSnapshotDelta(path);
        parse_ns += NowNs() - started;
        if (!delta.ok()) throw std::runtime_error(delta.status().message());
        return std::move(*delta);
      };
  SnapshotDelta delta;
  StageOutcome parse_outcome;
  if (!supervisor.RunGuarded<SnapshotDelta>(
          PipelineStage::kSnapshotLoad, static_cast<uint32_t>(base.generation + 1),
          parse, /*validate=*/nullptr, &delta, &parse_outcome)) {
    *error = parse_outcome.error;
    return nullptr;
  }
  // A cleanly parsed delta whose base binding disagrees with the serving
  // generation is a *permanent* condition — its base generation was rolled
  // back, or was replaced by a republish with different bytes. Fail fast
  // instead of burning retries and backoff on a mismatch that can never
  // heal; the caller quarantines the doomed chain and keeps serving.
  if (delta.base_generation != base.generation ||
      delta.base_crc32 != base.image_crc32) {
    *error = "delta " + path + " binds to generation " +
             std::to_string(delta.base_generation) + " crc32 " +
             std::to_string(delta.base_crc32) + ", but serving generation " +
             std::to_string(base.generation) + " has crc32 " +
             std::to_string(base.image_crc32) +
             " (base rolled back or replaced)";
    return nullptr;
  }
  // Phase 2: materialize and deep-validate — deterministic functions of the
  // parsed bytes, guarded for the deadline but pointless to retry. The base
  // arrays are recovered off the serve path (the base reader is immutable,
  // so this is safe against concurrent queries); the base's names block is
  // shared, not copied, and passed on to the new generation.
  uint64_t materialize_ns = 0;
  uint64_t open_ns = 0;
  std::function<std::shared_ptr<ServingGeneration>(int)> body =
      [&](int /*attempt*/) {
        const uint64_t started = NowNs();
        Result<SnapshotParts> base_parts = PartsFromReader(base.reader, base.names);
        if (!base_parts.ok()) throw std::runtime_error(base_parts.status().message());
        auto image = MaterializeSnapshotDelta(delta, *base_parts, base.generation,
                                              base.image_crc32);
        const uint64_t materialized = NowNs();
        materialize_ns += materialized - started;
        if (!image.ok()) throw std::runtime_error(image.status().message());
        // Re-run the deep structural Validate() on the materialized image
        // before it can ever be served.
        auto reader = SnapshotReader::OpenFromBuffer(*image, path);
        if (!reader.ok()) throw std::runtime_error(reader.status().message());
        auto out = std::make_shared<ServingGeneration>(
            delta.generation, Crc32Of(*image), path, std::move(*reader));
        out->names = std::move(base_parts->names);
        open_ns += NowNs() - materialized;
        return out;
      };
  Supervisor materialize_supervisor(SupervisorOptions{
      options_.load_deadline_ms, /*max_retries=*/0,
      /*quarantine=*/true, options_.backoff_base_ms, options_.backoff_cap_ms});
  std::shared_ptr<ServingGeneration> loaded;
  StageOutcome outcome;
  if (!materialize_supervisor.RunGuarded<std::shared_ptr<ServingGeneration>>(
          PipelineStage::kSnapshotLoad, static_cast<uint32_t>(base.generation + 1),
          body, /*validate=*/nullptr, &loaded, &outcome)) {
    *error = outcome.error;
    return nullptr;
  }
  ManagerMetrics& metrics = GetManagerMetrics();
  metrics.parse_ns.Observe(static_cast<double>(parse_ns));
  metrics.materialize_ns.Observe(static_cast<double>(materialize_ns));
  metrics.open_ns.Observe(static_cast<double>(open_ns));
  return loaded;
}

void SnapshotManager::Install(std::shared_ptr<ServingGeneration> next) {
  QueryEngineOptions engine_options = options_.engine;
  engine_options.shared_stats = stats_;
  engine_options.generation = next->generation;
  // A fresh engine per generation: the response cache starts empty (stale
  // answers cannot leak across a swap) while ServeStats persist.
  next->engine = std::make_unique<QueryEngine>(&next->reader, engine_options);
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(next);
    GetManagerMetrics().generation.Set(
        static_cast<int64_t>(current_->generation));
  }
}

void SnapshotManager::Quarantine(const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(path, path + ".quarantined", ec);
  // A failed rename (e.g. the publisher already replaced the file) is not
  // actionable here; the next poll re-evaluates whatever is on disk.
}

SnapshotPollResult SnapshotManager::Poll() {
  std::lock_guard<std::mutex> poll_lock(poll_mu_);
  SnapshotPollResult result;

  std::map<uint64_t, std::string> fulls;
  std::map<uint64_t, std::string> deltas;
  {
    std::error_code ec;
    std::filesystem::directory_iterator it(options_.dir, ec);
    if (!ec) {
      for (const auto& entry : it) {
        std::error_code entry_ec;
        if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
        const std::string name = entry.path().filename().string();
        uint64_t gen = 0;
        if (ParsePublishName(name, "snap-", &gen)) {
          fulls[gen] = entry.path().string();
        } else if (ParsePublishName(name, "delta-", &gen)) {
          deltas[gen] = entry.path().string();
        }
      }
    }
  }

  std::shared_ptr<const ServingGeneration> cur = Current();
  ManagerMetrics& metrics = GetManagerMetrics();

  auto record_failure = [&](const std::string& path) {
    Quarantine(path);
    ++result.failed;
    metrics.failed.Add();
    if (cur != nullptr) {
      ++result.rolled_back;
      metrics.rolled_back.Add();
    }
  };

  // Newest loadable full image first; anything older than the serving
  // generation is just a stale publish, not a failure.
  for (auto it = fulls.rbegin(); it != fulls.rend(); ++it) {
    const uint64_t gen = it->first;
    if (cur != nullptr && gen <= cur->generation) break;
    const uint64_t started = NowNs();
    std::string error;
    std::shared_ptr<ServingGeneration> next = LoadFull(it->second, gen, &error);
    if (next == nullptr) {
      record_failure(it->second);
      continue;
    }
    Install(std::move(next));
    cur = Current();
    ++result.swaps;
    metrics.swaps.Add();
    metrics.swap_ns.Observe(static_cast<double>(NowNs() - started));
    break;
  }

  // Contiguous delta chain on top of the serving generation. A delta for a
  // generation we already passed is stale; a gap ends the chain (the missing
  // generation may still be publishing).
  while (cur != nullptr) {
    auto it = deltas.find(cur->generation + 1);
    if (it == deltas.end()) break;
    const uint64_t started = NowNs();
    std::string error;
    std::shared_ptr<ServingGeneration> next = LoadDelta(it->second, *cur, &error);
    if (next == nullptr) {
      record_failure(it->second);
      // The quarantined delta's image will never exist, so contiguous
      // successors on disk chain onto a dead base and can never apply —
      // quarantine them now instead of letting them wedge every later poll
      // (as a permanent failed-and-rolled-back loop) until a full image
      // happens to arrive.
      for (auto orphan = deltas.find(it->first + 1); orphan != deltas.end();
           orphan = deltas.find(orphan->first + 1)) {
        Quarantine(orphan->second);
        ++result.orphaned;
        metrics.orphaned.Add();
      }
      break;
    }
    Install(std::move(next));
    cur = Current();
    ++result.swaps;
    metrics.swaps.Add();
    metrics.swap_ns.Observe(static_cast<double>(NowNs() - started));
  }

  result.generation = cur == nullptr ? 0 : cur->generation;
  return result;
}

void SnapshotManager::StartWatching(int poll_interval_ms) {
  StopWatching();
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    stop_watching_ = false;
  }
  watcher_ = std::thread([this, poll_interval_ms] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(watch_mu_);
        watch_cv_.wait_for(lock, std::chrono::milliseconds(poll_interval_ms),
                           [this] { return stop_watching_; });
        if (stop_watching_) return;
      }
      Poll();
    }
  });
}

void SnapshotManager::StopWatching() {
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    stop_watching_ = true;
  }
  watch_cv_.notify_all();
  if (watcher_.joinable()) watcher_.join();
}

}  // namespace semdrift

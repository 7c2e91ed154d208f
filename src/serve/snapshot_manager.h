#ifndef SEMDRIFT_SERVE_SNAPSHOT_MANAGER_H_
#define SEMDRIFT_SERVE_SNAPSHOT_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace semdrift {

/// One loaded, validated snapshot generation and the engine serving it.
/// Immutable after construction; lifetime is managed RCU-style through
/// shared_ptr — the manager flips its current pointer and in-flight batches
/// keep the old generation alive through their EnginePin until they finish.
struct ServingGeneration {
  uint64_t generation = 0;
  /// CRC32 of the full image bytes; the base binding the next delta must
  /// match.
  uint32_t image_crc32 = 0;
  /// The publish file this generation came from (diagnostics).
  std::string source;
  SnapshotReader reader;
  /// The names block the image was materialized with: delta generations
  /// carry it on to the next delta, so a chain shares one block. Null for a
  /// full image (the first delta on it adopts the block from `reader`).
  std::shared_ptr<const SnapshotNames> names;
  /// Engine over `reader`, created fresh per generation: a new generation
  /// gets an empty response cache (per-generation invalidation) while
  /// recording into the manager's shared ServeStats.
  std::unique_ptr<QueryEngine> engine;

  ServingGeneration(uint64_t gen, uint32_t crc, std::string src,
                    SnapshotReader&& r)
      : generation(gen), image_crc32(crc), source(std::move(src)),
        reader(std::move(r)) {}
};

struct SnapshotManagerOptions {
  /// The publish directory to watch. Producers publish either
  /// `snap-<gen>.bin` (full image, temp-and-rename) or `delta-<gen>.bin`
  /// (SnapshotDelta against generation gen-1). Corrupt publishes are renamed
  /// `<name>.quarantined` in place.
  std::string dir;
  /// Per-generation engine configuration. `shared_stats` and `generation`
  /// are overwritten by the manager.
  QueryEngineOptions engine;
  /// Serving counters shared across generations (survive swaps). When null
  /// the manager owns one internally.
  ServeStats* shared_stats = nullptr;
  /// Bounded retry-with-backoff for transient load failures (a publisher
  /// racing our read): attempts = 1 + load_retries.
  int load_retries = 2;
  /// Per-attempt deadline for one generation load.
  int load_deadline_ms = 30000;
  int backoff_base_ms = 1;
  int backoff_cap_ms = 50;
};

/// What one Poll() observed.
struct SnapshotPollResult {
  /// Generation serving after the poll (0 when none loaded yet).
  uint64_t generation = 0;
  /// Successful generation installs during this poll.
  int swaps = 0;
  /// Publishes that failed to load/validate (now quarantined on disk).
  int failed = 0;
  /// Failed publishes observed while a good generation was already serving —
  /// i.e. rollbacks to the last good generation.
  int rolled_back = 0;
  /// Chain deltas quarantined without a load attempt because the delta they
  /// build on was quarantined in the same poll: their base image can never
  /// exist, so leaving them on disk would wedge every later poll until a
  /// full image arrives.
  int orphaned = 0;
};

/// Watches a publish directory and hot-swaps snapshot generations under live
/// traffic.
///
/// Loading is entirely off the serve path: Poll() reads and materializes a
/// candidate generation, runs the deep structural Validate() (via
/// SnapshotReader::OpenFromBuffer), and only then flips the current
/// shared_ptr. Queries pin a generation per batch (Pin()), so a swap never
/// invalidates an engine mid-batch; the old generation is destroyed when the
/// last pin drops.
///
/// Failure containment: a truncated, bit-flipped or wrong-base publish is
/// detected before install (framing CRCs, delta checksum + base binding,
/// Validate()), the file is renamed `<name>.quarantined`, and serving
/// continues on the last good generation — the rollback is "do nothing",
/// which is the only rollback that cannot itself fail. Transient read races
/// (publisher mid-write) are retried with bounded seeded backoff through the
/// util/supervisor StageGuard machinery (stage "load"); a delta whose base
/// binding disagrees with the serving generation (its base was rolled back
/// or replaced) is permanent and fails fast without retries, and contiguous
/// successor deltas — now orphaned, since their base image can never exist —
/// are quarantined in the same poll so the watcher never stalls on a dead
/// chain.
///
/// Metrics: gauge `serve.generation`, counters `serve.swap.count`,
/// `serve.publish.failed`, `serve.publish.rolled_back`,
/// `serve.publish.orphaned`, histogram `serve.swap.ns` (per-swap
/// load-to-install latency) and its phases, observed per successful install:
/// `serve.install.read_ns` (a full image's file read),
/// `serve.install.parse_ns` (a delta file's read, checksum and parse),
/// `serve.install.materialize_ns` (base parts recovery, delta application
/// and image build) and `serve.install.open_ns` (OpenFromBuffer's CRCs and
/// Validate(), plus the image CRC).
class SnapshotManager {
 public:
  explicit SnapshotManager(SnapshotManagerOptions options);
  ~SnapshotManager();

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// First poll; fails (kNotFound) when no loadable generation exists yet.
  Status LoadInitial();

  /// Scans the publish directory once: installs the newest loadable full
  /// image if it is newer than the current generation, then applies the
  /// contiguous delta chain on top. Serialized (concurrent polls queue);
  /// loading happens outside the swap lock.
  SnapshotPollResult Poll();

  /// The serving generation (null before the first successful load).
  std::shared_ptr<const ServingGeneration> Current() const;

  /// Engine + keepalive for one batch; engine is null before the first load.
  EnginePin Pin() const;

  /// Currently served generation id (0 when none).
  uint64_t generation() const;

  /// Background watcher calling Poll() every `poll_interval_ms`.
  void StartWatching(int poll_interval_ms);
  void StopWatching();

  /// The stats every generation's engine records into.
  ServeStats* stats() { return stats_; }

 private:
  std::shared_ptr<ServingGeneration> LoadFull(const std::string& path,
                                              uint64_t gen, std::string* error);
  std::shared_ptr<ServingGeneration> LoadDelta(
      const std::string& path, const ServingGeneration& base, std::string* error);
  void Install(std::shared_ptr<ServingGeneration> next);
  void Quarantine(const std::string& path);

  SnapshotManagerOptions options_;
  ServeStats owned_stats_;
  ServeStats* stats_ = nullptr;

  /// Serializes Poll() bodies (directory scan + load, potentially slow).
  std::mutex poll_mu_;
  /// Guards current_ only (swap flip; Current() is a cheap locked copy).
  mutable std::mutex mu_;
  std::shared_ptr<ServingGeneration> current_;

  std::thread watcher_;
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  bool stop_watching_ = false;
};

}  // namespace semdrift

#endif  // SEMDRIFT_SERVE_SNAPSHOT_MANAGER_H_

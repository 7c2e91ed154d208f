#ifndef SEMDRIFT_NET_ROUTER_H_
#define SEMDRIFT_NET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/hash_ring.h"
#include "serve/batcher.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"

namespace semdrift {

struct RouterOptions {
  /// Number of shard workers; each owns a consistent-hash slice of the
  /// concept space with its own QueryEngine (private result cache), its own
  /// ServeStats, and its own Batcher running the admission ladder.
  uint32_t num_shards = 1;
  uint32_t vnodes_per_shard = 64;
  /// Per-shard engine configuration. cache_capacity is TOTAL across shards
  /// (divided evenly), so `--cache N` means the same memory at any shard
  /// count. shared_stats/generation are overwritten per shard.
  QueryEngineOptions engine;
  /// Per-shard batcher configuration. The batcher queues only what needs a
  /// queue: the two legs of a scatter-gathered mutex, and every routed
  /// request when admission control is on (deadline_budget_ms > 0). Its
  /// coalescing (max_batch, max_wait_ms) and default_deadline_ms apply to
  /// those requests only; every other request is answered inline.
  BatcherOptions batch;
};

/// Point-in-time router counters.
struct RouterStats {
  uint64_t requests = 0;          ///< Submit() calls.
  uint64_t direct = 0;            ///< Single-shard dispatches (inline or queued).
  uint64_t fanout = 0;            ///< Scatter-gathered mutex queries.
  uint64_t fanout_mismatch = 0;   ///< Fan-out legs that disagreed (bug tripwire).
  uint64_t local = 0;             ///< Answered inline (stats/metrics).
};

/// Routes line-protocol requests to shard workers by consistent hash of the
/// first argument (the concept/instance name), scatter-gathering where a
/// query names concepts owned by different shards.
///
/// Determinism contract: every shard answers from the same immutable
/// snapshot (or the same hot-swap generation), and QueryEngine responses are
/// deterministic, so routing is a pure performance decision — responses are
/// byte-identical to a single unsharded engine. `mutex a b` exploits this as
/// a self-check: when a and b land on different shards the router runs the
/// query on both (the non-owner leg with record_stats=false so it is counted
/// once) and byte-compares the answers, counting any disagreement in
/// net.router.fanout_mismatch.
///
/// `stats` is answered by the router itself from the merged per-shard
/// ServeStats (MergeTypeStats) — never by one shard's engine, which would
/// report that shard's slice as the whole and double-count the stats request
/// itself. `metrics` is also answered inline: the registry is process-global.
///
/// Execution: a request owned by one shard is answered synchronously on the
/// caller's thread against that shard's engine, pinned for the one request
/// (a hot swap between two requests is fine: each answer comes from one
/// generation that was live while it ran). Shard batchers run only where a
/// queue does work: the legs of a split mutex, and every routed request
/// under admission control, whose shedding decides on queue wait.
///
/// Ordering: Submit() never blocks; queued requests complete on pool threads
/// in any order, so callers needing per-connection ordering sequence
/// responses themselves (NetServer's reorder buffer).
class ShardRouter {
 public:
  /// Single-snapshot serving; `snapshot` must outlive the router.
  ShardRouter(const SnapshotReader* snapshot, RouterOptions options);
  /// Hot-swap serving: each shard lazily rebuilds its engine when the
  /// manager's generation changes, pinning generations RCU-style so a swap
  /// mid-batch never invalidates an engine. `manager` must outlive the router.
  ShardRouter(SnapshotManager* manager, RouterOptions options);
  /// Drains every shard batcher.
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Routes one request line. `done` is invoked with the response exactly
  /// once and must not block. It runs synchronously, before Submit returns,
  /// for stats/metrics, for every single-shard request when
  /// batch.deadline_budget_ms <= 0, and for queued requests that are shed;
  /// otherwise (split mutex, admission mode) from a pool worker.
  void Submit(std::string line, RequestPriority priority,
              std::function<void(std::string)> done);

  /// Shard that owns routing key `key` (exposed for tests/bench).
  uint32_t OwnerOf(std::string_view key) const { return ring_.OwnerOf(key); }
  uint32_t num_shards() const { return ring_.num_shards(); }

  /// Generation currently served (0 for single-snapshot mode).
  uint64_t generation() const;

  RouterStats Snapshot() const;

  /// Test hooks: hold/release dispatch on every shard batcher (used to force
  /// queue buildup deterministically for overload tests). Only queued
  /// requests are held; inline answers never wait.
  void PauseAll();
  void ResumeAll();

 private:
  /// A per-generation engine bound to one shard's stats. Held by shared_ptr
  /// so an EnginePin keepalive holds both the generation and the engine.
  struct ShardEngine {
    std::shared_ptr<const ServingGeneration> gen;
    std::unique_ptr<QueryEngine> engine;
  };

  struct Shard {
    ServeStats stats;
    /// Single-snapshot mode: fixed engine. Hot-swap mode: null.
    std::unique_ptr<QueryEngine> fixed_engine;
    /// Hot-swap mode: engine for the currently-cached generation.
    std::mutex mu;
    std::shared_ptr<ShardEngine> current;
    std::unique_ptr<Batcher> batcher;
  };

  ShardRouter(const SnapshotReader* snapshot, SnapshotManager* manager,
              RouterOptions options);

  /// EngineSource body for shard `index` (resolves fixed or per-generation).
  EnginePin ResolveEngine(size_t index);

  /// Answers stats/metrics inline (recording into shard 0's ServeStats so
  /// the counters match a single engine's behaviour).
  std::string AnswerLocal(QueryType type);

  const SnapshotReader* snapshot_ = nullptr;  // single-snapshot mode
  SnapshotManager* manager_ = nullptr;        // hot-swap mode
  RouterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> direct_{0};
  std::atomic<uint64_t> fanout_{0};
  std::atomic<uint64_t> fanout_mismatch_{0};
  std::atomic<uint64_t> local_{0};
};

}  // namespace semdrift

#endif  // SEMDRIFT_NET_ROUTER_H_

#include "net/router.h"

#include <chrono>
#include <mutex>
#include <utility>

#include "obs/metrics.h"

namespace semdrift {

namespace {

struct NetRouterMetrics {
  MetricsRegistry::Counter fanout;
  MetricsRegistry::Counter fanout_mismatch;
};

NetRouterMetrics& GetNetRouterMetrics() {
  static NetRouterMetrics metrics{
      GlobalMetrics().RegisterCounter("net.router.fanout"),
      GlobalMetrics().RegisterCounter("net.router.fanout_mismatch")};
  return metrics;
}

/// Splits a request line the same way QueryEngine tokenizes it: on tabs when
/// the line contains one, else on runs of whitespace. The router only needs
/// the verb and the first argument token — the routing key.
void SplitForRouting(std::string_view line, std::vector<std::string_view>* out) {
  out->clear();
  const bool tabs = line.find('\t') != std::string_view::npos;
  size_t i = 0;
  while (i < line.size()) {
    if (tabs) {
      size_t end = line.find('\t', i);
      if (end == std::string_view::npos) end = line.size();
      out->push_back(line.substr(i, end - i));
      i = end + 1;
    } else {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\r')) ++i;
      if (i >= line.size()) break;
      size_t end = i;
      while (end < line.size() && line[end] != ' ' && line[end] != '\r') ++end;
      out->push_back(line.substr(i, end - i));
      i = end;
    }
  }
}

/// Gathers the two legs of a scattered mutex query; answers with the
/// primary (stats-recording) leg once both have completed.
struct FanoutState {
  std::mutex mu;
  std::string primary;
  std::string shadow;
  int remaining = 2;
  std::function<void(std::string)> done;
};

bool ComparableResponse(const std::string& r) {
  // Shed/shutdown/deadline responses reflect per-shard load, not snapshot
  // content; only content answers participate in the mismatch tripwire.
  return r.compare(0, 2, "OK") == 0 || r.compare(0, 9, "NOT_FOUND") == 0;
}

}  // namespace

ShardRouter::ShardRouter(const SnapshotReader* snapshot, RouterOptions options)
    : ShardRouter(snapshot, nullptr, std::move(options)) {}

ShardRouter::ShardRouter(SnapshotManager* manager, RouterOptions options)
    : ShardRouter(nullptr, manager, std::move(options)) {}

ShardRouter::ShardRouter(const SnapshotReader* snapshot, SnapshotManager* manager,
                         RouterOptions options)
    : snapshot_(snapshot),
      manager_(manager),
      options_(std::move(options)),
      ring_(options_.num_shards, options_.vnodes_per_shard) {
  // `--cache N` is a total budget: split it across shards so shard count
  // changes throughput, not memory.
  if (options_.engine.cache_capacity > 0) {
    options_.engine.cache_capacity =
        std::max<size_t>(1, options_.engine.cache_capacity / ring_.num_shards());
  }
  shards_.reserve(ring_.num_shards());
  for (uint32_t i = 0; i < ring_.num_shards(); ++i) {
    auto shard = std::make_unique<Shard>();
    if (snapshot_ != nullptr) {
      QueryEngineOptions opts = options_.engine;
      opts.shared_stats = &shard->stats;
      shard->fixed_engine = std::make_unique<QueryEngine>(snapshot_, opts);
    }
    shards_.push_back(std::move(shard));
  }
  // Batchers start after every shard exists: an EngineSource resolved by an
  // early batcher must never see a half-built shard table.
  for (uint32_t i = 0; i < ring_.num_shards(); ++i) {
    const size_t index = i;
    shards_[i]->batcher = std::make_unique<Batcher>(
        EngineSource([this, index] { return ResolveEngine(index); }),
        options_.batch);
  }
}

ShardRouter::~ShardRouter() {
  // Destroy batchers first: their drain may still resolve engines through
  // ResolveEngine, which walks shards_.
  for (auto& shard : shards_) shard->batcher.reset();
}

EnginePin ShardRouter::ResolveEngine(size_t index) {
  Shard& shard = *shards_[index];
  if (manager_ == nullptr) {
    return EnginePin{shard.fixed_engine.get(), nullptr};
  }
  std::shared_ptr<const ServingGeneration> cur = manager_->Current();
  if (cur == nullptr) return EnginePin{};
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.current == nullptr || shard.current->gen != cur) {
    // New generation: build this shard's engine over it (fresh response
    // cache — per-generation invalidation — recording into the shard's
    // swap-surviving stats). The old ShardEngine stays alive through any
    // in-flight batch's keepalive and dies with the last pin.
    auto next = std::make_shared<ShardEngine>();
    next->gen = cur;
    QueryEngineOptions opts = options_.engine;
    opts.shared_stats = &shard.stats;
    opts.generation = cur->generation;
    next->engine = std::make_unique<QueryEngine>(&cur->reader, opts);
    shard.current = std::move(next);
  }
  return EnginePin{shard.current->engine.get(), shard.current};
}

uint64_t ShardRouter::generation() const {
  return manager_ != nullptr ? manager_->generation()
                             : options_.engine.generation;
}

std::string ShardRouter::AnswerLocal(QueryType type) {
  const auto started = std::chrono::steady_clock::now();
  std::string response;
  if (type == QueryType::kStats) {
    std::vector<const ServeStats*> all;
    all.reserve(shards_.size());
    for (const auto& shard : shards_) all.push_back(&shard->stats);
    response = FormatStatsResponse(all, generation(),
                                   static_cast<int>(ring_.num_shards()));
  } else {
    response = "OK\t" + GlobalMetrics().ToJson();
  }
  const auto ended = std::chrono::steady_clock::now();
  // Mirror QueryEngine's accounting so `stats` output and counters look the
  // same whether a deployment shards or not. Recorded against shard 0; the
  // merged view sums anyway.
  shards_[0]->stats.Record(
      type,
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                ended - started)
                                .count()),
      /*cache_hit=*/false, /*error=*/false);
  return response;
}

void ShardRouter::Submit(std::string line, RequestPriority priority,
                         std::function<void(std::string)> done) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::string_view> tokens;
  SplitForRouting(line, &tokens);

  QueryType type = QueryType::kNumTypes;
  if (!tokens.empty()) {
    for (int i = 0; i < static_cast<int>(QueryType::kNumTypes); ++i) {
      if (tokens[0] == QueryTypeName(static_cast<QueryType>(i))) {
        type = static_cast<QueryType>(i);
        break;
      }
    }
  }

  // stats/metrics aggregate across shards — answered here, never by one
  // shard's engine (which would report its slice as the whole).
  if (type == QueryType::kStats || type == QueryType::kMetrics) {
    local_.fetch_add(1, std::memory_order_relaxed);
    done(AnswerLocal(type));
    return;
  }

  const std::string_view key = tokens.size() > 1 ? tokens[1] : std::string_view();
  const uint32_t owner = ring_.OwnerOf(key);
  const int deadline_ms = options_.batch.default_deadline_ms;

  // mutex <a> <b> with tab-separated args whose names hash to different
  // shards: scatter to both owners and byte-compare. Only the tab form names
  // the two concepts unambiguously (whitespace form needs snapshot-side
  // split resolution), so only it fans out.
  if (type == QueryType::kMutex && tokens.size() == 3 &&
      line.find('\t') != std::string_view::npos) {
    const uint32_t shadow_owner = ring_.OwnerOf(tokens[2]);
    if (shadow_owner != owner) {
      fanout_.fetch_add(1, std::memory_order_relaxed);
      GetNetRouterMetrics().fanout.Add();
      auto state = std::make_shared<FanoutState>();
      state->done = std::move(done);
      auto leg = [this, state](bool is_primary) {
        return [this, state, is_primary](std::string response) {
          std::function<void(std::string)> finish;
          std::string answer;
          {
            std::lock_guard<std::mutex> lock(state->mu);
            (is_primary ? state->primary : state->shadow) = std::move(response);
            if (--state->remaining > 0) return;
            if (ComparableResponse(state->primary) &&
                ComparableResponse(state->shadow) &&
                state->primary != state->shadow) {
              fanout_mismatch_.fetch_add(1, std::memory_order_relaxed);
              GetNetRouterMetrics().fanout_mismatch.Add();
            }
            finish = std::move(state->done);
            answer = state->primary;
          }
          finish(std::move(answer));
        };
      };
      // Shadow first so the primary (whose completion may answer the client)
      // can never observe remaining > 1 after both callbacks ran.
      shards_[shadow_owner]->batcher->SubmitCallback(
          line, deadline_ms, RequestPriority::kLow, leg(false),
          /*record_stats=*/false);
      shards_[owner]->batcher->SubmitCallback(std::move(line), deadline_ms,
                                              priority, leg(true));
      return;
    }
  }

  direct_.fetch_add(1, std::memory_order_relaxed);
  if (options_.batch.deadline_budget_ms > 0) {
    // Admission control sheds on queue wait, which only the queued path has.
    shards_[owner]->batcher->SubmitCallback(std::move(line), deadline_ms,
                                            priority, std::move(done));
    return;
  }
  // Inline: one pin per request. An inline answer starts at once, so no
  // deadline can expire and no CancellationToken is armed (no verb polls one).
  EnginePin pin = ResolveEngine(owner);
  done(pin.engine != nullptr ? pin.engine->Answer(line, /*record_stats=*/true)
                             : std::string("ERR\tno snapshot generation available"));
}

RouterStats ShardRouter::Snapshot() const {
  RouterStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.direct = direct_.load(std::memory_order_relaxed);
  stats.fanout = fanout_.load(std::memory_order_relaxed);
  stats.fanout_mismatch = fanout_mismatch_.load(std::memory_order_relaxed);
  stats.local = local_.load(std::memory_order_relaxed);
  return stats;
}

void ShardRouter::PauseAll() {
  for (auto& shard : shards_) shard->batcher->Pause();
}

void ShardRouter::ResumeAll() {
  for (auto& shard : shards_) shard->batcher->Resume();
}

}  // namespace semdrift

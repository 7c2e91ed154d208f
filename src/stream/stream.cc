#include "stream/stream.h"

#include <chrono>
#include <utility>

#include "extract/dirty_set.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/snapshot_delta.h"
#include "util/crc32.h"

namespace semdrift {

namespace {

struct StreamMetrics {
  MetricsRegistry::Counter epochs;
  MetricsRegistry::Counter full_rebuilds;
  MetricsRegistry::Counter ingested;
  MetricsRegistry::Counter extractions;
  MetricsRegistry::Counter rolled_back;
  MetricsRegistry::Counter published_full;
  MetricsRegistry::Counter published_delta;
  MetricsRegistry::Gauge staleness;
  MetricsRegistry::Gauge generation;
  MetricsRegistry::Histogram epoch_ms;
  MetricsRegistry::Histogram publish_ms;
};

StreamMetrics& GetStreamMetrics() {
  static StreamMetrics metrics{
      GlobalMetrics().RegisterCounter("stream.epochs"),
      GlobalMetrics().RegisterCounter("stream.full_rebuilds"),
      GlobalMetrics().RegisterCounter("stream.sentences_ingested"),
      GlobalMetrics().RegisterCounter("stream.extractions"),
      GlobalMetrics().RegisterCounter("stream.records_rolled_back"),
      GlobalMetrics().RegisterCounter("stream.published.full"),
      GlobalMetrics().RegisterCounter("stream.published.delta"),
      GlobalMetrics().RegisterGauge("stream.staleness.sentences"),
      GlobalMetrics().RegisterGauge("stream.generation"),
      GlobalMetrics().RegisterHistogram("stream.epoch_ms", LatencyBucketsMs()),
      GlobalMetrics().RegisterHistogram("stream.publish_ms", LatencyBucketsMs())};
  return metrics;
}

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

VerifiedSource MakeVerified(const World* world) {
  return [world](const IsAPair& pair) {
    return world->IsVerified(pair.concept_id, pair.instance);
  };
}

}  // namespace

StreamPipeline::StreamPipeline(const World* world, StreamOptions options)
    : world_(world),
      options_(std::move(options)),
      extractor_(&sentences_, options_.extractor),
      cleaner_(&sentences_, MakeVerified(world), world->num_concepts(),
               options_.cleaner) {}

Result<StreamEpochStats> StreamPipeline::RunEpoch(std::vector<Sentence> delta,
                                                  bool final_epoch) {
  ++epoch_;
  StreamEpochStats stats;
  stats.epoch = epoch_;
  StreamMetrics& metrics = GetStreamMetrics();
  metrics.epochs.Add();
  auto start = std::chrono::steady_clock::now();
  ScopedSpan span(&GlobalTrace(), "stream.epoch");
  span.AddTag("epoch", static_cast<uint64_t>(epoch_));

  size_t first_new_sentence = sentences_.size();
  {
    ScopedSpan ingest(&GlobalTrace(), "stream.ingest");
    for (Sentence& sentence : delta) sentences_.Add(std::move(sentence));
    extractor_.SyncCorpusGrowth();
  }
  stats.sentences_ingested = sentences_.size() - first_new_sentence;
  stats.corpus_size = sentences_.size();
  metrics.ingested.Add(stats.sentences_ingested);

  bool rebuild = final_epoch && options_.final_full_rebuild;
  if (!rebuild && options_.full_rebuild_every > 0 &&
      epoch_ % options_.full_rebuild_every == 0) {
    rebuild = true;
  }

  if (!rebuild) {
    bool escalate = false;
    Status incremental = RunIncremental(first_new_sentence, &stats, &escalate);
    if (!incremental.ok()) return incremental;
    if (escalate) {
      rebuild = true;
      stats.escalated = true;
    }
  }
  if (rebuild) {
    stats.full_rebuild = true;
    metrics.full_rebuilds.Add();
    Status rebuilt = RunFullRebuild(&stats);
    if (!rebuilt.ok()) return rebuilt;
  }

  Status finished = FinishEpoch(rebuild, &stats);
  if (!finished.ok()) return finished;

  stats.live_pairs = kb_.num_live_pairs();
  metrics.extractions.Add(stats.extractions);
  metrics.rolled_back.Add(stats.records_rolled_back);
  metrics.staleness.Set(static_cast<int64_t>(stale_sentences_));
  metrics.epoch_ms.Observe(ElapsedMs(start));
  span.AddTag("extractions", static_cast<uint64_t>(stats.extractions));
  span.AddTag("dirty", static_cast<uint64_t>(stats.dirty_concepts));
  span.AddTag("rebuild", static_cast<uint64_t>(rebuild ? 1 : 0));
  return stats;
}

Status StreamPipeline::RunIncremental(size_t first_new_sentence,
                                      StreamEpochStats* stats, bool* escalate) {
  (void)first_new_sentence;
  size_t first_record = kb_.num_records();
  {
    ScopedSpan extract(&GlobalTrace(), "stream.extract");
    std::vector<IterationStats> iterations = extractor_.Run(&kb_);
    for (const IterationStats& it : iterations) stats->extractions += it.extractions;
  }

  // Scoped re-detection set: concepts the epoch's records touched, closed
  // over shared live instances (extract/dirty_set.h).
  std::vector<ConceptId> dirty;
  {
    ScopedSpan detect(&GlobalTrace(), "stream.dirty_set");
    dirty = ComputeDirtyConcepts(kb_, first_record, world_->num_concepts());
  }
  stats->dirty_concepts = dirty.size();
  size_t num_concepts = world_->num_concepts();
  if (options_.rebuild_dirty_frac < 1.0 && num_concepts > 0 &&
      static_cast<double>(dirty.size()) >
          options_.rebuild_dirty_frac * static_cast<double>(num_concepts)) {
    // The epoch is effectively global; a rebuild costs about the same and
    // retires accumulated drift too.
    *escalate = true;
    return Status::OK();
  }

  {
    ScopedSpan clean(&GlobalTrace(), "stream.clean");
    CleaningReport report = cleaner_.CleanDirty(&kb_, dirty, options_.clean_scope);
    stats->records_rolled_back = report.records_rolled_back;
  }

  // Trigger edges are intra-concept, so cascades stay inside the cleaned
  // concepts: the dirty scope bounds everything this epoch could have
  // corrupted.
  Status valid = kb_.ValidateConcepts(dirty, sentences_.size());
  if (!valid.ok()) return valid;
  stale_sentences_ += stats->sentences_ingested;
  return Status::OK();
}

Status StreamPipeline::RunFullRebuild(StreamEpochStats* stats) {
  ScopedSpan rebuild(&GlobalTrace(), "stream.rebuild");
  KnowledgeBase fresh;
  IterativeExtractor extractor(&sentences_, options_.extractor);
  stats->extractions = 0;
  std::vector<IterationStats> iterations = extractor.Run(&fresh);
  for (const IterationStats& it : iterations) stats->extractions += it.extractions;

  std::vector<ConceptId> scope = options_.clean_scope;
  if (scope.empty()) {
    scope.reserve(world_->num_concepts());
    for (size_t c = 0; c < world_->num_concepts(); ++c) {
      scope.push_back(ConceptId{static_cast<uint32_t>(c)});
    }
  }
  CleaningReport report = cleaner_.Clean(&fresh, scope);
  stats->records_rolled_back = report.records_rolled_back;

  kb_ = std::move(fresh);
  extractor_ = std::move(extractor);
  stale_sentences_ = 0;
  return Status::OK();
}

Status StreamPipeline::FinishEpoch(bool full_rebuild, StreamEpochStats* stats) {
  // Re-apply the epoch's mutations through the provenance log — the same
  // replay path checkpoint restore uses — so the served state is provably
  // reconstructible from records alone; rebuild epochs add the full
  // invariant check with world/corpus bounds.
  {
    ScopedSpan validate(&GlobalTrace(), "stream.validate");
    Result<KnowledgeBase> replayed = KnowledgeBase::FromRecords(kb_.records());
    if (!replayed.ok()) return replayed.status();
    if (full_rebuild) {
      Status valid = replayed->Validate(world_->num_concepts(), sentences_.size());
      if (!valid.ok()) return valid;
    }
    kb_ = std::move(*replayed);
  }

  if (options_.publish_dir.empty() && options_.epoch_snapshot_dir.empty()) {
    return Status::OK();
  }

  StreamMetrics& metrics = GetStreamMetrics();
  auto start = std::chrono::steady_clock::now();
  ScopedSpan publish(&GlobalTrace(), "stream.publish");
  // The names block is world-constant: built by the first compile, carried
  // to every later epoch.
  SnapshotParts parts =
      CompileSnapshotParts(kb_, *world_, nullptr, options_.snapshot, names_);
  names_ = parts.names;
  Result<std::string> image = [&] {
    ScopedSpan build(&GlobalTrace(), "snapshot.image");
    return BuildSnapshotImage(parts);
  }();
  if (!image.ok()) return image.status();

  if (!options_.epoch_snapshot_dir.empty()) {
    Status wrote = PublishSnapshotImage(
        *image, options_.epoch_snapshot_dir + "/epoch-" + std::to_string(epoch_) + ".bin");
    if (!wrote.ok()) return wrote;
  }

  if (!options_.publish_dir.empty()) {
    uint64_t gen = generation_ + 1;
    bool as_delta = has_published_ && !full_rebuild;
    if (as_delta) {
      Result<SnapshotDelta> delta = [&] {
        ScopedSpan diff(&GlobalTrace(), "snapshot.diff");
        return DiffSnapshotParts(last_parts_, parts);
      }();
      if (!delta.ok()) return delta.status();
      delta->base_generation = generation_;
      delta->base_crc32 = last_crc_;
      delta->generation = gen;
      Status wrote = WriteSnapshotDeltaFile(
          *delta, options_.publish_dir + "/delta-" + std::to_string(gen) + ".bin");
      if (!wrote.ok()) return wrote;
      metrics.published_delta.Add();
      stats->published_delta = true;
    } else {
      Status wrote = PublishSnapshotImage(
          *image, options_.publish_dir + "/snap-" + std::to_string(gen) + ".bin");
      if (!wrote.ok()) return wrote;
      metrics.published_full.Add();
    }
    generation_ = gen;
    stats->generation = gen;
    last_parts_ = std::move(parts);
    last_crc_ = Crc32Of(*image);
    has_published_ = true;
    metrics.generation.Set(static_cast<int64_t>(gen));
  }
  metrics.publish_ms.Observe(ElapsedMs(start));
  return Status::OK();
}

Result<std::string> StreamPipeline::BuildImage() const {
  SnapshotParts parts =
      CompileSnapshotParts(kb_, *world_, nullptr, options_.snapshot, names_);
  return BuildSnapshotImage(parts);
}

}  // namespace semdrift

#ifndef SEMDRIFT_STREAM_STREAM_H_
#define SEMDRIFT_STREAM_STREAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/world.h"
#include "dp/cleaner.h"
#include "extract/extractor.h"
#include "kb/knowledge_base.h"
#include "serve/snapshot.h"
#include "text/sentence.h"
#include "util/status.h"

namespace semdrift {

/// Configuration of the streaming (incremental) extraction pipeline.
struct StreamOptions {
  ExtractorOptions extractor;
  CleanerOptions cleaner;
  /// Snapshot compilation knobs for published generations.
  SnapshotOptions snapshot;
  /// Full-rebuild cadence: epoch k (1-based) rebuilds from scratch when
  /// full_rebuild_every > 0 and k % full_rebuild_every == 0. 0 disables the
  /// cadence (only the final epoch rebuilds, per final_full_rebuild).
  int full_rebuild_every = 0;
  /// Force the final epoch to be a full rebuild, which makes the stream's
  /// end state byte-identical to the batch pipeline over the concatenated
  /// corpus (the differential-test contract). Scenario divergence runs turn
  /// this off to measure how far pure incremental processing drifts.
  bool final_full_rebuild = true;
  /// Escalate an incremental epoch to a full rebuild when the dirty set
  /// covers more than this fraction of the world's concepts (the epoch is
  /// effectively global anyway, and a rebuild resets accumulated drift).
  /// 1.0 disables escalation.
  double rebuild_dirty_frac = 1.0;
  /// Restrict cleaning to these concepts (scenario evaluation scope); empty
  /// means every world concept. Extraction is never restricted.
  std::vector<ConceptId> clean_scope;
  /// When non-empty, publish each epoch into this directory for a live
  /// `serve --publish-dir` to swap in: rebuild epochs (and the first epoch)
  /// write a full `snap-<gen>.bin`, incremental epochs write a CRC-bound
  /// `delta-<gen>.bin` against the previous generation.
  std::string publish_dir;
  /// When non-empty, additionally write the full image of every epoch as
  /// `epoch-<k>.bin` (the per-epoch one-shot reference the soak test diffs
  /// client answers against).
  std::string epoch_snapshot_dir;
};

/// What one epoch did.
struct StreamEpochStats {
  int epoch = 0;
  /// This epoch re-ran the whole pipeline over the cumulative corpus.
  bool full_rebuild = false;
  /// An incremental epoch escalated to a rebuild via rebuild_dirty_frac.
  bool escalated = false;
  size_t sentences_ingested = 0;
  size_t corpus_size = 0;
  /// Concepts in the scoped re-detection set (0 on rebuild epochs — the
  /// scope is everything).
  size_t dirty_concepts = 0;
  size_t extractions = 0;
  size_t records_rolled_back = 0;
  size_t live_pairs = 0;
  /// Generation published this epoch (0 when no publish dir is configured).
  uint64_t generation = 0;
  /// The publish was a delta file (false: full image or no publish).
  bool published_delta = false;
};

/// The write side of the hot-swap serving loop: ingests corpus deltas per
/// epoch, continues iterative extraction over the grown corpus, scopes DP
/// re-detection/re-cleaning to the dirty concept set (extract/dirty_set.h),
/// re-applies the mutated KB through the replay/validate path, and publishes
/// each epoch as a snapshot generation for a live SnapshotManager to swap.
///
/// Two tiers of epoch:
///  * Incremental epochs continue extraction on the shared KB (new
///    sentences only — prior decisions stand) and clean only the dirty
///    scope. Cheap and low-staleness, but scoped cleaning can diverge from
///    what a batch run over the same corpus would produce: record ids and
///    iteration numbers differ, and DPs outside the dirty closure go
///    undetected until a rebuild.
///  * Full-rebuild epochs (per full_rebuild_every / rebuild_dirty_frac
///    escalation / final_full_rebuild) re-run extraction and full-scope
///    cleaning from scratch over the cumulative corpus — exactly the batch
///    pipeline — and swap the result in, resetting accumulated drift to
///    zero. With final_full_rebuild the stream's final KB and snapshot are
///    byte-identical to a one-shot batch run over the concatenated corpus.
///
/// Determinism: every stage is a deterministic function of (corpus, options)
/// at any thread count, so published images and deltas are byte-identical
/// across runs and thread counts (the stream_differential_test contract).
class StreamPipeline {
 public:
  /// `world` is borrowed and must outlive the pipeline.
  StreamPipeline(const World* world, StreamOptions options);

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  /// Ingests and processes one epoch. `final_epoch` marks the last epoch of
  /// the stream (it forces a full rebuild when final_full_rebuild is set).
  /// An empty delta is legal (a heartbeat epoch republishes the current
  /// state). Errors (invalid KB state, failed publish) abort the epoch.
  Result<StreamEpochStats> RunEpoch(std::vector<Sentence> delta, bool final_epoch);

  const KnowledgeBase& kb() const { return kb_; }
  const SentenceStore& sentences() const { return sentences_; }
  const World& world() const { return *world_; }
  int epochs_run() const { return epoch_; }
  uint64_t generation() const { return generation_; }
  /// Sentences processed only incrementally since the last full rebuild —
  /// the staleness the next rebuild will retire (also exported as gauge
  /// `stream.staleness.sentences`).
  size_t stale_sentences() const { return stale_sentences_; }

  /// Compiles and frames the current KB as a full serving image (what a
  /// rebuild epoch would publish). Exposed for differential tests.
  Result<std::string> BuildImage() const;

 private:
  /// Continue extraction + scoped clean on the shared KB. Sets stats'
  /// dirty/extraction/rollback fields; flips `escalate` instead of cleaning
  /// when the dirty set crosses rebuild_dirty_frac.
  Status RunIncremental(size_t first_new_sentence, StreamEpochStats* stats,
                        bool* escalate);
  /// Fresh extraction + full-scope clean over the cumulative corpus; swaps
  /// the result in.
  Status RunFullRebuild(StreamEpochStats* stats);
  /// Replay + validate, then publish this epoch's state.
  Status FinishEpoch(bool full_rebuild, StreamEpochStats* stats);

  const World* world_;
  StreamOptions options_;
  SentenceStore sentences_;
  KnowledgeBase kb_;
  IterativeExtractor extractor_;
  DpCleaner cleaner_;
  int epoch_ = 0;
  uint64_t generation_ = 0;
  size_t stale_sentences_ = 0;
  /// The world's names block, built by the first compile and shared by
  /// every published generation.
  std::shared_ptr<const SnapshotNames> names_;
  /// Parts and CRC of the last published image (delta base).
  SnapshotParts last_parts_;
  uint32_t last_crc_ = 0;
  bool has_published_ = false;
};

}  // namespace semdrift

#endif  // SEMDRIFT_STREAM_STREAM_H_

#ifndef SEMDRIFT_SERVE_SNAPSHOT_H_
#define SEMDRIFT_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/world.h"
#include "kb/knowledge_base.h"
#include "mutex/mutex_index.h"
#include "rank/scorers.h"
#include "util/status.h"
#include "util/supervisor.h"

namespace semdrift {

/// Immutable, versioned serving snapshot of a finished run (the read side of
/// the pipeline): a KnowledgeBase compiled into one binary file that a
/// QueryEngine can answer from with zero per-query allocation.
///
/// Layout (version 1; every payload offset is 8-byte aligned and every
/// section carries its own CRC32, with a whole-file CRC32 footer on top):
///
///   header      magic "SDSNAP1\n", version, counts, header CRC
///   section table  (tag, CRC, offset, size) per section + table CRC
///   CNAM/INAM   interned name tables: u32 offsets[n+1] + byte blob
///   FCSR        forward CSR concept->pairs: u64 rows[nc+1] + u32 inst[np],
///               each row sorted by instance id (binary-searchable)
///   RANK        per-concept pair indices re-ordered by (score desc, id asc)
///               — top-k-by-score is a prefix read
///   SCOR        f64 score column (Eq. 3 walk score over the final KB)
///   SUPP        u32 support + u32 iter1 columns
///   ICSR        inverse CSR instance->pairs: u64 rows[ni+1] + u32 concept
///               + u32 forward pair index (score column is shared)
///   CMET        per-concept flags (quarantined, mutex-usable)
///   MUTX        thresholds + sorted (concept,concept) keys with effective
///               similarity — the sparse complement of "is mutex"
///   NSRT        name-sorted id permutations for allocation-free name lookup
///   footer      whole-file CRC32 + end magic
///
/// The CSR flattening mirrors ConceptGraph's packed adjacency (PR 2): row
/// offsets plus contiguous columns, so a concept's instances, scores and
/// supports are one cache-friendly slice.

/// Scoring/mutex configuration compiled into a snapshot. Defaults match the
/// cleaning pipeline (CleanerOptions), so served drift scores are the scores
/// the DP features saw over the final KB.
struct SnapshotOptions {
  RankModel model = RankModel::kRandomWalk;
  WalkParams walk;
  MutexParams mutex;
};

class SnapshotReader;
struct SnapshotParts;

/// The world-constant sections of a snapshot: both interned name tables and
/// the name-sorted permutations, held as their encoded CNAM, INAM and NSRT
/// payloads. A delta cannot change a name, so every generation over one
/// world shares one block (through shared_ptr): BuildSnapshotImage copies
/// the three payloads instead of decoding, re-sorting and re-encoding the
/// names. Immutable. Build() is the only place names are encoded and sorted;
/// PartsFromReader adopts a block verbatim from a reader's verified section
/// bytes.
class SnapshotNames {
 public:
  /// Encodes the name tables and sorts each permutation by name, ties by id.
  /// The sort key is an 8-byte big-endian name prefix, then the full name,
  /// then the id — the same order as comparing (name, id), without chasing
  /// two string pointers per comparison.
  static std::shared_ptr<const SnapshotNames> Build(
      const std::vector<std::string_view>& concept_names,
      const std::vector<std::string_view>& instance_names);

  size_t num_concepts() const { return num_concepts_; }
  size_t num_instances() const { return num_instances_; }

  /// CNAM payload: u32 offsets[nc+1] + byte blob.
  std::string_view concept_table() const { return concept_table_; }
  /// INAM payload: u32 offsets[ni+1] + byte blob.
  std::string_view instance_table() const { return instance_table_; }
  /// NSRT payload: u32 concept permutation[nc], then instance permutation[ni].
  std::string_view name_sort() const { return name_sort_; }

  /// Same world: the three payloads are byte-identical.
  bool SameAs(const SnapshotNames& other) const;

 private:
  SnapshotNames() = default;
  friend Result<SnapshotParts> PartsFromReader(
      const SnapshotReader& reader, std::shared_ptr<const SnapshotNames> names);

  size_t num_concepts_ = 0;
  size_t num_instances_ = 0;
  std::string concept_table_;
  std::string instance_table_;
  std::string name_sort_;
};

/// The arrays a snapshot is assembled from: the shared world-constant names
/// block plus the primary per-generation arrays. Everything else in the
/// file (rank order, inverse CSR) is derived from these by
/// BuildSnapshotImage, which is what makes delta application well-defined:
/// a delta edits primary arrays and carries the names block unchanged,
/// derivation is recomputed, and the materialized image is byte-identical
/// to one written directly from the same arrays.
struct SnapshotParts {
  /// Null only in a default-constructed value (no world yet);
  /// BuildSnapshotImage refuses it.
  std::shared_ptr<const SnapshotNames> names;
  /// Forward CSR: rows[c]..rows[c+1] index the pair columns; each row is
  /// strictly sorted by instance id.
  std::vector<uint64_t> fwd_rows;
  std::vector<uint32_t> fwd_instance;
  std::vector<double> score;
  std::vector<uint32_t> support;
  std::vector<uint32_t> iter1;
  /// Per-concept flags: bit 0 quarantined, bit 1 mutex-usable.
  std::vector<uint8_t> flags;
  double mutex_threshold = 0.0;
  double similar_threshold = 0.0;
  /// Sparse effective-similarity table, keys (lo << 32 | hi) strictly sorted.
  std::vector<uint64_t> mutex_keys;
  std::vector<double> mutex_sims;

  size_t num_concepts() const { return names == nullptr ? 0 : names->num_concepts(); }
  size_t num_instances() const { return names == nullptr ? 0 : names->num_instances(); }
  uint64_t num_pairs() const { return fwd_instance.size(); }
};

/// Compiles the live pairs of `kb` (restricted to the world's concept and
/// instance id spaces, like ExportTaxonomyTsv) into primary arrays. Scores
/// are computed here (checked walk across the thread pool); quarantine flags
/// come from `health` when given. `names` is the names block of an earlier
/// compile over the same `world` (a stream's publisher carries it from epoch
/// to epoch); when null, the block is built from `world`.
SnapshotParts CompileSnapshotParts(const KnowledgeBase& kb, const World& world,
                                   const RunHealthReport* health,
                                   const SnapshotOptions& options,
                                   std::shared_ptr<const SnapshotNames> names = nullptr);

/// Assembles the full framed file image (header, section table, payloads,
/// CRC footer) from the parts: the names block's payloads are copied, every
/// derived section is recomputed. The image is a deterministic function of
/// the parts alone, so `BuildSnapshotImage(*PartsFromReader(r))` reproduces
/// r's file byte for byte. Fails (kInternal) if the parts are structurally
/// unsound — this is the safety gate the delta applier relies on before an
/// image is ever mapped.
Result<std::string> BuildSnapshotImage(const SnapshotParts& parts);

/// Writes an already-built image to `path` via temp-and-rename, so a torn
/// write never leaves a partial file under the final name.
Status PublishSnapshotImage(const std::string& image, const std::string& path);

/// CompileSnapshotParts + BuildSnapshotImage + PublishSnapshotImage.
Status WriteSnapshot(const KnowledgeBase& kb, const World& world,
                     const RunHealthReport* health, const SnapshotOptions& options,
                     const std::string& path);

/// How Open() gets the file's bytes into memory.
enum class SnapshotSource {
  /// Read the whole file into an owned buffer; every section CRC, the
  /// whole-file CRC and the deep structural Validate() run up front.
  kRead,
  /// mmap the file read-only. Framing checks that touch O(1) pages (magic,
  /// header CRC, section table CRC, declared size, end marker) still run at
  /// open; per-section CRCs are deferred to first use (EnsureSections) and
  /// the whole-file CRC and deep Validate() are skipped, so cold start is
  /// O(page faults), not O(bytes). Query results are byte-identical to the
  /// read path. Trust model: the per-section CRCs prove the payload bytes
  /// are exactly what BuildSnapshotImage wrote, and the writer gates deep
  /// structure before any image exists — so deferred mode detects any
  /// storage corruption, while a deliberately crafted evil file needs
  /// eager_verify (snapshot-verify uses it).
  kMmap,
};

struct SnapshotOpenOptions {
  SnapshotSource source = SnapshotSource::kRead;
  /// With kMmap: run every section CRC and the deep Validate() at open
  /// anyway (faulting the whole file in). No effect on kRead, which always
  /// verifies eagerly.
  bool eager_verify = false;
};

/// Bitmask over the ten version-1 sections, for EnsureSections(). Bit i is
/// section i in file order.
enum SnapshotSection : uint32_t {
  kSnapSecConceptNames = 1u << 0,
  kSnapSecInstanceNames = 1u << 1,
  kSnapSecForwardCsr = 1u << 2,
  kSnapSecRank = 1u << 3,
  kSnapSecScores = 1u << 4,
  kSnapSecSupport = 1u << 5,
  kSnapSecInverseCsr = 1u << 6,
  kSnapSecConceptMeta = 1u << 7,
  kSnapSecMutex = 1u << 8,
  kSnapSecNameSort = 1u << 9,
  kSnapSecAll = (1u << 10) - 1,
};

/// A loaded snapshot: one contiguous 8-byte-aligned buffer with typed
/// pointers into it. All accessors are const, thread-safe and allocation-free
/// after Open(). Open() verifies framing (magic, version, section CRCs, file
/// CRC) and then deep structure (Validate()): CSR monotonicity, id bounds,
/// string-table bounds, rank-permutation integrity — a snapshot that opens
/// is safe to serve from without per-query checks. (With SnapshotSource::
/// kMmap the per-section CRCs move to EnsureSections; see SnapshotSource.)
class SnapshotReader {
 public:
  static constexpr uint32_t kNoId = 0xffffffffu;
  static constexpr uint64_t kNoPair = ~0ull;

  static Result<SnapshotReader> Open(const std::string& path);
  static Result<SnapshotReader> Open(const std::string& path,
                                     const SnapshotOpenOptions& options);

  /// Opens from an in-memory image (the hot-swap manager materializes
  /// generations in memory before ever serving them). `label` names the
  /// source in error messages the way a path would.
  static Result<SnapshotReader> OpenFromBuffer(std::string_view content,
                                               const std::string& label);

  ~SnapshotReader();
  SnapshotReader(SnapshotReader&&) noexcept;
  SnapshotReader& operator=(SnapshotReader&&) noexcept;
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  /// True when backed by a live file mapping (kMmap) rather than an owned
  /// buffer.
  bool mmap_backed() const { return mapped_ != nullptr; }

  /// For mmap-backed readers: CRC-verifies every section in `mask` that has
  /// not been verified yet, re-statting the file first so an ftruncate under
  /// the mapping is caught before any payload page is touched (a shrunk
  /// mapping would SIGBUS). Failures are sticky per section — a corrupt
  /// section keeps failing every query that touches it, while queries over
  /// intact sections keep serving (damage confinement). Whole-mapping
  /// failures (stat error, file resized under the map) are globally sticky:
  /// every later call fails. Readers opened through kRead (or
  /// OpenFromBuffer) return OK immediately. Thread-safe; the fast path is
  /// one atomic load.
  Status EnsureSections(uint32_t mask) const;

  /// Sections CRC-verified so far (kSnapSecAll for eagerly-verified readers).
  uint32_t VerifiedSections() const;

  uint32_t num_concepts() const { return num_concepts_; }
  uint32_t num_instances() const { return num_instances_; }
  uint64_t num_pairs() const { return num_pairs_; }
  uint64_t num_mutex_pairs() const { return num_mutex_; }
  uint64_t file_bytes() const { return file_bytes_; }

  // -- Names ----------------------------------------------------------------

  std::string_view ConceptName(uint32_t c) const {
    return Interned(concept_name_offsets_, concept_name_blob_, c);
  }
  std::string_view InstanceName(uint32_t e) const {
    return Interned(instance_name_offsets_, instance_name_blob_, e);
  }

  /// Binary search over the name-sorted permutation; kNoId when absent.
  uint32_t FindConcept(std::string_view name) const;
  uint32_t FindInstance(std::string_view name) const;

  // -- Forward index (concept -> pairs) -------------------------------------

  /// Pair-index range [first, last) of concept `c`. Rows are sorted by
  /// instance id.
  uint64_t ConceptBegin(uint32_t c) const { return fwd_rows_[c]; }
  uint64_t ConceptEnd(uint32_t c) const { return fwd_rows_[c + 1]; }

  uint32_t PairInstance(uint64_t pair) const { return fwd_instance_[pair]; }
  double PairScore(uint64_t pair) const { return score_[pair]; }
  uint32_t PairSupport(uint64_t pair) const { return support_[pair]; }
  uint32_t PairIter1(uint64_t pair) const { return iter1_[pair]; }

  /// Pair indices of concept `c` in (score desc, instance id asc) order;
  /// slice delimiters are ConceptBegin/End.
  const uint32_t* RankOrder() const { return rank_; }

  /// Binary search for (c, e); kNoPair when the pair is not live.
  uint64_t FindPair(uint32_t c, uint32_t e) const;

  // -- Inverse index (instance -> pairs) ------------------------------------

  uint64_t InstanceBegin(uint32_t e) const { return inv_rows_[e]; }
  uint64_t InstanceEnd(uint32_t e) const { return inv_rows_[e + 1]; }
  /// Concept of the i-th inverse entry; rows are sorted by concept id.
  uint32_t InvConcept(uint64_t i) const { return inv_concept_[i]; }
  /// Forward pair index of the i-th inverse entry (shares the score column).
  uint64_t InvPairIndex(uint64_t i) const { return inv_pair_[i]; }

  // -- Concept metadata & mutex ---------------------------------------------

  /// Concept was quarantined by the supervised run that produced this KB.
  bool ConceptQuarantined(uint32_t c) const { return (concept_flags_[c] & 1u) != 0; }
  /// Concept has enough core instances to participate in mutex labeling.
  bool MutexUsable(uint32_t c) const { return (concept_flags_[c] & 2u) != 0; }

  double mutex_threshold() const { return mutex_threshold_; }
  double similar_threshold() const { return similar_threshold_; }

  /// Effective (closure-max) similarity; 0 when the pair shares no core
  /// instances even through highly-similar twins.
  double EffectiveSim(uint32_t a, uint32_t b) const;

  /// MutexIndex::IsMutex over the compiled table: both usable, distinct,
  /// effective similarity below the threshold.
  bool IsMutex(uint32_t a, uint32_t b) const;

  /// Raw mutex table entries (i < num_mutex_pairs()); PartsFromReader and
  /// snapshot-verify walk them in key order.
  uint64_t MutexKeyAt(uint64_t i) const { return mutex_keys_[i]; }
  double MutexSimAt(uint64_t i) const { return mutex_sims_[i]; }

  // -- Integrity -------------------------------------------------------------

  /// Deep structural validation (run by Open; exposed for snapshot-verify):
  /// CSR row monotonicity and bounds, per-row sortedness, rank slices being
  /// true score-ordered permutations, inverse/forward cross-consistency,
  /// string-table monotone offsets, mutex key order, name-sort permutations.
  /// Returns kDataLoss naming the first violated invariant.
  Status Validate() const;

 private:
  struct MappedFile;
  struct DeferredVerify;

  SnapshotReader();

  /// Reads the verified CNAM/INAM/NSRT bytes to adopt them as a names block.
  friend Result<SnapshotParts> PartsFromReader(
      const SnapshotReader& reader, std::shared_ptr<const SnapshotNames> names);

  static std::string_view Interned(const uint32_t* offsets, const char* blob,
                                   uint32_t i) {
    return std::string_view(blob + offsets[i], offsets[i + 1] - offsets[i]);
  }

  /// Points the typed members into data(); fails on framing damage. With
  /// `defer_section_checks` the per-section and whole-file CRCs are recorded
  /// into deferred_ instead of being checked here.
  Status Map(bool defer_section_checks);

  /// Start of the file bytes: the mapping when mmap-backed, else buffer_.
  const char* data() const;

  /// The whole file, 8-byte aligned (kRead / OpenFromBuffer only).
  std::vector<uint64_t> buffer_;
  /// Live mapping + kept fd (kMmap only).
  std::unique_ptr<MappedFile> mapped_;
  /// Per-section deferred-CRC bookkeeping (kMmap only).
  std::unique_ptr<DeferredVerify> deferred_;
  uint64_t file_bytes_ = 0;

  uint32_t num_concepts_ = 0;
  uint32_t num_instances_ = 0;
  uint64_t num_pairs_ = 0;
  uint64_t num_mutex_ = 0;

  const uint32_t* concept_name_offsets_ = nullptr;
  const char* concept_name_blob_ = nullptr;
  uint64_t concept_blob_bytes_ = 0;
  const uint32_t* instance_name_offsets_ = nullptr;
  const char* instance_name_blob_ = nullptr;
  uint64_t instance_blob_bytes_ = 0;

  const uint64_t* fwd_rows_ = nullptr;
  const uint32_t* fwd_instance_ = nullptr;
  const uint32_t* rank_ = nullptr;
  const double* score_ = nullptr;
  const uint32_t* support_ = nullptr;
  const uint32_t* iter1_ = nullptr;

  const uint64_t* inv_rows_ = nullptr;
  const uint32_t* inv_concept_ = nullptr;
  const uint32_t* inv_pair_ = nullptr;

  const uint8_t* concept_flags_ = nullptr;

  double mutex_threshold_ = 0.0;
  double similar_threshold_ = 0.0;
  const uint64_t* mutex_keys_ = nullptr;
  const double* mutex_sims_ = nullptr;

  const uint32_t* concept_by_name_ = nullptr;
  const uint32_t* instance_by_name_ = nullptr;
};

/// Recovers the parts from a reader — the base state a SnapshotDelta is
/// applied to. Runs EnsureSections(kSnapSecAll) first and fails with its
/// error, so a deferred-verify (kMmap) reader's bytes are CRC-checked before
/// any of them is copied and later framed under fresh CRCs. The names block
/// is adopted verbatim from the verified CNAM/INAM/NSRT bytes; when `names`
/// is given and byte-identical to them it is shared instead of copied (a
/// generation chain keeps one block).
Result<SnapshotParts> PartsFromReader(
    const SnapshotReader& reader, std::shared_ptr<const SnapshotNames> names = nullptr);

}  // namespace semdrift

#endif  // SEMDRIFT_SERVE_SNAPSHOT_H_

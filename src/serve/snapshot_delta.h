#ifndef SEMDRIFT_SERVE_SNAPSHOT_DELTA_H_
#define SEMDRIFT_SERVE_SNAPSHOT_DELTA_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/snapshot.h"
#include "util/status.h"

namespace semdrift {

/// A delta between two serving snapshots over the same world: the edits that
/// turn generation N's primary arrays into generation N+1's. Published as a
/// framed text file (util/framed_file, tag "sddelta", v2 — the CRC32 footer
/// is mandatory), so a torn publish loses the footer and a bit flip breaks
/// the checksum before a single record is trusted.
///
/// File layout (TAB-separated; records strictly sorted within each kind):
///
///   sddelta<TAB>v2
///   base<TAB><generation><TAB><image crc32>     binding to the exact base
///   gen<TAB><generation>                        must be base + 1
///   counts<TAB><nc><TAB><ni>                    world shape (never changes)
///   thresholds<TAB><mutex_t><TAB><similar_t>    %.17g, exact round-trip
///   records<TAB><n>                             total record count
///   P+<TAB><c><TAB><e><TAB><score><TAB><support><TAB><iter1>   pair upsert
///   P-<TAB><c><TAB><e>                          pair remove (must exist)
///   F<TAB><c><TAB><flags>                       concept flags overwrite
///   M+<TAB><key><TAB><sim>                      mutex-entry upsert
///   M-<TAB><key>                                mutex-entry remove
///   #crc32<TAB><hex>
///
/// The base binding is (generation, whole-image CRC32): applying a delta to
/// any snapshot other than the exact image it was diffed against is refused
/// up front, which is what turns "delta references the wrong base" from
/// silent drift into a quarantined publish.
struct SnapshotDelta {
  struct PairUpsert {
    uint32_t concept_id = 0;
    uint32_t instance = 0;
    double score = 0.0;
    uint32_t support = 0;
    uint32_t iter1 = 0;
  };
  struct FlagSet {
    uint32_t concept_id = 0;
    uint8_t flags = 0;
  };
  struct MutexUpsert {
    uint64_t key = 0;
    double sim = 0.0;
  };

  uint64_t base_generation = 0;
  /// CRC32 of the full base image bytes (the strongest practical binding).
  uint32_t base_crc32 = 0;
  /// The generation this delta materializes; always base_generation + 1.
  uint64_t generation = 0;
  uint32_t num_concepts = 0;
  uint32_t num_instances = 0;
  double mutex_threshold = 0.0;
  double similar_threshold = 0.0;

  /// Sorted by (concept, instance); inserts a pair or replaces its columns.
  std::vector<PairUpsert> pair_upserts;
  /// Sorted by (concept, instance); every entry must exist in the base.
  std::vector<std::pair<uint32_t, uint32_t>> pair_removes;
  /// Sorted by concept; overwrites the concept's flag byte.
  std::vector<FlagSet> flag_sets;
  /// Sorted by key; inserts an entry or replaces its similarity.
  std::vector<MutexUpsert> mutex_upserts;
  /// Sorted by key; every entry must exist in the base.
  std::vector<uint64_t> mutex_removes;

  size_t num_records() const {
    return pair_upserts.size() + pair_removes.size() + flag_sets.size() +
           mutex_upserts.size() + mutex_removes.size();
  }
};

/// Diffs two parts over the same world (one shared names block or two
/// byte-identical ones; kInvalidArgument otherwise). The returned delta has
/// counts and thresholds filled in; the caller sets the generation/CRC
/// binding before writing.
Result<SnapshotDelta> DiffSnapshotParts(const SnapshotParts& base,
                                        const SnapshotParts& next);

/// Writes the delta via FramedWriter, temp-and-rename.
Status WriteSnapshotDeltaFile(const SnapshotDelta& delta, const std::string& path);

/// Strict load: framing damage (truncation, checksum mismatch), malformed
/// records, out-of-range ids, unsorted records, a generation that is not
/// base + 1, or conflicting upsert/remove of the same key all fail with
/// kDataLoss. A delta that loads is internally consistent; whether it
/// matches a particular base is MaterializeSnapshotDelta's check.
Result<SnapshotDelta> LoadSnapshotDelta(const std::string& path);

/// Applies the delta's edits to `parts` in place; the names block is carried
/// unchanged, since a delta cannot rename. Fails (kDataLoss) when the
/// delta disagrees with the base's shape or removes something absent — the
/// signature of a wrong-base application that slipped past the CRC binding.
Status ApplySnapshotDelta(const SnapshotDelta& delta, SnapshotParts* parts);

/// The full applier: checks the (generation, CRC) base binding, applies to a
/// copy of `base_parts` (sharing its names block), and rebuilds the framed
/// image — which the caller then opens with SnapshotReader::OpenFromBuffer,
/// re-running the deep structural Validate() before anything is served.
Result<std::string> MaterializeSnapshotDelta(const SnapshotDelta& delta,
                                             const SnapshotParts& base_parts,
                                             uint64_t base_generation,
                                             uint32_t base_crc32);

}  // namespace semdrift

#endif  // SEMDRIFT_SERVE_SNAPSHOT_DELTA_H_

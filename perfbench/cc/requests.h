// Seeded request lines for the serving workloads. Keys are drawn
// Zipf-skewed over a snapshot's own names; verbs follow a fixed mix. The mix
// is an assumption: no real traffic log exists for this system.
#ifndef PERFBENCH_REQUESTS_H_
#define PERFBENCH_REQUESTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/snapshot.h"
#include "util/rng.h"

namespace perfbench {

/// The names requests may mention: every concept with at least one live
/// pair, and per concept its live instances in snapshot order.
struct KeySpace {
  std::vector<std::string> concepts;
  std::vector<std::vector<std::string>> instances;  // Parallel to concepts.
  std::vector<std::string> all_instances;
};

KeySpace KeySpaceFromSnapshot(const semdrift::SnapshotReader& snapshot);

/// Verb shares (normalized on use) and key skew.
struct RequestMix {
  double is_a = 0.35;
  double drift_score = 0.25;
  double concepts_of = 0.20;
  double instances_of = 0.10;
  double mutex = 0.10;
  int top_k = 10;
  /// Zipf exponent over concepts and over a concept's instances.
  double zipf = 0.9;
  /// Share of is-a requests naming an instance drawn from the whole
  /// instance table, usually not a member (a "no" answer).
  double miss_share = 0.2;
};

/// Deterministic in (keys, mix, seed): the same seed yields the same lines.
/// Popularity order is a seeded permutation of the key space, so which
/// names are hot changes with the seed while the skew does not.
class RequestGenerator {
 public:
  RequestGenerator(const KeySpace* keys, RequestMix mix, uint64_t seed);

  std::string Next();
  std::vector<std::string> Take(size_t n);

 private:
  const std::string& PickConcept(size_t* index);
  const std::string& PickInstance(size_t concept_index);

  const KeySpace* keys_;
  RequestMix mix_;
  semdrift::Rng rng_;
  std::vector<double> verb_weights_;
  std::vector<size_t> concept_order_;
  semdrift::ZipfSampler concept_zipf_;
  std::vector<semdrift::ZipfSampler> instance_zipf_;
  std::vector<size_t> member_rotation_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REQUESTS_H_

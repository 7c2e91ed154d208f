#include "requests.h"

#include <algorithm>

namespace perfbench {

KeySpace KeySpaceFromSnapshot(const semdrift::SnapshotReader& snapshot) {
  KeySpace keys;
  for (uint32_t c = 0; c < snapshot.num_concepts(); ++c) {
    uint64_t begin = snapshot.ConceptBegin(c);
    uint64_t end = snapshot.ConceptEnd(c);
    if (begin == end) continue;
    keys.concepts.emplace_back(snapshot.ConceptName(c));
    std::vector<std::string> members;
    members.reserve(end - begin);
    for (uint64_t p = begin; p < end; ++p) {
      members.emplace_back(snapshot.InstanceName(snapshot.PairInstance(p)));
    }
    keys.instances.push_back(std::move(members));
  }
  for (uint32_t e = 0; e < snapshot.num_instances(); ++e) {
    keys.all_instances.emplace_back(snapshot.InstanceName(e));
  }
  return keys;
}

RequestGenerator::RequestGenerator(const KeySpace* keys, RequestMix mix,
                                   uint64_t seed)
    : keys_(keys),
      mix_(mix),
      rng_(seed),
      verb_weights_{mix.is_a, mix.drift_score, mix.concepts_of, mix.instances_of,
                    mix.mutex},
      concept_zipf_(std::max<size_t>(keys->concepts.size(), 1), mix.zipf) {
  concept_order_.resize(keys->concepts.size());
  for (size_t i = 0; i < concept_order_.size(); ++i) concept_order_[i] = i;
  rng_.Shuffle(&concept_order_);
  instance_zipf_.reserve(keys->instances.size());
  for (const auto& members : keys->instances) {
    instance_zipf_.emplace_back(std::max<size_t>(members.size(), 1), mix.zipf);
    member_rotation_.push_back(static_cast<size_t>(rng_.NextBounded(members.size())));
  }
}

const std::string& RequestGenerator::PickConcept(size_t* index) {
  *index = concept_order_[concept_zipf_.Sample(&rng_)];
  return keys_->concepts[*index];
}

const std::string& RequestGenerator::PickInstance(size_t concept_index) {
  const auto& members = keys_->instances[concept_index];
  // Rank r maps to a seeded rotation of the member list, so the hot member
  // differs per concept and per seed.
  size_t rank = instance_zipf_[concept_index].Sample(&rng_);
  return members[(rank + member_rotation_[concept_index]) % members.size()];
}

std::string RequestGenerator::Next() {
  size_t c = 0;
  switch (rng_.NextDiscrete(verb_weights_)) {
    case 0: {
      const std::string& concept_name = PickConcept(&c);
      if (rng_.NextBool(mix_.miss_share)) {
        const auto& all = keys_->all_instances;
        return "is-a\t" + all[rng_.NextBounded(all.size())] + "\t" + concept_name;
      }
      return "is-a\t" + PickInstance(c) + "\t" + concept_name;
    }
    case 1: {
      const std::string& concept_name = PickConcept(&c);
      return "drift-score\t" + PickInstance(c) + "\t" + concept_name;
    }
    case 2: {
      PickConcept(&c);
      return "concepts-of\t" + PickInstance(c);
    }
    case 3: {
      const std::string& concept_name = PickConcept(&c);
      return "instances-of\t" + concept_name + "\t" + std::to_string(mix_.top_k);
    }
    default: {
      size_t other = 0;
      const std::string& a = PickConcept(&c);
      const std::string& b = PickConcept(&other);
      return "mutex\t" + a + "\t" + b;
    }
  }
}

std::vector<std::string> RequestGenerator::Take(size_t n) {
  std::vector<std::string> lines;
  lines.reserve(n);
  for (size_t i = 0; i < n; ++i) lines.push_back(Next());
  return lines;
}

}  // namespace perfbench

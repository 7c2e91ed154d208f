#include "eval/experiment.h"

#include <algorithm>

#include "serve/snapshot_delta.h"
#include "util/crc32.h"
#include "util/fault_injection.h"

namespace semdrift {

ExperimentConfig PaperScaleConfig(double scale) {
  ExperimentConfig config;
  // The concept universe stays fixed while the sentence budget scales: what
  // drives drift is the *coverage ratio* (sentences per concept member),
  // which the paper's corpus keeps very thin (326M sentences over 13.5M
  // concepts). Shrinking both together would saturate coverage and suppress
  // drift.
  config.world.num_concepts = 240;
  config.world.named_concepts = PaperEvaluationConcepts();
  config.corpus.num_sentences = std::max(4000, static_cast<int>(120000 * scale));
  config.corpus.render_text = scale <= 0.3;  // Big corpora skip surface text.
  return config;
}

Experiment::Experiment(ExperimentConfig config, World world, Corpus corpus)
    : config_(std::move(config)), world_(std::move(world)), corpus_(std::move(corpus)) {
  truth_ = std::make_unique<GroundTruth>(&world_);
}

std::unique_ptr<Experiment> Experiment::Build(const ExperimentConfig& config) {
  Rng world_rng(config.seed);
  World world = GenerateWorld(config.world, &world_rng);
  Rng corpus_rng(config.seed ^ 0x5bd1e995ULL);
  Corpus corpus = GenerateCorpus(world, config.corpus, &corpus_rng);
  return std::unique_ptr<Experiment>(
      new Experiment(config, std::move(world), std::move(corpus)));
}

Result<std::unique_ptr<Experiment>> Experiment::BuildChecked(
    const ExperimentConfig& config) {
  if (Status s = ValidateWorldSpec(config.world); !s.ok()) return s;
  if (Status s = ValidateCorpusSpec(config.corpus); !s.ok()) return s;
  return Build(config);
}

KnowledgeBase Experiment::Extract(
    std::vector<IterationStats>* stats,
    const std::function<void(const IterationStats&, const KnowledgeBase&)>&
        on_iteration) const {
  KnowledgeBase kb;
  IterativeExtractor extractor(&corpus_.sentences, config_.extractor);
  std::vector<IterationStats> local = extractor.Run(&kb, on_iteration);
  if (stats != nullptr) *stats = std::move(local);
  return kb;
}

Result<KnowledgeBase> Experiment::ExtractWithCheckpoints(
    CheckpointConfig checkpoint, std::vector<IterationStats>* stats,
    const std::function<void(const IterationStats&, const KnowledgeBase&)>&
        on_iteration) const {
  checkpoint.num_concepts = world_.num_concepts();
  checkpoint.num_sentences = corpus_.sentences.size();
  KnowledgeBase kb;
  IterativeExtractor extractor(&corpus_.sentences, config_.extractor);
  auto local = RunWithCheckpoints(&extractor, &kb, checkpoint, on_iteration);
  if (!local.ok()) return local.status();
  if (stats != nullptr) *stats = std::move(*local);
  return kb;
}

Result<SupervisedRunResult> RunSupervisedPipeline(
    IterativeExtractor* extractor, const SentenceStore* sentences,
    VerifiedSource verified, size_t num_concepts, size_t num_sentences,
    const std::vector<ConceptId>& scope, const SupervisedRunConfig& config) {
  SupervisedRunResult result;
  Supervisor supervisor(config.supervisor, config.faults);

  const bool checkpointing = !config.checkpoint.dir.empty();
  CheckpointConfig ckpt = config.checkpoint;
  ckpt.num_concepts = num_concepts;
  ckpt.num_sentences = num_sentences;

  // Resume peek: a kClean-phase snapshot means extraction already finished —
  // restore the KB, the stats and the health report (quarantine state) here
  // and hand the round cursor to the cleaner. kExtract-phase snapshots are
  // left for RunWithCheckpoints, which owns mid-extraction resume.
  int resume_round = 0;
  bool extraction_done = false;
  if (checkpointing && ckpt.resume) {
    auto restored = LoadLatestValidCheckpoint(ckpt.dir, num_concepts, num_sentences);
    if (restored.ok()) {
      if (restored->state.phase == CheckpointPhase::kClean) {
        result.kb = std::move(restored->kb);
        result.stats = std::move(restored->state.stats);
        *supervisor.health() = restored->state.health;
        resume_round = restored->state.clean_round;
        extraction_done = true;
      }
    } else if (restored.status().code() != Status::Code::kNotFound) {
      return restored.status();
    }
  }

  if (!extraction_done) {
    if (checkpointing) {
      auto stats = RunWithCheckpoints(extractor, &result.kb, ckpt);
      if (!stats.ok()) return stats.status();
      result.stats = std::move(*stats);
    } else {
      result.stats = extractor->Run(&result.kb);
    }
  }

  if (config.clean) {
    DpCleaner cleaner(sentences, std::move(verified), num_concepts,
                      config.cleaner);
    SupervisedCleanHooks hooks;
    hooks.supervisor = &supervisor;
    hooks.first_round = resume_round + 1;
    if (checkpointing) {
      int last_iteration =
          result.stats.empty() ? 1 : result.stats.back().iteration;
      hooks.on_round = [&ckpt, &supervisor, &result,
                        last_iteration](int round, const KnowledgeBase& kb) {
        CheckpointState state;
        state.completed_iteration = std::max(1, last_iteration);
        state.stats = result.stats;
        state.records = kb.records();
        state.phase = CheckpointPhase::kClean;
        state.clean_round = round;
        state.health = *supervisor.health();
        Status s = WriteCheckpoint(ckpt.dir, state);
        if (!s.ok()) return s;
        if (ckpt.keep_last > 0) return PruneCheckpoints(ckpt.dir, ckpt.keep_last);
        return Status::OK();
      };
    }
    auto report = cleaner.CleanSupervised(&result.kb, scope, hooks);
    if (!report.ok()) return report.status();
    result.cleaning = std::move(*report);
  }

  result.health = *supervisor.health();
  return result;
}

Status WriteServingSnapshot(const KnowledgeBase& kb, const World& world,
                            size_t num_sentences, const RunHealthReport* health,
                            const std::string& path, const SnapshotOptions& options) {
  Status valid = kb.Validate(world.num_concepts(), num_sentences);
  if (!valid.ok()) return valid;
  return WriteSnapshot(kb, world, health, options, path);
}

Status WriteServingSnapshotDelta(const KnowledgeBase& kb, const World& world,
                                 size_t num_sentences, const RunHealthReport* health,
                                 const std::string& base_path,
                                 uint64_t base_generation, const std::string& path,
                                 const SnapshotOptions& options) {
  Status valid = kb.Validate(world.num_concepts(), num_sentences);
  if (!valid.ok()) return valid;
  // The base is read as raw bytes first: the delta's binding is the CRC32 of
  // the exact image on disk, not of any re-serialization.
  auto base_bytes = ReadFileToString(base_path);
  if (!base_bytes.ok()) return base_bytes.status();
  auto base_reader = SnapshotReader::OpenFromBuffer(*base_bytes, base_path);
  if (!base_reader.ok()) return base_reader.status();
  auto base_parts = PartsFromReader(*base_reader);
  if (!base_parts.ok()) return base_parts.status();
  const SnapshotParts next_parts = CompileSnapshotParts(kb, world, health, options);
  auto delta = DiffSnapshotParts(*base_parts, next_parts);
  if (!delta.ok()) return delta.status();
  delta->base_generation = base_generation;
  delta->base_crc32 = Crc32Of(*base_bytes);
  delta->generation = base_generation + 1;
  return WriteSnapshotDeltaFile(*delta, path);
}

VerifiedSource Experiment::MakeVerifiedSource() const {
  const World* world = &world_;
  return [world](const IsAPair& pair) {
    return world->IsVerified(pair.concept_id, pair.instance);
  };
}

Result<SupervisedRunResult> Experiment::RunSupervised(
    const std::vector<ConceptId>& scope, const SupervisedRunConfig& config) const {
  IterativeExtractor extractor(&corpus_.sentences, config_.extractor);
  return RunSupervisedPipeline(&extractor, &corpus_.sentences,
                               MakeVerifiedSource(), world_.num_concepts(),
                               corpus_.sentences.size(), scope, config);
}

std::vector<ConceptId> Experiment::EvalConcepts() const {
  std::vector<ConceptId> out;
  int n = std::min<int>(config_.num_eval_concepts,
                        static_cast<int>(world_.num_concepts()));
  for (int i = 0; i < n; ++i) out.push_back(ConceptId(static_cast<uint32_t>(i)));
  return out;
}

std::vector<ConceptId> Experiment::AllConcepts() const {
  std::vector<ConceptId> out;
  for (size_t i = 0; i < world_.num_concepts(); ++i) {
    out.push_back(ConceptId(static_cast<uint32_t>(i)));
  }
  return out;
}

}  // namespace semdrift

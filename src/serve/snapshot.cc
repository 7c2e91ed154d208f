#include "serve/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace semdrift {

namespace {

// -- Format constants --------------------------------------------------------

// "SDSNAP1\n" as a little-endian u64.
constexpr uint64_t kMagic = 0x0a3150414e534453ull;
// "SNAP" end marker after the file CRC.
constexpr uint32_t kEndMagic = 0x50414e53u;
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 48;
constexpr size_t kSectionEntryBytes = 24;
constexpr size_t kFooterBytes = 8;

constexpr uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

// Section order is fixed in version 1.
enum SectionIndex {
  kSecConceptNames = 0,
  kSecInstanceNames,
  kSecForwardCsr,
  kSecRank,
  kSecScores,
  kSecSupport,
  kSecInverseCsr,
  kSecConceptMeta,
  kSecMutex,
  kSecNameSort,
  kNumSections,
};

constexpr uint32_t kSectionTags[kNumSections] = {
    FourCc('C', 'N', 'A', 'M'), FourCc('I', 'N', 'A', 'M'),
    FourCc('F', 'C', 'S', 'R'), FourCc('R', 'A', 'N', 'K'),
    FourCc('S', 'C', 'O', 'R'), FourCc('S', 'U', 'P', 'P'),
    FourCc('I', 'C', 'S', 'R'), FourCc('C', 'M', 'E', 'T'),
    FourCc('M', 'U', 'T', 'X'), FourCc('N', 'S', 'R', 'T'),
};

// The public SnapshotSection bits must line up with the file's section order.
static_assert(kSnapSecConceptNames == 1u << kSecConceptNames &&
                  kSnapSecScores == 1u << kSecScores &&
                  kSnapSecMutex == 1u << kSecMutex &&
                  kSnapSecNameSort == 1u << kSecNameSort &&
                  kSnapSecAll == (1u << kNumSections) - 1,
              "SnapshotSection bits out of sync with SectionIndex");

/// Four-character section name for error messages ("SCOR", ...).
std::string SectionName(int i) {
  const uint32_t tag = kSectionTags[i];
  std::string name(4, '\0');
  for (int b = 0; b < 4; ++b) name[b] = static_cast<char>((tag >> (8 * b)) & 0xff);
  return name;
}

// -- Little-endian store/read helpers ---------------------------------------

/// Stores `v` at `p` little-endian and returns the end of the store.
char* Put(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return p + 4;
}

char* Put(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return p + 8;
}

char* Put(char* p, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return Put(p, bits);
}

template <typename T>
char* PutAll(char* p, const std::vector<T>& values) {
  for (const T& v : values) p = Put(p, v);
  return p;
}

uint32_t ReadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

uint64_t ReadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

uint64_t MutexKey(uint32_t a, uint32_t b) {
  uint32_t lo = a < b ? a : b;
  uint32_t hi = a < b ? b : a;
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

bool Finite(double v) { return v == v && v - v == 0.0; }

/// Interned name table: u32 offsets[n+1] into the blob, then the blob.
std::string BuildNameSection(const std::vector<std::string_view>& names) {
  size_t blob_bytes = 0;
  for (std::string_view name : names) blob_bytes += name.size();
  std::string payload(4 * (names.size() + 1) + blob_bytes, '\0');
  char* offsets = payload.data();
  char* blob = offsets + 4 * (names.size() + 1);
  uint32_t offset = 0;
  for (std::string_view name : names) {
    offsets = Put(offsets, offset);
    blob = std::copy(name.begin(), name.end(), blob);
    offset += static_cast<uint32_t>(name.size());
  }
  Put(offsets, offset);
  return payload;
}

/// Stores the name-sorted permutation of `names` (ties by id) at `out` and
/// returns its end. Most comparisons are settled by one integer: the
/// zero-padded big-endian 8-byte prefix orders two names exactly as their
/// first eight bytes do, and only equal prefixes fall back to the full
/// names, then the ids.
char* PutNameSort(const std::vector<std::string_view>& names, char* out) {
  struct Key {
    uint64_t prefix;
    uint32_t id;
  };
  std::vector<Key> keys(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string_view name = names[i];
    uint64_t prefix = 0;
    for (size_t b = 0; b < 8; ++b) {
      const unsigned byte = b < name.size() ? static_cast<unsigned char>(name[b]) : 0u;
      prefix = (prefix << 8) | byte;
    }
    keys[i] = Key{prefix, static_cast<uint32_t>(i)};
  }
  std::sort(keys.begin(), keys.end(), [&](const Key& a, const Key& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    const int cmp = names[a.id].compare(names[b.id]);
    return cmp != 0 ? cmp < 0 : a.id < b.id;
  });
  for (const Key& key : keys) out = Put(out, key.id);
  return out;
}

}  // namespace

// -- Names block -------------------------------------------------------------

std::shared_ptr<const SnapshotNames> SnapshotNames::Build(
    const std::vector<std::string_view>& concept_names,
    const std::vector<std::string_view>& instance_names) {
  std::shared_ptr<SnapshotNames> names(new SnapshotNames());
  names->num_concepts_ = concept_names.size();
  names->num_instances_ = instance_names.size();
  names->concept_table_ = BuildNameSection(concept_names);
  names->instance_table_ = BuildNameSection(instance_names);
  names->name_sort_.resize(4 * (concept_names.size() + instance_names.size()));
  PutNameSort(instance_names, PutNameSort(concept_names, names->name_sort_.data()));
  return names;
}

bool SnapshotNames::SameAs(const SnapshotNames& other) const {
  return num_concepts_ == other.num_concepts_ &&
         num_instances_ == other.num_instances_ &&
         concept_table_ == other.concept_table_ &&
         instance_table_ == other.instance_table_ && name_sort_ == other.name_sort_;
}

// -- Writer ------------------------------------------------------------------

SnapshotParts CompileSnapshotParts(const KnowledgeBase& kb, const World& world,
                                   const RunHealthReport* health,
                                   const SnapshotOptions& options,
                                   std::shared_ptr<const SnapshotNames> names) {
  const size_t nc = world.num_concepts();
  const size_t ni = world.num_instances();
  ScopedSpan span(&GlobalTrace(), "snapshot.compile");
  span.AddTag("concepts", static_cast<uint64_t>(nc));
  span.AddTag("instances", static_cast<uint64_t>(ni));

  SnapshotParts parts;
  if (names == nullptr) {
    std::vector<std::string_view> concept_names(nc);
    for (size_t i = 0; i < nc; ++i) {
      concept_names[i] = world.ConceptName(ConceptId(static_cast<uint32_t>(i)));
    }
    std::vector<std::string_view> instance_names(ni);
    for (size_t i = 0; i < ni; ++i) {
      instance_names[i] = world.InstanceName(InstanceId(static_cast<uint32_t>(i)));
    }
    names = SnapshotNames::Build(concept_names, instance_names);
  }
  parts.names = std::move(names);

  // Score every concept over the final KB (checked: a non-converged walk
  // yields capped finite scores, never NaN in the score column). Fans out
  // over the global pool; concept order makes the result deterministic.
  std::vector<std::unordered_map<InstanceId, double>> scores =
      ParallelMap<std::unordered_map<InstanceId, double>>(nc, [&](size_t ci) {
        return ScoreConceptChecked(kb, ConceptId(static_cast<uint32_t>(ci)),
                                   options.model, options.walk)
            .scores;
      });

  // Forward CSR: live pairs per concept, restricted to world id spaces
  // (open-class discoveries are skipped, matching ExportTaxonomyTsv), rows
  // sorted by instance id.
  parts.fwd_rows.assign(nc + 1, 0);
  for (size_t ci = 0; ci < nc; ++ci) {
    ConceptId c(static_cast<uint32_t>(ci));
    std::vector<InstanceId> live = kb.LiveInstancesOf(c);
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](InstanceId e) { return e.value >= ni; }),
               live.end());
    std::sort(live.begin(), live.end());
    for (InstanceId e : live) {
      IsAPair pair{c, e};
      parts.fwd_instance.push_back(e.value);
      auto it = scores[ci].find(e);
      parts.score.push_back(it == scores[ci].end() ? 0.0 : it->second);
      parts.support.push_back(static_cast<uint32_t>(kb.Count(pair)));
      parts.iter1.push_back(static_cast<uint32_t>(kb.Iter1Count(pair)));
    }
    parts.fwd_rows[ci + 1] = parts.fwd_instance.size();
  }

  // Concept metadata + the sparse mutex table. The effective-similarity
  // replication below mirrors MutexIndex::EffectiveSim exactly (closure max
  // over each side's highly-similar partners, not the cross product).
  MutexIndex midx(kb, nc, options.mutex);
  parts.flags.assign(nc, 0);
  std::vector<uint32_t> usable;
  for (size_t ci = 0; ci < nc; ++ci) {
    ConceptId c(static_cast<uint32_t>(ci));
    if (health != nullptr && health->IsQuarantined(c.value)) parts.flags[ci] |= 1u;
    if (midx.Usable(c)) {
      parts.flags[ci] |= 2u;
      usable.push_back(c.value);
    }
  }
  struct MutexEntry {
    uint64_t key;
    double sim;
  };
  std::vector<std::vector<MutexEntry>> mutex_rows =
      ParallelMap<std::vector<MutexEntry>>(usable.size(), [&](size_t i) {
        std::vector<MutexEntry> row;
        ConceptId a(usable[i]);
        for (size_t j = i + 1; j < usable.size(); ++j) {
          ConceptId b(usable[j]);
          double eff = midx.Sim(a, b);
          for (ConceptId a2 : midx.SimilarConcepts(a)) {
            eff = std::max(eff, midx.Sim(a2, b));
          }
          for (ConceptId b2 : midx.SimilarConcepts(b)) {
            eff = std::max(eff, midx.Sim(a, b2));
          }
          if (eff > 0.0) row.push_back(MutexEntry{MutexKey(a.value, b.value), eff});
        }
        return row;
      });
  std::vector<MutexEntry> mutex_entries;
  for (const auto& row : mutex_rows) {
    mutex_entries.insert(mutex_entries.end(), row.begin(), row.end());
  }
  std::sort(mutex_entries.begin(), mutex_entries.end(),
            [](const MutexEntry& a, const MutexEntry& b) { return a.key < b.key; });
  parts.mutex_threshold = options.mutex.mutex_threshold;
  parts.similar_threshold = options.mutex.similar_threshold;
  for (const MutexEntry& e : mutex_entries) {
    parts.mutex_keys.push_back(e.key);
    parts.mutex_sims.push_back(e.sim);
  }
  return parts;
}

namespace {

/// Structural soundness of primary arrays — the gate in front of the image
/// builder, so a delta applied to the wrong base can never reach the
/// counting sorts below with out-of-range ids.
Status CheckParts(const SnapshotParts& parts) {
  if (parts.names == nullptr) {
    return Status::Internal("snapshot: parts carry no names block");
  }
  const size_t nc = parts.num_concepts();
  const size_t ni = parts.num_instances();
  const uint64_t np = parts.num_pairs();
  if (np > 0xffffffffull) {
    return Status::Internal("snapshot: pair count " + std::to_string(np) +
                            " exceeds the u32 pair-index space");
  }
  if (parts.fwd_rows.size() != nc + 1 || parts.fwd_rows[0] != 0 ||
      parts.fwd_rows[nc] != np) {
    return Status::Internal("snapshot: forward rows do not cover the pair array");
  }
  if (parts.score.size() != np || parts.support.size() != np ||
      parts.iter1.size() != np || parts.flags.size() != nc) {
    return Status::Internal("snapshot: column lengths disagree with pair count");
  }
  for (size_t c = 0; c < nc; ++c) {
    if (parts.fwd_rows[c + 1] < parts.fwd_rows[c]) {
      return Status::Internal("snapshot: forward rows not monotone at concept " +
                              std::to_string(c));
    }
    for (uint64_t j = parts.fwd_rows[c]; j < parts.fwd_rows[c + 1]; ++j) {
      if (parts.fwd_instance[j] >= ni) {
        return Status::Internal("snapshot: pair references instance out of range");
      }
      if (j > parts.fwd_rows[c] && parts.fwd_instance[j] <= parts.fwd_instance[j - 1]) {
        return Status::Internal("snapshot: row of concept " + std::to_string(c) +
                                " not strictly sorted by instance");
      }
    }
  }
  for (double s : parts.score) {
    if (!Finite(s)) return Status::Internal("snapshot: non-finite score column");
  }
  if (parts.mutex_keys.size() != parts.mutex_sims.size()) {
    return Status::Internal("snapshot: mutex key/sim columns disagree");
  }
  for (size_t i = 0; i < parts.mutex_keys.size(); ++i) {
    uint32_t lo = static_cast<uint32_t>(parts.mutex_keys[i] >> 32);
    uint32_t hi = static_cast<uint32_t>(parts.mutex_keys[i] & 0xffffffffu);
    if (lo >= hi || hi >= nc) {
      return Status::Internal("snapshot: mutex key out of range");
    }
    if (i > 0 && parts.mutex_keys[i] <= parts.mutex_keys[i - 1]) {
      return Status::Internal("snapshot: mutex keys not strictly sorted");
    }
    if (!Finite(parts.mutex_sims[i]) || parts.mutex_sims[i] < 0.0) {
      return Status::Internal("snapshot: mutex similarity invalid");
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::string> BuildSnapshotImage(const SnapshotParts& parts) {
  Status sound = CheckParts(parts);
  if (!sound.ok()) return sound;
  const SnapshotNames& names = *parts.names;
  const size_t nc = parts.num_concepts();
  const size_t ni = parts.num_instances();
  const uint64_t np = parts.num_pairs();
  const uint64_t nm = parts.mutex_keys.size();

  // Every payload size follows from the counts, so the file is laid out
  // first and each section is encoded in place.
  const uint64_t sizes[kNumSections] = {
      names.concept_table().size(), names.instance_table().size(),
      8 * (nc + 1) + 4 * np,        4 * np,
      8 * np,                       8 * np,
      8 * (ni + 1) + 8 * np,        nc,
      24 + 16 * nm,                 names.name_sort().size()};
  uint64_t offsets[kNumSections];
  uint64_t cursor = kHeaderBytes + kNumSections * kSectionEntryBytes + 8;
  for (int i = 0; i < kNumSections; ++i) {
    offsets[i] = cursor;
    cursor = Align8(cursor + sizes[i]);
  }
  const uint64_t total_bytes = cursor + kFooterBytes;
  std::string file(total_bytes, '\0');  // Zero padding between sections.
  auto section = [&](int i) { return file.data() + offsets[i]; };

  // The world-constant sections come verbatim from the names block.
  std::copy(names.concept_table().begin(), names.concept_table().end(),
            section(kSecConceptNames));
  std::copy(names.instance_table().begin(), names.instance_table().end(),
            section(kSecInstanceNames));
  std::copy(names.name_sort().begin(), names.name_sort().end(), section(kSecNameSort));

  PutAll(PutAll(section(kSecForwardCsr), parts.fwd_rows), parts.fwd_instance);

  // Rank slices: each concept's pairs re-ordered by (score desc, id asc).
  {
    char* out = section(kSecRank);
    std::vector<uint32_t> order;
    for (size_t ci = 0; ci < nc; ++ci) {
      const uint64_t base = parts.fwd_rows[ci];
      order.resize(parts.fwd_rows[ci + 1] - base);
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<uint32_t>(base + i);
      }
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (parts.score[a] != parts.score[b]) return parts.score[a] > parts.score[b];
        return parts.fwd_instance[a] < parts.fwd_instance[b];
      });
      out = PutAll(out, order);
    }
  }

  PutAll(section(kSecScores), parts.score);
  PutAll(PutAll(section(kSecSupport), parts.support), parts.iter1);

  // Inverse CSR by counting sort; iterating forward pairs in (concept asc,
  // instance asc) order makes every inverse row concept-sorted for free.
  {
    std::vector<uint64_t> inv_rows(ni + 1, 0);
    for (uint32_t e : parts.fwd_instance) inv_rows[e + 1]++;
    for (size_t i = 1; i <= ni; ++i) inv_rows[i] += inv_rows[i - 1];
    char* inv_concept = PutAll(section(kSecInverseCsr), inv_rows);
    char* inv_pair = inv_concept + 4 * np;
    // From here inv_rows[e] is the next free slot of instance e's row.
    for (size_t ci = 0; ci < nc; ++ci) {
      for (uint64_t j = parts.fwd_rows[ci]; j < parts.fwd_rows[ci + 1]; ++j) {
        const uint64_t slot = inv_rows[parts.fwd_instance[j]]++;
        Put(inv_concept + 4 * slot, static_cast<uint32_t>(ci));
        Put(inv_pair + 4 * slot, static_cast<uint32_t>(j));
      }
    }
  }

  std::copy(parts.flags.begin(), parts.flags.end(), section(kSecConceptMeta));
  {
    char* out = Put(section(kSecMutex), parts.mutex_threshold);
    out = Put(out, parts.similar_threshold);
    out = Put(out, nm);
    PutAll(PutAll(out, parts.mutex_keys), parts.mutex_sims);
  }

  // -- Frame: header, section table, footer ---------------------------------

  char* header = file.data();
  char* out = Put(header, kMagic);
  out = Put(out, kVersion);
  out = Put(out, static_cast<uint32_t>(kNumSections));
  out = Put(out, total_bytes);
  out = Put(out, static_cast<uint32_t>(nc));
  out = Put(out, static_cast<uint32_t>(ni));
  out = Put(out, np);
  Put(out, Crc32Of(std::string_view(header, static_cast<size_t>(out - header))));

  char* table = file.data() + kHeaderBytes;
  out = table;
  for (int i = 0; i < kNumSections; ++i) {
    out = Put(out, kSectionTags[i]);
    out = Put(out, Crc32Of(std::string_view(section(i), static_cast<size_t>(sizes[i]))));
    out = Put(out, offsets[i]);
    out = Put(out, sizes[i]);
  }
  Put(out, Crc32Of(std::string_view(table, kNumSections * kSectionEntryBytes)));

  const size_t checked = static_cast<size_t>(total_bytes - kFooterBytes);
  Put(Put(file.data() + checked, Crc32Of(std::string_view(file.data(), checked))),
      kEndMagic);
  return file;
}

Status PublishSnapshotImage(const std::string& image, const std::string& path) {
  // Temp-and-rename, same as checkpoints: a torn write can only leave a
  // `.snap-tmp` carcass, never a partial file under the final name.
  std::string tmp = path + ".snap-tmp";
  Status written = WriteStringToFile(image, tmp);
  if (!written.ok()) return written;
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot rename " + tmp + " to " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Status WriteSnapshot(const KnowledgeBase& kb, const World& world,
                     const RunHealthReport* health, const SnapshotOptions& options,
                     const std::string& path) {
  SnapshotParts parts = CompileSnapshotParts(kb, world, health, options);
  auto image = BuildSnapshotImage(parts);
  if (!image.ok()) return image.status();
  return PublishSnapshotImage(*image, path);
}

// -- Reader ------------------------------------------------------------------

/// An mmap'ed snapshot file. The fd is kept open for the lifetime of the
/// mapping so EnsureSections can re-stat it (truncation detection).
struct SnapshotReader::MappedFile {
  void* base = nullptr;
  size_t length = 0;
  int fd = -1;
  std::string path;

  ~MappedFile() {
    if (base != nullptr) ::munmap(base, length);
    if (fd >= 0) ::close(fd);
  }
};

/// Deferred per-section CRC state. `verified` is a bitmask of sections whose
/// CRC has been checked; the slow path serializes on `mu` so each section is
/// hashed at most once. A failure is sticky (`failed` + `first_error`).
struct SnapshotReader::DeferredVerify {
  std::mutex mu;
  std::atomic<uint32_t> verified{0};
  /// Sections whose CRC check failed. Sticky per section: a corrupt MUTX
  /// payload keeps failing mutex queries while every other section serves.
  std::atomic<uint32_t> failed_sections{0};
  /// Whole-mapping failure (stat error, file resized under the map): the
  /// entire reader is compromised, every EnsureSections call fails.
  std::atomic<bool> failed{false};
  Status first_error;  // Guarded by mu.
  uint64_t offsets[kNumSections] = {};
  uint64_t sizes[kNumSections] = {};
  uint32_t crcs[kNumSections] = {};
};

SnapshotReader::SnapshotReader() = default;
SnapshotReader::~SnapshotReader() = default;
SnapshotReader::SnapshotReader(SnapshotReader&&) noexcept = default;
SnapshotReader& SnapshotReader::operator=(SnapshotReader&&) noexcept = default;

const char* SnapshotReader::data() const {
  return mapped_ != nullptr ? static_cast<const char*>(mapped_->base)
                            : reinterpret_cast<const char*>(buffer_.data());
}

Result<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  return Open(path, SnapshotOpenOptions{});
}

Result<SnapshotReader> SnapshotReader::Open(const std::string& path,
                                            const SnapshotOpenOptions& options) {
  if (options.source == SnapshotSource::kRead) {
    auto content = ReadFileToString(path);
    if (!content.ok()) return content.status();
    return OpenFromBuffer(*content, path);
  }

  // kMmap. Hardened like ReadFileToString: only regular files are mapped (a
  // directory, FIFO or device node has no meaningful mmap semantics), and
  // the fd is retained so EnsureSections can detect the file being resized
  // under the mapping.
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    Status err = Status::IOError("cannot stat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::DataLoss(path + ": not a regular file (refusing to mmap)");
  }
  if (st.st_size <= 0) {
    ::close(fd);
    return Status::DataLoss("snapshot " + path + ": file too small (0 bytes)");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (base == MAP_FAILED) {
    Status err = Status::IOError("cannot mmap " + path + ": " + std::strerror(errno));
    ::close(fd);
    return err;
  }

  SnapshotReader reader;
  reader.mapped_ = std::make_unique<MappedFile>();
  reader.mapped_->base = base;
  reader.mapped_->length = size;
  reader.mapped_->fd = fd;
  reader.mapped_->path = path;
  reader.file_bytes_ = size;
  reader.deferred_ = std::make_unique<DeferredVerify>();
  Status mapped = reader.Map(/*defer_section_checks=*/!options.eager_verify);
  if (!mapped.ok()) {
    return Status::DataLoss("snapshot " + path + ": " + mapped.message());
  }
  if (options.eager_verify) {
    reader.deferred_->verified.store(kSnapSecAll, std::memory_order_release);
    Status valid = reader.Validate();
    if (!valid.ok()) {
      return Status::DataLoss("snapshot " + path + ": " + valid.message());
    }
  }
  return reader;
}

Result<SnapshotReader> SnapshotReader::OpenFromBuffer(std::string_view content,
                                                      const std::string& label) {
  SnapshotReader reader;
  reader.file_bytes_ = content.size();
  reader.buffer_.assign((content.size() + 7) / 8, 0);
  std::memcpy(reader.buffer_.data(), content.data(), content.size());
  Status mapped = reader.Map(/*defer_section_checks=*/false);
  if (!mapped.ok()) {
    return Status::DataLoss("snapshot " + label + ": " + mapped.message());
  }
  Status valid = reader.Validate();
  if (!valid.ok()) {
    return Status::DataLoss("snapshot " + label + ": " + valid.message());
  }
  return reader;
}

Status SnapshotReader::EnsureSections(uint32_t mask) const {
  if (deferred_ == nullptr) return Status::OK();
  mask &= kSnapSecAll;
  DeferredVerify& d = *deferred_;
  if (d.failed.load(std::memory_order_acquire) ||
      (d.failed_sections.load(std::memory_order_acquire) & mask) != 0) {
    std::lock_guard<std::mutex> lock(d.mu);
    return d.first_error;
  }
  if ((d.verified.load(std::memory_order_acquire) & mask) == mask) {
    return Status::OK();
  }

  std::lock_guard<std::mutex> lock(d.mu);
  if (d.failed.load(std::memory_order_relaxed) ||
      (d.failed_sections.load(std::memory_order_relaxed) & mask) != 0) {
    return d.first_error;
  }
  uint32_t done = d.verified.load(std::memory_order_relaxed);
  if ((done & mask) == mask) return Status::OK();

  auto fail = [&](Status err) {
    d.first_error = err;
    d.failed.store(true, std::memory_order_release);
    return err;
  };

  // ftruncate-under-map detection: a shrunk file turns reads of the mapped
  // tail into SIGBUS, so re-stat before touching any payload byte.
  struct stat st {};
  if (::fstat(mapped_->fd, &st) != 0) {
    return fail(Status::IOError("cannot stat " + mapped_->path + ": " +
                                std::strerror(errno)));
  }
  if (static_cast<uint64_t>(st.st_size) != file_bytes_) {
    return fail(Status::DataLoss(
        mapped_->path + ": file resized from " + std::to_string(file_bytes_) +
        " to " + std::to_string(st.st_size) + " bytes under the mapping"));
  }

  const char* base = data();
  for (int i = 0; i < kNumSections; ++i) {
    const uint32_t bit = 1u << i;
    if ((mask & bit) == 0 || (done & bit) != 0) continue;
    if (d.crcs[i] != Crc32Of(std::string_view(base + d.offsets[i],
                                              static_cast<size_t>(d.sizes[i])))) {
      // Sticky for this section only: queries touching it keep failing with
      // the same error, while untouched sections stay servable.
      Status err = Status::DataLoss(
          mapped_->path + ": section " + SectionName(i) +
          " checksum mismatch at byte offset " + std::to_string(d.offsets[i]));
      if (d.first_error.ok()) d.first_error = err;
      d.failed_sections.fetch_or(bit, std::memory_order_release);
      return err;
    }
    done |= bit;
    d.verified.store(done, std::memory_order_release);
  }
  return Status::OK();
}

uint32_t SnapshotReader::VerifiedSections() const {
  return deferred_ == nullptr ? static_cast<uint32_t>(kSnapSecAll)
                              : deferred_->verified.load(std::memory_order_acquire);
}

Status SnapshotReader::Map(bool defer_section_checks) {
  const char* base = data();
  const uint64_t size = file_bytes_;
  const size_t table_bytes = kNumSections * kSectionEntryBytes;
  if (size < kHeaderBytes + table_bytes + 8 + kFooterBytes) {
    return Status::DataLoss("file too small (" + std::to_string(size) + " bytes)");
  }
  if (ReadU64(base) != kMagic) return Status::DataLoss("bad magic");
  const uint32_t version = ReadU32(base + 8);
  if (version != kVersion) {
    return Status::DataLoss("unsupported version " + std::to_string(version));
  }
  if (ReadU32(base + 12) != kNumSections) {
    return Status::DataLoss("unexpected section count");
  }
  if (ReadU64(base + 16) != size) {
    return Status::DataLoss("declared size " + std::to_string(ReadU64(base + 16)) +
                            " != actual " + std::to_string(size) +
                            " (torn write?)");
  }
  num_concepts_ = ReadU32(base + 24);
  num_instances_ = ReadU32(base + 28);
  num_pairs_ = ReadU64(base + 32);
  if (ReadU32(base + 40) != Crc32Of(std::string_view(base, 40))) {
    return Status::DataLoss("header checksum mismatch");
  }
  // Whole-file CRC first: one check that covers padding and the table too.
  // Deferred (mmap) opens skip it — it would fault every page in, and the
  // header/table CRCs plus the per-section deferred CRCs cover every byte
  // that is ever read.
  if (!defer_section_checks &&
      ReadU32(base + size - 8) !=
          Crc32Of(std::string_view(base, static_cast<size_t>(size - 8)))) {
    return Status::DataLoss("file checksum mismatch");
  }
  if (ReadU32(base + size - 4) != kEndMagic) {
    return Status::DataLoss("missing end marker (torn write?)");
  }
  if (ReadU32(base + kHeaderBytes + table_bytes) !=
      Crc32Of(std::string_view(base + kHeaderBytes, table_bytes))) {
    return Status::DataLoss("section table checksum mismatch");
  }

  uint64_t offsets[kNumSections];
  uint64_t sizes[kNumSections];
  for (int i = 0; i < kNumSections; ++i) {
    const char* entry = base + kHeaderBytes + i * kSectionEntryBytes;
    if (ReadU32(entry) != kSectionTags[i]) {
      return Status::DataLoss("section " + std::to_string(i) + " has wrong tag");
    }
    offsets[i] = ReadU64(entry + 8);
    sizes[i] = ReadU64(entry + 16);
    if (offsets[i] % 8 != 0 || offsets[i] > size - kFooterBytes ||
        sizes[i] > size - kFooterBytes - offsets[i]) {
      return Status::DataLoss("section " + std::to_string(i) +
                              " extends past the file");
    }
    if (defer_section_checks) {
      deferred_->offsets[i] = offsets[i];
      deferred_->sizes[i] = sizes[i];
      deferred_->crcs[i] = ReadU32(entry + 4);
    } else if (ReadU32(entry + 4) !=
               Crc32Of(std::string_view(base + offsets[i],
                                        static_cast<size_t>(sizes[i])))) {
      return Status::DataLoss("section " + std::to_string(i) +
                              " checksum mismatch");
    }
  }

  const uint64_t nc = num_concepts_;
  const uint64_t ni = num_instances_;
  const uint64_t np = num_pairs_;
  auto expect = [&](int sec, uint64_t want) -> Status {
    if (sizes[sec] != want) {
      return Status::DataLoss("section " + std::to_string(sec) + " size " +
                              std::to_string(sizes[sec]) + " != expected " +
                              std::to_string(want));
    }
    return Status::OK();
  };

  if (sizes[kSecConceptNames] < 4 * (nc + 1)) {
    return Status::DataLoss("concept name table shorter than its offset array");
  }
  concept_name_offsets_ =
      reinterpret_cast<const uint32_t*>(base + offsets[kSecConceptNames]);
  concept_name_blob_ =
      base + offsets[kSecConceptNames] + 4 * (nc + 1);
  concept_blob_bytes_ = sizes[kSecConceptNames] - 4 * (nc + 1);

  if (sizes[kSecInstanceNames] < 4 * (ni + 1)) {
    return Status::DataLoss("instance name table shorter than its offset array");
  }
  instance_name_offsets_ =
      reinterpret_cast<const uint32_t*>(base + offsets[kSecInstanceNames]);
  instance_name_blob_ = base + offsets[kSecInstanceNames] + 4 * (ni + 1);
  instance_blob_bytes_ = sizes[kSecInstanceNames] - 4 * (ni + 1);

  Status s = expect(kSecForwardCsr, 8 * (nc + 1) + 4 * np);
  if (!s.ok()) return s;
  fwd_rows_ = reinterpret_cast<const uint64_t*>(base + offsets[kSecForwardCsr]);
  fwd_instance_ = reinterpret_cast<const uint32_t*>(base + offsets[kSecForwardCsr] +
                                                    8 * (nc + 1));

  s = expect(kSecRank, 4 * np);
  if (!s.ok()) return s;
  rank_ = reinterpret_cast<const uint32_t*>(base + offsets[kSecRank]);

  s = expect(kSecScores, 8 * np);
  if (!s.ok()) return s;
  score_ = reinterpret_cast<const double*>(base + offsets[kSecScores]);

  s = expect(kSecSupport, 8 * np);
  if (!s.ok()) return s;
  support_ = reinterpret_cast<const uint32_t*>(base + offsets[kSecSupport]);
  iter1_ = reinterpret_cast<const uint32_t*>(base + offsets[kSecSupport] + 4 * np);

  s = expect(kSecInverseCsr, 8 * (ni + 1) + 8 * np);
  if (!s.ok()) return s;
  inv_rows_ = reinterpret_cast<const uint64_t*>(base + offsets[kSecInverseCsr]);
  inv_concept_ = reinterpret_cast<const uint32_t*>(base + offsets[kSecInverseCsr] +
                                                   8 * (ni + 1));
  inv_pair_ = reinterpret_cast<const uint32_t*>(base + offsets[kSecInverseCsr] +
                                                8 * (ni + 1) + 4 * np);

  s = expect(kSecConceptMeta, nc);
  if (!s.ok()) return s;
  concept_flags_ = reinterpret_cast<const uint8_t*>(base + offsets[kSecConceptMeta]);

  if (sizes[kSecMutex] < 24 || (sizes[kSecMutex] - 24) % 16 != 0) {
    return Status::DataLoss("mutex table has impossible size");
  }
  {
    const char* m = base + offsets[kSecMutex];
    uint64_t bits = ReadU64(m);
    std::memcpy(&mutex_threshold_, &bits, 8);
    bits = ReadU64(m + 8);
    std::memcpy(&similar_threshold_, &bits, 8);
    num_mutex_ = ReadU64(m + 16);
    if (num_mutex_ != (sizes[kSecMutex] - 24) / 16) {
      return Status::DataLoss("mutex table count disagrees with its size");
    }
    mutex_keys_ = reinterpret_cast<const uint64_t*>(m + 24);
    mutex_sims_ = reinterpret_cast<const double*>(m + 24 + 8 * num_mutex_);
  }

  s = expect(kSecNameSort, 4 * nc + 4 * ni);
  if (!s.ok()) return s;
  concept_by_name_ = reinterpret_cast<const uint32_t*>(base + offsets[kSecNameSort]);
  instance_by_name_ =
      reinterpret_cast<const uint32_t*>(base + offsets[kSecNameSort] + 4 * nc);
  return Status::OK();
}

Status SnapshotReader::Validate() const {
  const uint64_t nc = num_concepts_;
  const uint64_t ni = num_instances_;
  const uint64_t np = num_pairs_;

  // String tables: monotone offsets ending exactly at the blob size.
  auto check_names = [](const uint32_t* offsets, uint64_t n, uint64_t blob_bytes,
                        const char* what) -> Status {
    if (offsets[0] != 0) {
      return Status::DataLoss(std::string(what) + " name offsets do not start at 0");
    }
    for (uint64_t i = 0; i < n; ++i) {
      if (offsets[i + 1] < offsets[i]) {
        return Status::DataLoss(std::string(what) + " name offsets not monotone at " +
                                std::to_string(i));
      }
    }
    if (offsets[n] != blob_bytes) {
      return Status::DataLoss(std::string(what) + " name blob bounds mismatch");
    }
    return Status::OK();
  };
  Status s = check_names(concept_name_offsets_, nc, concept_blob_bytes_, "concept");
  if (!s.ok()) return s;
  s = check_names(instance_name_offsets_, ni, instance_blob_bytes_, "instance");
  if (!s.ok()) return s;

  // Forward CSR: monotone rows covering exactly np, instance ids in range
  // and strictly increasing within a row.
  if (fwd_rows_[0] != 0 || fwd_rows_[nc] != np) {
    return Status::DataLoss("forward CSR rows do not cover the pair array");
  }
  for (uint64_t c = 0; c < nc; ++c) {
    if (fwd_rows_[c + 1] < fwd_rows_[c]) {
      return Status::DataLoss("forward CSR rows not monotone at concept " +
                              std::to_string(c));
    }
    for (uint64_t j = fwd_rows_[c]; j < fwd_rows_[c + 1]; ++j) {
      if (fwd_instance_[j] >= ni) {
        return Status::DataLoss("pair " + std::to_string(j) +
                                " references instance out of range");
      }
      if (j > fwd_rows_[c] && fwd_instance_[j] <= fwd_instance_[j - 1]) {
        return Status::DataLoss("forward row of concept " + std::to_string(c) +
                                " not strictly sorted by instance");
      }
    }
  }

  // Score column must be finite (the writer stores checked scores).
  for (uint64_t j = 0; j < np; ++j) {
    double v = score_[j];
    if (!(v == v) || v - v != 0.0) {
      return Status::DataLoss("non-finite score at pair " + std::to_string(j));
    }
  }

  // Rank: each concept slice is a permutation of its row, ordered by
  // (score desc, instance asc).
  {
    std::vector<uint8_t> seen(np, 0);
    for (uint64_t c = 0; c < nc; ++c) {
      for (uint64_t j = fwd_rows_[c]; j < fwd_rows_[c + 1]; ++j) {
        uint32_t p = rank_[j];
        if (p < fwd_rows_[c] || p >= fwd_rows_[c + 1]) {
          return Status::DataLoss("rank entry escapes its concept row at " +
                                  std::to_string(j));
        }
        if (seen[p]) {
          return Status::DataLoss("rank entry duplicated at " + std::to_string(j));
        }
        seen[p] = 1;
        if (j > fwd_rows_[c]) {
          uint32_t prev = rank_[j - 1];
          if (score_[p] > score_[prev] ||
              (score_[p] == score_[prev] &&
               fwd_instance_[p] <= fwd_instance_[prev])) {
            return Status::DataLoss("rank order violated at " + std::to_string(j));
          }
        }
      }
    }
  }

  // Inverse CSR: monotone, in-range, concept-sorted rows whose entries agree
  // with the forward index pair for pair.
  if (inv_rows_[0] != 0 || inv_rows_[ni] != np) {
    return Status::DataLoss("inverse CSR rows do not cover the pair array");
  }
  {
    std::vector<uint8_t> seen(np, 0);
    for (uint64_t e = 0; e < ni; ++e) {
      if (inv_rows_[e + 1] < inv_rows_[e]) {
        return Status::DataLoss("inverse CSR rows not monotone at instance " +
                                std::to_string(e));
      }
      for (uint64_t i = inv_rows_[e]; i < inv_rows_[e + 1]; ++i) {
        uint32_t c = inv_concept_[i];
        uint32_t p = inv_pair_[i];
        if (c >= nc || p >= np) {
          return Status::DataLoss("inverse entry out of range at " +
                                  std::to_string(i));
        }
        if (seen[p]) {
          return Status::DataLoss("inverse entry reuses pair " + std::to_string(p));
        }
        seen[p] = 1;
        if (p < fwd_rows_[c] || p >= fwd_rows_[c + 1] || fwd_instance_[p] != e) {
          return Status::DataLoss("inverse entry disagrees with forward pair " +
                                  std::to_string(p));
        }
        if (i > inv_rows_[e] && inv_concept_[i] <= inv_concept_[i - 1]) {
          return Status::DataLoss("inverse row of instance " + std::to_string(e) +
                                  " not strictly sorted by concept");
        }
      }
    }
  }

  // Mutex table: strictly increasing keys of distinct in-range concepts,
  // finite non-negative similarities.
  for (uint64_t i = 0; i < num_mutex_; ++i) {
    uint32_t lo = static_cast<uint32_t>(mutex_keys_[i] >> 32);
    uint32_t hi = static_cast<uint32_t>(mutex_keys_[i] & 0xffffffffu);
    if (lo >= hi || hi >= nc) {
      return Status::DataLoss("mutex key out of range at " + std::to_string(i));
    }
    if (i > 0 && mutex_keys_[i] <= mutex_keys_[i - 1]) {
      return Status::DataLoss("mutex keys not strictly sorted at " +
                              std::to_string(i));
    }
    double v = mutex_sims_[i];
    if (!(v == v) || v - v != 0.0 || v < 0.0) {
      return Status::DataLoss("mutex similarity invalid at " + std::to_string(i));
    }
  }

  // Name-sort arrays: true permutations in non-descending name order.
  auto check_perm = [this](const uint32_t* perm, uint64_t n, bool concepts,
                           const char* what) -> Status {
    std::vector<uint8_t> seen(n, 0);
    for (uint64_t i = 0; i < n; ++i) {
      if (perm[i] >= n || seen[perm[i]]) {
        return Status::DataLoss(std::string(what) +
                                " name-sort array is not a permutation");
      }
      seen[perm[i]] = 1;
      if (i > 0) {
        std::string_view prev = concepts ? ConceptName(perm[i - 1])
                                         : InstanceName(perm[i - 1]);
        std::string_view cur =
            concepts ? ConceptName(perm[i]) : InstanceName(perm[i]);
        if (cur < prev) {
          return Status::DataLoss(std::string(what) +
                                  " name-sort array is out of order");
        }
      }
    }
    return Status::OK();
  };
  s = check_perm(concept_by_name_, nc, true, "concept");
  if (!s.ok()) return s;
  s = check_perm(instance_by_name_, ni, false, "instance");
  if (!s.ok()) return s;
  return Status::OK();
}

uint32_t SnapshotReader::FindConcept(std::string_view name) const {
  const uint32_t* begin = concept_by_name_;
  const uint32_t* end = begin + num_concepts_;
  const uint32_t* it = std::lower_bound(
      begin, end, name,
      [this](uint32_t id, std::string_view n) { return ConceptName(id) < n; });
  if (it == end || ConceptName(*it) != name) return kNoId;
  return *it;
}

uint32_t SnapshotReader::FindInstance(std::string_view name) const {
  const uint32_t* begin = instance_by_name_;
  const uint32_t* end = begin + num_instances_;
  const uint32_t* it = std::lower_bound(
      begin, end, name,
      [this](uint32_t id, std::string_view n) { return InstanceName(id) < n; });
  if (it == end || InstanceName(*it) != name) return kNoId;
  return *it;
}

uint64_t SnapshotReader::FindPair(uint32_t c, uint32_t e) const {
  const uint32_t* begin = fwd_instance_ + fwd_rows_[c];
  const uint32_t* end = fwd_instance_ + fwd_rows_[c + 1];
  const uint32_t* it = std::lower_bound(begin, end, e);
  if (it == end || *it != e) return kNoPair;
  return static_cast<uint64_t>(it - fwd_instance_);
}

double SnapshotReader::EffectiveSim(uint32_t a, uint32_t b) const {
  if (a == b) return 1.0;
  uint64_t key = MutexKey(a, b);
  const uint64_t* end = mutex_keys_ + num_mutex_;
  const uint64_t* it = std::lower_bound(mutex_keys_, end, key);
  if (it == end || *it != key) return 0.0;
  return mutex_sims_[it - mutex_keys_];
}

bool SnapshotReader::IsMutex(uint32_t a, uint32_t b) const {
  if (a == b || a >= num_concepts_ || b >= num_concepts_) return false;
  if (!MutexUsable(a) || !MutexUsable(b)) return false;
  return EffectiveSim(a, b) < mutex_threshold_;
}

Result<SnapshotParts> PartsFromReader(const SnapshotReader& reader,
                                      std::shared_ptr<const SnapshotNames> names) {
  // A deferred-verify reader has not CRC-checked its sections yet; copying
  // unverified bytes here would let BuildSnapshotImage frame them under
  // fresh, valid CRCs.
  Status verified = reader.EnsureSections(kSnapSecAll);
  if (!verified.ok()) return verified;
  SnapshotParts parts;
  const uint32_t nc = reader.num_concepts();
  const uint32_t ni = reader.num_instances();
  const uint64_t np = reader.num_pairs();
  const std::string_view concept_table(
      reinterpret_cast<const char*>(reader.concept_name_offsets_),
      static_cast<size_t>(4 * (uint64_t{nc} + 1) + reader.concept_blob_bytes_));
  const std::string_view instance_table(
      reinterpret_cast<const char*>(reader.instance_name_offsets_),
      static_cast<size_t>(4 * (uint64_t{ni} + 1) + reader.instance_blob_bytes_));
  const std::string_view name_sort(reinterpret_cast<const char*>(reader.concept_by_name_),
                                   static_cast<size_t>(4 * (uint64_t{nc} + ni)));
  if (names != nullptr && names->concept_table() == concept_table &&
      names->instance_table() == instance_table && names->name_sort() == name_sort) {
    parts.names = std::move(names);
  } else {
    std::shared_ptr<SnapshotNames> adopted(new SnapshotNames());
    adopted->num_concepts_ = nc;
    adopted->num_instances_ = ni;
    adopted->concept_table_ = concept_table;
    adopted->instance_table_ = instance_table;
    adopted->name_sort_ = name_sort;
    parts.names = std::move(adopted);
  }
  parts.fwd_rows.reserve(nc + 1);
  parts.fwd_rows.push_back(0);
  for (uint32_t c = 0; c < nc; ++c) parts.fwd_rows.push_back(reader.ConceptEnd(c));
  parts.fwd_instance.reserve(np);
  parts.score.reserve(np);
  parts.support.reserve(np);
  parts.iter1.reserve(np);
  for (uint64_t p = 0; p < np; ++p) {
    parts.fwd_instance.push_back(reader.PairInstance(p));
    parts.score.push_back(reader.PairScore(p));
    parts.support.push_back(reader.PairSupport(p));
    parts.iter1.push_back(reader.PairIter1(p));
  }
  parts.flags.reserve(nc);
  for (uint32_t c = 0; c < nc; ++c) {
    uint8_t f = 0;
    if (reader.ConceptQuarantined(c)) f |= 1u;
    if (reader.MutexUsable(c)) f |= 2u;
    parts.flags.push_back(f);
  }
  parts.mutex_threshold = reader.mutex_threshold();
  parts.similar_threshold = reader.similar_threshold();
  const uint64_t nm = reader.num_mutex_pairs();
  parts.mutex_keys.reserve(nm);
  parts.mutex_sims.reserve(nm);
  for (uint64_t i = 0; i < nm; ++i) {
    parts.mutex_keys.push_back(reader.MutexKeyAt(i));
    parts.mutex_sims.push_back(reader.MutexSimAt(i));
  }
  return parts;
}

}  // namespace semdrift

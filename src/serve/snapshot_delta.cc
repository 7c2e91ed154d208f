#include "serve/snapshot_delta.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <system_error>

#include "util/framed_file.h"
#include "util/string_util.h"

namespace semdrift {

namespace {

constexpr std::string_view kDeltaTag = "sddelta";
constexpr int kDeltaVersion = 2;

/// Bitwise double equality: a diff must notice 0.0 vs -0.0 (numerically
/// equal, byte-different), or the materialized image would not be
/// byte-identical to a direct write of the next generation.
bool BitsEq(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, 8);
  std::memcpy(&bb, &b, 8);
  return ba == bb;
}

bool Finite(double v) { return v == v && v - v == 0.0; }

std::string FormatDouble17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Status Malformed(const std::string& path, size_t line_number,
                 const std::string& why) {
  return Status::DataLoss("delta " + path + ":" + std::to_string(line_number) +
                          ": " + why);
}

}  // namespace

Result<SnapshotDelta> DiffSnapshotParts(const SnapshotParts& base,
                                        const SnapshotParts& next) {
  // One shared names block is the common case (a stream's consecutive
  // epochs); separately built blocks are compared byte for byte.
  const bool same_world =
      base.names == next.names || (base.names != nullptr && next.names != nullptr &&
                                   base.names->SameAs(*next.names));
  if (!same_world) {
    return Status::InvalidArgument(
        "snapshot delta: base and next snapshots describe different worlds");
  }
  const size_t nc = base.num_concepts();
  SnapshotDelta delta;
  delta.num_concepts = static_cast<uint32_t>(nc);
  delta.num_instances = static_cast<uint32_t>(base.num_instances());
  delta.mutex_threshold = next.mutex_threshold;
  delta.similar_threshold = next.similar_threshold;

  // Pair edits: merge-walk each concept's sorted rows.
  for (size_t c = 0; c < nc; ++c) {
    uint64_t i = base.fwd_rows[c];
    uint64_t j = next.fwd_rows[c];
    const uint64_t iend = base.fwd_rows[c + 1];
    const uint64_t jend = next.fwd_rows[c + 1];
    while (i < iend || j < jend) {
      const uint32_t be = i < iend ? base.fwd_instance[i] : 0xffffffffu;
      const uint32_t ne = j < jend ? next.fwd_instance[j] : 0xffffffffu;
      if (i < iend && (j >= jend || be < ne)) {
        delta.pair_removes.emplace_back(static_cast<uint32_t>(c), be);
        ++i;
      } else if (j < jend && (i >= iend || ne < be)) {
        delta.pair_upserts.push_back({static_cast<uint32_t>(c), ne, next.score[j],
                                      next.support[j], next.iter1[j]});
        ++j;
      } else {
        if (!BitsEq(base.score[i], next.score[j]) ||
            base.support[i] != next.support[j] || base.iter1[i] != next.iter1[j]) {
          delta.pair_upserts.push_back({static_cast<uint32_t>(c), ne, next.score[j],
                                        next.support[j], next.iter1[j]});
        }
        ++i;
        ++j;
      }
    }
  }

  for (size_t c = 0; c < nc; ++c) {
    if (base.flags[c] != next.flags[c]) {
      delta.flag_sets.push_back({static_cast<uint32_t>(c), next.flags[c]});
    }
  }

  // Mutex edits: merge-walk the sorted key columns.
  {
    size_t i = 0, j = 0;
    while (i < base.mutex_keys.size() || j < next.mutex_keys.size()) {
      const uint64_t bk =
          i < base.mutex_keys.size() ? base.mutex_keys[i] : ~0ull;
      const uint64_t nk =
          j < next.mutex_keys.size() ? next.mutex_keys[j] : ~0ull;
      if (i < base.mutex_keys.size() &&
          (j >= next.mutex_keys.size() || bk < nk)) {
        delta.mutex_removes.push_back(bk);
        ++i;
      } else if (j < next.mutex_keys.size() &&
                 (i >= base.mutex_keys.size() || nk < bk)) {
        delta.mutex_upserts.push_back({nk, next.mutex_sims[j]});
        ++j;
      } else {
        if (!BitsEq(base.mutex_sims[i], next.mutex_sims[j])) {
          delta.mutex_upserts.push_back({nk, next.mutex_sims[j]});
        }
        ++i;
        ++j;
      }
    }
  }
  return delta;
}

Status WriteSnapshotDeltaFile(const SnapshotDelta& delta, const std::string& path) {
  const std::string tmp = path + ".snap-tmp";
  FramedWriter writer(tmp, kDeltaTag, kDeltaVersion);
  writer.WriteLine("base\t" + std::to_string(delta.base_generation) + "\t" +
                   std::to_string(delta.base_crc32));
  writer.WriteLine("gen\t" + std::to_string(delta.generation));
  writer.WriteLine("counts\t" + std::to_string(delta.num_concepts) + "\t" +
                   std::to_string(delta.num_instances));
  writer.WriteLine("thresholds\t" + FormatDouble17(delta.mutex_threshold) + "\t" +
                   FormatDouble17(delta.similar_threshold));
  writer.WriteLine("records\t" + std::to_string(delta.num_records()));
  for (const SnapshotDelta::PairUpsert& u : delta.pair_upserts) {
    writer.WriteLine("P+\t" + std::to_string(u.concept_id) + "\t" +
                     std::to_string(u.instance) + "\t" + FormatDouble17(u.score) +
                     "\t" + std::to_string(u.support) + "\t" +
                     std::to_string(u.iter1));
  }
  for (const auto& r : delta.pair_removes) {
    writer.WriteLine("P-\t" + std::to_string(r.first) + "\t" +
                     std::to_string(r.second));
  }
  for (const SnapshotDelta::FlagSet& f : delta.flag_sets) {
    writer.WriteLine("F\t" + std::to_string(f.concept_id) + "\t" +
                     std::to_string(static_cast<unsigned>(f.flags)));
  }
  for (const SnapshotDelta::MutexUpsert& m : delta.mutex_upserts) {
    writer.WriteLine("M+\t" + std::to_string(m.key) + "\t" +
                     FormatDouble17(m.sim));
  }
  for (uint64_t k : delta.mutex_removes) {
    writer.WriteLine("M-\t" + std::to_string(k));
  }
  Status closed = writer.Close();
  if (!closed.ok()) return closed;
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot rename " + tmp + " to " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Result<SnapshotDelta> LoadSnapshotDelta(const std::string& path) {
  auto framed = ReadFramedFile(path, kDeltaTag, kDeltaVersion);
  if (!framed.ok()) {
    // Framing rejections (wrong tag, bad version line) are corruption from
    // the publish pipeline's point of view.
    if (framed.status().code() == Status::Code::kInvalidArgument) {
      return Status::DataLoss("delta " + path + ": " + framed.status().message());
    }
    return framed.status();
  }
  if (framed->version != kDeltaVersion) {
    return Status::DataLoss("delta " + path + ": unsupported version " +
                            std::to_string(framed->version));
  }
  if (framed->truncated) {
    return Status::DataLoss("delta " + path +
                            ": missing checksum footer (torn write?)");
  }
  if (!framed->checksum_present || !framed->checksum_ok) {
    return Status::DataLoss("delta " + path + ": checksum mismatch");
  }
  const std::vector<std::string>& lines = framed->lines;
  if (lines.size() < 5) {
    return Status::DataLoss("delta " + path + ": header incomplete");
  }
  auto line_no = [&](size_t i) { return framed->line_numbers[i]; };

  SnapshotDelta delta;
  uint64_t declared_records = 0;
  {
    std::vector<std::string> f = Split(lines[0], '\t');
    uint64_t crc = 0;
    if (f.size() != 3 || f[0] != "base" ||
        !ParseUint64(f[1], &delta.base_generation) || !ParseUint64(f[2], &crc) ||
        crc > 0xffffffffull) {
      return Malformed(path, line_no(0), "bad base line");
    }
    delta.base_crc32 = static_cast<uint32_t>(crc);
  }
  {
    std::vector<std::string> f = Split(lines[1], '\t');
    if (f.size() != 2 || f[0] != "gen" || !ParseUint64(f[1], &delta.generation)) {
      return Malformed(path, line_no(1), "bad gen line");
    }
    if (delta.generation != delta.base_generation + 1) {
      return Malformed(path, line_no(1),
                       "generation " + std::to_string(delta.generation) +
                           " is not base " + std::to_string(delta.base_generation) +
                           " + 1");
    }
  }
  {
    std::vector<std::string> f = Split(lines[2], '\t');
    uint64_t nc = 0, ni = 0;
    if (f.size() != 3 || f[0] != "counts" || !ParseUint64(f[1], &nc) ||
        !ParseUint64(f[2], &ni) || nc > 0xffffffffull || ni > 0xffffffffull) {
      return Malformed(path, line_no(2), "bad counts line");
    }
    delta.num_concepts = static_cast<uint32_t>(nc);
    delta.num_instances = static_cast<uint32_t>(ni);
  }
  {
    std::vector<std::string> f = Split(lines[3], '\t');
    if (f.size() != 3 || f[0] != "thresholds" ||
        !ParseDouble(f[1], &delta.mutex_threshold) ||
        !ParseDouble(f[2], &delta.similar_threshold) ||
        !Finite(delta.mutex_threshold) || !Finite(delta.similar_threshold)) {
      return Malformed(path, line_no(3), "bad thresholds line");
    }
  }
  {
    std::vector<std::string> f = Split(lines[4], '\t');
    if (f.size() != 2 || f[0] != "records" || !ParseUint64(f[1], &declared_records)) {
      return Malformed(path, line_no(4), "bad records line");
    }
  }

  for (size_t i = 5; i < lines.size(); ++i) {
    std::vector<std::string> f = Split(lines[i], '\t');
    if (f.empty()) return Malformed(path, line_no(i), "empty record");
    if (f[0] == "P+") {
      SnapshotDelta::PairUpsert u;
      uint64_t support = 0, iter1 = 0;
      uint64_t c = 0, e = 0;
      if (f.size() != 6 || !ParseUint64(f[1], &c) || !ParseUint64(f[2], &e) ||
          !ParseDouble(f[3], &u.score) || !ParseUint64(f[4], &support) ||
          !ParseUint64(f[5], &iter1) || c >= delta.num_concepts ||
          e >= delta.num_instances || !Finite(u.score) ||
          support > 0xffffffffull || iter1 > 0xffffffffull) {
        return Malformed(path, line_no(i), "bad pair upsert");
      }
      u.concept_id = static_cast<uint32_t>(c);
      u.instance = static_cast<uint32_t>(e);
      u.support = static_cast<uint32_t>(support);
      u.iter1 = static_cast<uint32_t>(iter1);
      delta.pair_upserts.push_back(u);
    } else if (f[0] == "P-") {
      uint64_t c = 0, e = 0;
      if (f.size() != 3 || !ParseUint64(f[1], &c) || !ParseUint64(f[2], &e) ||
          c >= delta.num_concepts || e >= delta.num_instances) {
        return Malformed(path, line_no(i), "bad pair remove");
      }
      delta.pair_removes.emplace_back(static_cast<uint32_t>(c),
                                      static_cast<uint32_t>(e));
    } else if (f[0] == "F") {
      uint64_t c = 0, flags = 0;
      if (f.size() != 3 || !ParseUint64(f[1], &c) || !ParseUint64(f[2], &flags) ||
          c >= delta.num_concepts || flags > 0xff) {
        return Malformed(path, line_no(i), "bad flag record");
      }
      delta.flag_sets.push_back(
          {static_cast<uint32_t>(c), static_cast<uint8_t>(flags)});
    } else if (f[0] == "M+") {
      SnapshotDelta::MutexUpsert m;
      if (f.size() != 3 || !ParseUint64(f[1], &m.key) ||
          !ParseDouble(f[2], &m.sim) || !Finite(m.sim) || m.sim < 0.0) {
        return Malformed(path, line_no(i), "bad mutex upsert");
      }
      const uint32_t lo = static_cast<uint32_t>(m.key >> 32);
      const uint32_t hi = static_cast<uint32_t>(m.key & 0xffffffffu);
      if (lo >= hi || hi >= delta.num_concepts) {
        return Malformed(path, line_no(i), "mutex upsert key out of range");
      }
      delta.mutex_upserts.push_back(m);
    } else if (f[0] == "M-") {
      uint64_t key = 0;
      if (f.size() != 2 || !ParseUint64(f[1], &key)) {
        return Malformed(path, line_no(i), "bad mutex remove");
      }
      const uint32_t lo = static_cast<uint32_t>(key >> 32);
      const uint32_t hi = static_cast<uint32_t>(key & 0xffffffffu);
      if (lo >= hi || hi >= delta.num_concepts) {
        return Malformed(path, line_no(i), "mutex remove key out of range");
      }
      delta.mutex_removes.push_back(key);
    } else {
      return Malformed(path, line_no(i), "unknown record kind '" + f[0] + "'");
    }
  }

  if (delta.num_records() != declared_records) {
    return Status::DataLoss("delta " + path + ": declared " +
                            std::to_string(declared_records) + " records, found " +
                            std::to_string(delta.num_records()));
  }

  // Per-kind strict ordering + cross-kind disjointness: a duplicated or
  // replayed record (kDuplicateLine) and an upsert/remove conflict are both
  // corruption, not policy.
  auto pair_key = [](uint32_t c, uint32_t e) {
    return (static_cast<uint64_t>(c) << 32) | e;
  };
  for (size_t i = 1; i < delta.pair_upserts.size(); ++i) {
    if (pair_key(delta.pair_upserts[i].concept_id, delta.pair_upserts[i].instance) <=
        pair_key(delta.pair_upserts[i - 1].concept_id,
                 delta.pair_upserts[i - 1].instance)) {
      return Status::DataLoss("delta " + path + ": pair upserts not strictly sorted");
    }
  }
  for (size_t i = 1; i < delta.pair_removes.size(); ++i) {
    if (pair_key(delta.pair_removes[i].first, delta.pair_removes[i].second) <=
        pair_key(delta.pair_removes[i - 1].first, delta.pair_removes[i - 1].second)) {
      return Status::DataLoss("delta " + path + ": pair removes not strictly sorted");
    }
  }
  for (size_t i = 1; i < delta.flag_sets.size(); ++i) {
    if (delta.flag_sets[i].concept_id <= delta.flag_sets[i - 1].concept_id) {
      return Status::DataLoss("delta " + path + ": flag records not strictly sorted");
    }
  }
  for (size_t i = 1; i < delta.mutex_upserts.size(); ++i) {
    if (delta.mutex_upserts[i].key <= delta.mutex_upserts[i - 1].key) {
      return Status::DataLoss("delta " + path + ": mutex upserts not strictly sorted");
    }
  }
  for (size_t i = 1; i < delta.mutex_removes.size(); ++i) {
    if (delta.mutex_removes[i] <= delta.mutex_removes[i - 1]) {
      return Status::DataLoss("delta " + path + ": mutex removes not strictly sorted");
    }
  }
  {
    size_t i = 0;
    for (const auto& r : delta.pair_removes) {
      while (i < delta.pair_upserts.size() &&
             pair_key(delta.pair_upserts[i].concept_id,
                      delta.pair_upserts[i].instance) < pair_key(r.first, r.second)) {
        ++i;
      }
      if (i < delta.pair_upserts.size() &&
          delta.pair_upserts[i].concept_id == r.first &&
          delta.pair_upserts[i].instance == r.second) {
        return Status::DataLoss("delta " + path +
                                ": pair both upserted and removed");
      }
    }
    i = 0;
    for (uint64_t k : delta.mutex_removes) {
      while (i < delta.mutex_upserts.size() && delta.mutex_upserts[i].key < k) ++i;
      if (i < delta.mutex_upserts.size() && delta.mutex_upserts[i].key == k) {
        return Status::DataLoss("delta " + path +
                                ": mutex key both upserted and removed");
      }
    }
  }
  return delta;
}

Status ApplySnapshotDelta(const SnapshotDelta& delta, SnapshotParts* parts) {
  const size_t nc = parts->num_concepts();
  const size_t ni = parts->num_instances();
  if (delta.num_concepts != nc || delta.num_instances != ni) {
    return Status::DataLoss(
        "delta counts (" + std::to_string(delta.num_concepts) + " concepts, " +
        std::to_string(delta.num_instances) + " instances) do not match base (" +
        std::to_string(nc) + ", " + std::to_string(ni) + ")");
  }
  parts->mutex_threshold = delta.mutex_threshold;
  parts->similar_threshold = delta.similar_threshold;
  for (const SnapshotDelta::FlagSet& f : delta.flag_sets) {
    parts->flags[f.concept_id] = f.flags;
  }

  // Pair columns: merge each concept's sorted base row with its sorted
  // upserts/removes into fresh columns.
  std::vector<uint64_t> new_rows(nc + 1, 0);
  std::vector<uint32_t> new_instance;
  std::vector<double> new_score;
  std::vector<uint32_t> new_support;
  std::vector<uint32_t> new_iter1;
  new_instance.reserve(parts->fwd_instance.size() + delta.pair_upserts.size());
  size_t ui = 0, ri = 0;
  for (size_t c = 0; c < nc; ++c) {
    uint64_t j = parts->fwd_rows[c];
    const uint64_t jend = parts->fwd_rows[c + 1];
    for (;;) {
      const uint32_t be = j < jend ? parts->fwd_instance[j] : 0xffffffffu;
      const bool has_up = ui < delta.pair_upserts.size() &&
                          delta.pair_upserts[ui].concept_id == c;
      const bool has_rm =
          ri < delta.pair_removes.size() && delta.pair_removes[ri].first == c;
      const uint32_t ue = has_up ? delta.pair_upserts[ui].instance : 0xffffffffu;
      const uint32_t re = has_rm ? delta.pair_removes[ri].second : 0xffffffffu;
      if (j >= jend && !has_up && !has_rm) break;
      if (has_rm && re <= ue && re <= be) {
        if (re != be) {
          return Status::DataLoss("delta removes pair (" + std::to_string(c) + ", " +
                                  std::to_string(re) +
                                  ") absent from the base — wrong base?");
        }
        ++ri;
        ++j;
        continue;
      }
      if (has_up && ue <= be) {
        new_instance.push_back(ue);
        new_score.push_back(delta.pair_upserts[ui].score);
        new_support.push_back(delta.pair_upserts[ui].support);
        new_iter1.push_back(delta.pair_upserts[ui].iter1);
        ++ui;
        if (ue == be) ++j;
        continue;
      }
      if (be == 0xffffffffu) break;
      new_instance.push_back(be);
      new_score.push_back(parts->score[j]);
      new_support.push_back(parts->support[j]);
      new_iter1.push_back(parts->iter1[j]);
      ++j;
    }
    new_rows[c + 1] = new_instance.size();
  }
  if (ui != delta.pair_upserts.size() || ri != delta.pair_removes.size()) {
    return Status::DataLoss("delta pair records left unconsumed");
  }
  parts->fwd_rows = std::move(new_rows);
  parts->fwd_instance = std::move(new_instance);
  parts->score = std::move(new_score);
  parts->support = std::move(new_support);
  parts->iter1 = std::move(new_iter1);

  // Mutex table: the same merge over sorted keys.
  std::vector<uint64_t> new_keys;
  std::vector<double> new_sims;
  new_keys.reserve(parts->mutex_keys.size() + delta.mutex_upserts.size());
  size_t mi = 0, mu = 0, mr = 0;
  for (;;) {
    const uint64_t bk = mi < parts->mutex_keys.size() ? parts->mutex_keys[mi] : ~0ull;
    const uint64_t uk =
        mu < delta.mutex_upserts.size() ? delta.mutex_upserts[mu].key : ~0ull;
    const uint64_t rk =
        mr < delta.mutex_removes.size() ? delta.mutex_removes[mr] : ~0ull;
    if (bk == ~0ull && uk == ~0ull && rk == ~0ull) break;
    if (rk <= uk && rk <= bk) {
      if (rk != bk) {
        return Status::DataLoss("delta removes mutex key absent from the base — "
                                "wrong base?");
      }
      ++mr;
      ++mi;
      continue;
    }
    if (uk <= bk) {
      new_keys.push_back(uk);
      new_sims.push_back(delta.mutex_upserts[mu].sim);
      ++mu;
      if (uk == bk) ++mi;
      continue;
    }
    new_keys.push_back(bk);
    new_sims.push_back(parts->mutex_sims[mi]);
    ++mi;
  }
  parts->mutex_keys = std::move(new_keys);
  parts->mutex_sims = std::move(new_sims);
  return Status::OK();
}

Result<std::string> MaterializeSnapshotDelta(const SnapshotDelta& delta,
                                             const SnapshotParts& base_parts,
                                             uint64_t base_generation,
                                             uint32_t base_crc32) {
  if (delta.base_generation != base_generation || delta.base_crc32 != base_crc32) {
    return Status::DataLoss(
        "delta for generation " + std::to_string(delta.generation) +
        " is bound to base generation " + std::to_string(delta.base_generation) +
        " (crc " + std::to_string(delta.base_crc32) + ") but the current base is "
        "generation " + std::to_string(base_generation) + " (crc " +
        std::to_string(base_crc32) + ") — wrong base");
  }
  SnapshotParts next = base_parts;
  Status applied = ApplySnapshotDelta(delta, &next);
  if (!applied.ok()) return applied;
  return BuildSnapshotImage(next);
}

}  // namespace semdrift

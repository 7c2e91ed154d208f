#include "spans.h"

#include <atomic>
#include <cstdio>
#include <map>

#include "loadgen.h"
#include "stats.h"

namespace perfbench {

namespace {

std::atomic<uint64_t> next_key{1};
thread_local std::vector<uint64_t> open_keys;

bool IsRequest(const semdrift::TraceSpan& span) {
  for (const auto& [key, value] : span.tags) {
    if (key == "request") return true;
  }
  return false;
}

}  // namespace

BenchSpan::BenchSpan(std::string name, int64_t round)
    : span_(&semdrift::GlobalTrace(), std::move(name)), start_us_(MonoUs()) {
  key_ = next_key.fetch_add(1, std::memory_order_relaxed);
  span_.AddTag("key", key_);
  span_.AddTag("parent", open_keys.empty() ? 0 : open_keys.back());
  if (round >= 0) span_.AddTag("round", static_cast<uint64_t>(round));
  open_keys.push_back(key_);
}

BenchSpan::~BenchSpan() { open_keys.pop_back(); }

double BenchSpan::ElapsedUs() const { return MonoUs() - start_us_; }

void RecordRequestSpan(const char* name, double duration_us, size_t request,
                       uint64_t parent) {
  semdrift::TraceRecorder& trace = semdrift::GlobalTrace();
  if (!trace.enabled()) return;
  semdrift::TraceSpan span;
  span.name = name;
  span.dur_ns = static_cast<uint64_t>(duration_us * 1e3);
  span.tags = {{"request", std::to_string(request)}, {"parent", std::to_string(parent)}};
  trace.Record(std::move(span));
}

const LayerRow* LayerTable::Find(const std::string& name) const {
  for (const LayerRow& row : rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

double LayerTable::TotalMs(const std::string& name) const {
  const LayerRow* row = Find(name);
  return row != nullptr ? row->total_ms : 0.0;
}

size_t LayerTable::Count(const std::string& name) const {
  const LayerRow* row = Find(name);
  return row != nullptr ? row->count : 0;
}

LayerTable BuildLayerTable(const std::vector<semdrift::TraceSpan>& spans,
                           const std::string& root) {
  LayerTable table;
  const semdrift::TraceSpan* root_span = nullptr;
  for (const semdrift::TraceSpan& span : spans) {
    if (span.name == root && !IsRequest(span)) root_span = &span;
  }
  if (root_span == nullptr) return table;
  auto end_ns = [](const semdrift::TraceSpan& s) { return s.start_ns + s.dur_ns; };

  std::vector<const semdrift::TraceSpan*> unparented;  // In end order.
  std::map<std::string, size_t> index;
  std::vector<std::vector<double>> durations;
  for (const semdrift::TraceSpan& span : spans) {
    if (span.thread != root_span->thread || IsRequest(span)) continue;
    double child_ns = 0.0;
    while (!unparented.empty() && end_ns(*unparented.back()) > span.start_ns) {
      child_ns += static_cast<double>(unparented.back()->dur_ns);
      unparented.pop_back();
    }
    unparented.push_back(&span);
    const double self_ms = (static_cast<double>(span.dur_ns) - child_ns) / 1e6;
    if (&span == root_span) {
      table.wall_ms = static_cast<double>(span.dur_ns) / 1e6;
      table.residual_ms = self_ms;
      break;
    }
    auto [it, inserted] = index.emplace(span.name, table.rows.size());
    if (inserted) {
      table.rows.push_back(LayerRow{span.name});
      durations.emplace_back();
    }
    LayerRow& row = table.rows[it->second];
    ++row.count;
    row.self_ms += self_ms;
    row.total_ms += static_cast<double>(span.dur_ns) / 1e6;
    durations[it->second].push_back(static_cast<double>(span.dur_ns) / 1e3);
  }
  for (size_t r = 0; r < table.rows.size(); ++r) {
    if (table.rows[r].count >= 3) table.rows[r].p50_us = Percentile(durations[r], 50.0);
    if (PercentileSupported(table.rows[r].count, 99.0)) {
      table.rows[r].p99_us = Percentile(durations[r], 99.0);
    }
  }
  return table;
}

void PrintLayerTable(const std::string& title, const LayerTable& table) {
  std::printf("%s (traced wall %.3f ms)\n", title.c_str(), table.wall_ms);
  std::printf("  %-26s %8s %12s %7s %11s %11s\n", "layer span", "count", "self_ms", "share",
              "p50_us", "p99_us");
  const double wall = table.wall_ms > 0 ? table.wall_ms : 1.0;
  for (const LayerRow& row : table.rows) {
    char p50[32] = "-";
    char p99[32] = "-";
    if (row.count >= 3) std::snprintf(p50, sizeof(p50), "%.1f", row.p50_us);
    if (PercentileSupported(row.count, 99.0)) std::snprintf(p99, sizeof(p99), "%.1f", row.p99_us);
    std::printf("  %-26s %8zu %12.3f %6.1f%% %11s %11s\n", row.name.c_str(), row.count,
                row.self_ms, 100.0 * row.self_ms / wall, p50, p99);
  }
  std::printf("  %-26s %8s %12.3f %6.1f%%\n", "residual_ms", "", table.residual_ms,
              100.0 * table.residual_ms / wall);
}

}  // namespace perfbench

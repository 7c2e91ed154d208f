#include "read_phase.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "net/server.h"
#include "obs/metrics.h"
#include "serve/batcher.h"

namespace perfbench {

namespace {

constexpr size_t kMinWindow = 1000;
constexpr size_t kMaxWindows = 9;

/// Interpolated median of the observations a registry histogram gained
/// between two snapshots.
double HistogramDeltaP50(const semdrift::HistogramSnapshot& before,
                         const semdrift::HistogramSnapshot& after) {
  if (after.buckets.size() != before.buckets.size() || after.count <= before.count) {
    return 0.0;
  }
  double half = static_cast<double>(after.count - before.count) / 2.0;
  double seen = 0.0;
  for (size_t b = 0; b < after.buckets.size(); ++b) {
    double in_bucket = static_cast<double>(after.buckets[b] - before.buckets[b]);
    if (seen + in_bucket >= half && in_bucket > 0) {
      double lower = b == 0 ? 0.0 : after.upper_bounds[b - 1];
      double upper = b < after.upper_bounds.size() ? after.upper_bounds[b] : lower;
      return lower + (upper - lower) * (half - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return 0.0;
}

bool Refused(const std::string& response) {
  return response.rfind("OVERLOADED", 0) == 0 || response.rfind("ERR", 0) == 0;
}

/// Checks every record of `run` and fills the failure counts of `result`.
void Verify(const std::vector<std::string>& lines, ReferenceAnswers* reference,
            const std::vector<GenerationWindow>& windows, RungResult* result,
            const char* label) {
  size_t reported = 0;
  for (size_t i = 0; i < result->run.records.size(); ++i) {
    const RequestRecord& record = result->run.records[i];
    bool ok = record.answered && AnswerMatches(reference, windows, lines[i], record);
    result->failures.Add(ok);
    if (ok) continue;
    if (record.answered && Refused(record.response)) {
      ++result->refused;
    } else if (record.answered) {
      ++result->wrong;
    }
    if (reported++ < 3) {
      std::printf("  [%s] request %zu %s: '%s' -> '%s'\n", label, i,
                  record.answered ? "answered wrongly" : "never answered",
                  lines[i].c_str(), record.response.c_str());
    }
  }
}

RungResult SummarizeRung(LoadRun run, double backlog_tolerance_us) {
  RungResult result;
  result.rate = run.rate;
  std::vector<double> latencies = run.LatenciesUs();
  result.latency = Summarize(latencies);
  result.p99_windowed = WindowedPercentile(latencies, 99.0, kMinWindow, kMaxWindows);
  result.backlog = DetectBacklog(run.Completions(), backlog_tolerance_us);
  result.achieved_rate = run.AchievedRate();
  result.late_p99_us = Percentile(run.LatenessUs(), 99.0);
  result.outstanding_max = run.outstanding_max;
  result.run = std::move(run);
  return result;
}

/// Hop latency: from the moment the request was handed to the hop until its
/// answer, so generator lateness is not charged to the hop.
std::vector<double> HandledUs(const LoadRun& run) {
  std::vector<double> out;
  for (const RequestRecord& r : run.records) {
    if (r.answered) out.push_back(r.done_us - r.sent_us);
  }
  return out;
}

}  // namespace

size_t RungSize(double rate, double seconds) {
  return std::max(kMinAnswers, static_cast<size_t>(std::ceil(rate * seconds)));
}

int ReadCycles(double seconds) { return std::max(1, static_cast<int>(std::lround(seconds * 1.6))); }

void ReferenceAnswers::AddGeneration(uint64_t generation,
                                     const semdrift::SnapshotReader* reader) {
  semdrift::QueryEngineOptions options;
  options.cache_capacity = 0;
  options.generation = generation;
  Gen& gen = gens_[generation];
  gen.engine = std::make_unique<semdrift::QueryEngine>(reader, options);
  gen.answers.clear();
}

const std::string& ReferenceAnswers::Answer(uint64_t generation, const std::string& line) {
  Gen& gen = gens_.at(generation);
  auto it = gen.answers.find(line);
  if (it == gen.answers.end()) {
    it = gen.answers.emplace(line, gen.engine->Answer(line, /*record_stats=*/false)).first;
  }
  return it->second;
}

bool AnswerMatches(ReferenceAnswers* reference,
                   const std::vector<GenerationWindow>& windows,
                   const std::string& line, const RequestRecord& record) {
  for (const GenerationWindow& window : windows) {
    if (window.from_us > record.done_us || window.to_us < record.sent_us) continue;
    if (reference->Answer(window.generation, line) == record.response) return true;
  }
  return false;
}

ReadRunner::ReadRunner(std::string socket_path, RequestGenerator* generator,
                       ReferenceAnswers* reference, std::vector<GenerationWindow>* windows)
    : socket_path_(std::move(socket_path)),
      generator_(generator),
      reference_(reference),
      windows_(windows) {}


RungResult ReadRunner::Rung(double rate, size_t n, const std::function<void()>& during) {
  lines_ = generator_->Take(n);
  OpenLoop loop(n, rate);
  auto target = SocketTarget::Connect(socket_path_, kConnections, &loop, &lines_);
  if (!target.ok()) {
    std::printf("  cannot connect: %s\n", target.status().ToString().c_str());
    RungResult failed = SummarizeRung(loop.Finish(), kBacklogToleranceUs);
    for (size_t i = 0; i < n; ++i) failed.failures.Add(false);
    return failed;
  }
  std::thread side;
  if (during) side = std::thread(during);
  loop.Drive([&](size_t begin, size_t end) { (*target)->Submit(begin, end); },
             kDrainSeconds);
  if (side.joinable()) side.join();
  (*target)->Close();
  RungResult result = SummarizeRung(loop.Finish(), kBacklogToleranceUs);
  char label[64];
  std::snprintf(label, sizeof(label), "%.0f req/s", rate);
  Verify(lines_, reference_, *windows_, &result, label);
  return result;
}

bool ReadRunner::Passes(const RungResult& rung) const {
  return rung.failures.failed == 0 && !rung.backlog.growing &&
         rung.p99_windowed <= kLatencyLimitUs;
}

double ReadRunner::Ladder(size_t* rungs, FailureCount* wrong_answers) {
  *rungs = 0;
  double best = 0.0;
  double passed = 0.0;
  double failed = 0.0;
  // A rung that fails is run once more before it counts as a failure, so
  // one stall of the machine does not end the climb.
  auto run = [&](double rate) {
    size_t n = RungSize(rate, kLadderRungSeconds);
    bool ok = false;
    for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
      if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
      RungResult rung = Rung(rate, n);
      ++*rungs;
      // Overload shows as refused or late answers and fails the rung; a
      // wrong OK answer is a correctness failure at any load.
      wrong_answers->attempted += rung.run.answered();
      wrong_answers->failed += rung.wrong;
      ok = Passes(rung);
      std::printf("  ladder %9.0f req/s: p50 %8.1f us p99 %9.1f us (windowed, n=%zu) "
                  "backlog %s refused %zu -> %s\n",
                  rate, rung.latency.p50, rung.p99_windowed, rung.latency.count,
                  rung.backlog.growing ? "growing" : "flat", rung.refused,
                  ok ? "pass" : "fail");
      if (ok) best = std::max(best, rung.achieved_rate);
    }
    return ok;
  };
  double rate = kReadRates[1];
  for (int steps = 0; steps < 20; ++steps) {
    if (run(rate)) {
      passed = rate;
      if (rate * kLadderFactor > kLadderMaxRate) break;
      rate *= kLadderFactor;
    } else {
      failed = rate;
      if (passed > 0.0) break;
      rate /= kLadderFactor;  // Even `mid` failed: step down.
      if (rate < kReadRates[0] / 8) break;
    }
  }
  if (passed > 0.0 && failed > passed) {
    double lo = passed;
    double hi = failed;
    for (int b = 0; b < kLadderBisections; ++b) {
      double mid = std::sqrt(lo * hi);
      if (run(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  return best;
}

SocketServer::SocketServer(semdrift::ShardRouter* router, const std::string& path) {
  semdrift::NetServerOptions options;
  options.listen = "unix:" + path;
  server_ = std::make_unique<semdrift::NetServer>(router, options);
  status_ = server_->Start();
}

SocketServer::~SocketServer() { server_->Stop(); }

void RunReadMetrics(int cycles, bool ladder, semdrift::ShardRouter* router,
                    const std::string& work_dir, RequestGenerator* generator,
                    ReferenceAnswers* reference, std::vector<GenerationWindow>* windows,
                    Report* report, const std::function<void(int cycle)>& mid_during) {
  // The load generator's own records would dominate the process's peak
  // memory from here on, so the program's peak is read before it starts.
  report->Set("peak_rss_mb", PeakRssMb(), "MB",
              "getrusage ru_maxrss after set-up and the write path, before the read phase");
  const std::string path = work_dir + "/s.sock";
  SocketServer server(router, path);
  report->Check(server.status().ok(), "socket server start: " + server.status().ToString());
  if (!server.status().ok()) return;
  ReadRunner runner(path, generator, reference, windows);
  // Warm-up at mid: connections, pool threads and the result cache settle
  // before anything is reported (answers are still checked).
  RungResult warmup = runner.Rung(kReadRates[1], RungSize(kReadRates[1], kRungSeconds));
  report->failures().Merge(warmup.failures);
  // The rates take turns, cycle after cycle, so each rate is sampled across
  // the whole phase rather than in one stretch of it.
  std::vector<Quantiles> by_rate[3];
  std::vector<double> pooled[3];
  double late_p99 = 0.0;
  size_t outstanding_max = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (int k = 0; k < 3; ++k) {
      std::function<void()> during;
      if (k == 1 && mid_during) during = [&mid_during, cycle] { mid_during(cycle); };
      RungResult rung = runner.Rung(kReadRates[k], RungSize(kReadRates[k], kRungSeconds), during);
      report->failures().Merge(rung.failures);
      by_rate[k].push_back(rung.latency);
      std::vector<double> latencies = rung.run.LatenciesUs();
      pooled[k].insert(pooled[k].end(), latencies.begin(), latencies.end());
      late_p99 = std::max(late_p99, rung.late_p99_us);
      outstanding_max = std::max(outstanding_max, rung.outstanding_max);
    }
  }
  for (int k = 0; k < 3; ++k) {
    std::string name = kRateNames[k];
    Quantiles best = by_rate[k].front();
    for (const Quantiles& q : by_rate[k]) {
      best.p50 = std::min(best.p50, q.p50);
      best.p99 = std::min(best.p99, q.p99);
      best.count = std::min(best.count, q.count);
    }
    if (!PercentileSupported(best.count, 99.0)) {
      report->Check(false, "too few answers for p99 at " + name);
    }
    Quantiles all = Summarize(pooled[k]);
    char basis[240];
    std::snprintf(basis, sizeof(basis),
                  "best of %d rungs of >= %zu answers at %.0f req/s; all %zu answers: "
                  "p50 %.1f us, p99 %.1f us",
                  cycles, best.count, kReadRates[k], all.count, all.p50, all.p99);
    report->Set("p50_us." + name, best.p50, "us", basis);
    report->Set("p99_us." + name, best.p99, "us", basis);
  }
  std::printf("read phase: generator late p99 %.1f us at worst, outstanding max %zu\n",
              late_p99, outstanding_max);
  if (!ladder) return;
  size_t rungs = 0;
  FailureCount wrong;
  double max_qps = runner.Ladder(&rungs, &wrong);
  report->failures().Merge(wrong);
  // Not an output check: a machine stalled through every rung is not a
  // wrong answer, and max_qps is printed, not gated.
  if (max_qps == 0.0) std::printf("  ladder: no rung passed\n");
  char basis[160];
  std::snprintf(basis, sizeof(basis),
                "achieved rate of the highest passing rung; %zu rungs, p99 limit %.0f us",
                rungs, kLatencyLimitUs);
  report->Set("max_qps", max_qps, "1/s", basis);
}

double TraceReadPath(const semdrift::SnapshotReader* snapshot,
                     semdrift::SnapshotManager* manager, const std::string& work_dir,
                     RequestGenerator* generator, ReferenceAnswers* reference,
                     std::vector<GenerationWindow>* windows, Report* report) {
  const double rate = kReadRates[1];
  const size_t n = RungSize(rate, kRungSeconds);
  const std::vector<std::string> lines = generator->Take(n);
  auto make_router = [&]() {
    return manager != nullptr
               ? std::make_unique<semdrift::ShardRouter>(manager, semdrift::RouterOptions{})
               : std::make_unique<semdrift::ShardRouter>(snapshot, semdrift::RouterOptions{});
  };
  struct Hop {
    const char* span;
    LoadRun run;
  };
  std::vector<Hop> hops;
  auto record_hop = [&](const char* span_name, LoadRun run) {
    RungResult checked;
    checked.run = std::move(run);
    Verify(lines, reference, *windows, &checked, span_name);
    report->failures().Merge(checked.failures);
    hops.push_back(Hop{span_name, std::move(checked.run)});
  };

  // Untraced reference pass over the socket, for trace.overhead_pct.
  double untraced_p50 = 0.0;
  {
    BenchSpan pass("serve.pass.untraced");
    auto router = make_router();
    SocketServer server(router.get(), work_dir + "/t.sock");
    OpenLoop loop(n, rate);
    auto target = SocketTarget::Connect(work_dir + "/t.sock", kConnections, &loop, &lines);
    if (target.ok()) {
      loop.Drive([&](size_t b, size_t e) { (*target)->Submit(b, e); }, kDrainSeconds);
      (*target)->Close();
    }
    LoadRun run = loop.Finish();
    untraced_p50 = Percentile(HandledUs(run), 50.0);
  }

  // QueryEngine::Answer, inline on the sender thread.
  {
    BenchSpan pass("serve.pass.engine");
    semdrift::QueryEngine engine(snapshot);
    OpenLoop loop(n, rate);
    loop.TraceAs("serve.engine", pass.key());
    loop.Drive(
        [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) loop.Complete(i, engine.Answer(lines[i]));
        },
        kDrainSeconds);
    uint64_t hits = 0;
    uint64_t count = 0;
    for (int t = 0; t < static_cast<int>(semdrift::QueryType::kNumTypes); ++t) {
      semdrift::QueryTypeStats s = engine.stats().Snapshot(static_cast<semdrift::QueryType>(t));
      hits += s.cache_hits;
      count += s.count;
    }
    report->Set("serve.cache_hit_rate", count > 0 ? static_cast<double>(hits) / count : 0.0,
                "ratio", std::to_string(hits) + " hits / " + std::to_string(count) +
                             " engine answers (4096-entry cache)");
    record_hop("serve.engine", loop.Finish());
  }

  // Batcher::SubmitCallback over a fresh engine.
  {
    BenchSpan pass("serve.pass.batcher");
    semdrift::QueryEngine engine(snapshot);
    semdrift::HistogramSnapshot wait_before =
        semdrift::GlobalMetrics().HistogramValues("batch.queue_wait_ns");
    OpenLoop loop(n, rate);
    loop.TraceAs("serve.batcher", pass.key());
    semdrift::BatcherStats stats;
    {
      semdrift::BatcherOptions options;
      semdrift::Batcher batcher(&engine, options);
      loop.Drive(
          [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) {
              batcher.SubmitCallback(lines[i], options.default_deadline_ms,
                                     semdrift::RequestPriority::kNormal,
                                     [&loop, i](std::string response) {
                                       loop.Complete(i, std::move(response));
                                     });
            }
          },
          kDrainSeconds);
      stats = batcher.Snapshot();
    }
    semdrift::HistogramSnapshot wait_after =
        semdrift::GlobalMetrics().HistogramValues("batch.queue_wait_ns");
    report->Set("serve.queue_wait_us.p50", HistogramDeltaP50(wait_before, wait_after) / 1e3,
                "us", "interpolated from the batch.queue_wait_ns histogram");
    report->Set("serve.batch_size",
                stats.batches > 0 ? static_cast<double>(stats.requests) / stats.batches : 0.0,
                "count", "mean requests per batch over " + std::to_string(stats.batches) +
                             " batches");
    report->Set("serve.shed", static_cast<double>(stats.shed), "count", "batcher pass");
    report->Set("serve.deadline_expired", static_cast<double>(stats.deadline_expired),
                "count", "batcher pass");
    record_hop("serve.batcher", loop.Finish());
  }

  // ShardRouter::Submit with library defaults.
  {
    BenchSpan pass("serve.pass.router");
    OpenLoop loop(n, rate);
    loop.TraceAs("net.router", pass.key());
    {
      auto router = make_router();
      loop.Drive(
          [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) {
              router->Submit(lines[i], semdrift::RequestPriority::kNormal,
                             [&loop, i](std::string response) {
                               loop.Complete(i, std::move(response));
                             });
            }
          },
          kDrainSeconds);
    }
    record_hop("net.router", loop.Finish());
  }

  // The socket: NetServer over a fresh router.
  {
    BenchSpan pass("serve.pass.socket");
    OpenLoop loop(n, rate);
    loop.TraceAs("net.socket", pass.key());
    semdrift::NetServerCounters counters;
    {
      auto router = make_router();
      SocketServer server(router.get(), work_dir + "/t.sock");
      auto target = SocketTarget::Connect(work_dir + "/t.sock", kConnections, &loop, &lines);
      report->Check(target.ok(), "traced socket pass connect");
      if (target.ok()) {
        loop.Drive([&](size_t b, size_t e) { (*target)->Submit(b, e); }, kDrainSeconds);
        (*target)->Close();
      }
      counters = server.server().counters();
    }
    report->Set("net.backpressure_pauses", static_cast<double>(counters.backpressure_pauses),
                "count", "socket pass");
    report->Set("net.dropped_responses", static_cast<double>(counters.dropped_responses),
                "count", "socket pass");
    LoadRun run = loop.Finish();
    report->Set("loadgen.late_us.p99", Percentile(run.LatenessUs(), 99.0), "us",
                "socket pass, n=" + std::to_string(run.records.size()));
    report->Set("loadgen.outstanding_max", static_cast<double>(run.outstanding_max), "count",
                "socket pass");
    record_hop("net.socket", std::move(run));
  }

  // Self time of a hop: its p50 minus the p50 of the hop inside it.
  std::printf("request path at %.0f req/s (latency from hand-off to answer)\n", rate);
  std::printf("  %-16s %8s %11s %11s %11s\n", "hop", "count", "p50_us", "p99_us", "self_p50_us");
  double inner = 0.0;
  const char* metric[4] = {"serve.engine_us.p50", "serve.batcher_us.p50", "net.router_us.p50",
                           "net.socket_us.p50"};
  double socket_p50 = 0.0;
  for (size_t h = 0; h < hops.size(); ++h) {
    Quantiles q = Summarize(HandledUs(hops[h].run));
    double self = q.p50 - inner;
    std::printf("  %-16s %8zu %11.1f %11.1f %11.1f\n", hops[h].span, q.count, q.p50, q.p99,
                self);
    report->Set(metric[h], h == 0 ? q.p50 : self, "us",
                "n=" + std::to_string(q.count) + (h == 0 ? "" : " (self: p50 minus inner hop)"));
    if (h == 0) {
      report->Set("serve.engine_us.p99", q.p99, "us", "n=" + std::to_string(q.count));
    }
    inner = q.p50;
    socket_p50 = q.p50;
  }
  return untraced_p50 > 0 ? 100.0 * (socket_p50 - untraced_p50) / untraced_p50 : 0.0;
}

}  // namespace perfbench

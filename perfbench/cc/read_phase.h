// The read side every workload ends with: open-loop request streams at fixed
// offered rates and a capacity ladder, sent over unix sockets to an
// in-process NetServer -> ShardRouter -> Batcher -> QueryEngine stack, with
// every answer checked against a cache-less engine over a generation that
// was live while the request was in flight.
#ifndef PERFBENCH_READ_PHASE_H_
#define PERFBENCH_READ_PHASE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "net/router.h"
#include "net/server.h"
#include "requests.h"
#include "serve/query_engine.h"
#include "spans.h"

namespace perfbench {

/// The read phase's fixed settings, the same on every workload.
///
/// Offered rates of the `low`, `mid` and `high` rungs (requests/s): well
/// under the stack's capacity (about 180,000 answers/s on a 4-vCPU virtual
/// machine), so a slow moment of the machine does not push them over it.
inline constexpr double kReadRates[3] = {8000.0, 16000.0, 32000.0};
inline constexpr const char* kRateNames[3] = {"low", "mid", "high"};
/// Each of the fixed-rate rungs sends RungSize(rate, kRungSeconds) requests.
inline constexpr double kRungSeconds = 0.125;
/// Every rung collects at least this many answers, enough for a p99.
inline constexpr size_t kMinAnswers = 1000;
/// Capacity ladder: geometric steps of kLadderFactor from `mid` until a rung
/// fails, then kLadderBisections geometric bisections between the last
/// passing and the first failing rung (final step 1.4^(1/8), about 4.3%).
inline constexpr double kLadderRungSeconds = 0.15;
inline constexpr double kLadderFactor = 1.4;
inline constexpr int kLadderBisections = 3;
inline constexpr double kLadderMaxRate = 400000.0;
/// A ladder rung passes when its windowed p99 is within this limit, its
/// backlog does not grow and every request got the reference answer.
inline constexpr double kLatencyLimitUs = 20000.0;
inline constexpr double kBacklogToleranceUs = 1000.0;
/// Pipelined unix-socket connections of the load generator.
inline constexpr int kConnections = 4;
inline constexpr double kDrainSeconds = 3.0;

/// Requests in a rung of `seconds` at `rate`: at least kMinAnswers.
size_t RungSize(double rate, double seconds);

/// Cycles of the three fixed-rate rungs in a run of --seconds: 16 at the
/// default 10 s, about 6 s of rungs. The rest of a run's measured time is
/// its write path, whose work is fixed by the workload's input size.
int ReadCycles(double seconds);

/// Memoized answers of cache-less engines, one per generation.
class ReferenceAnswers {
 public:
  void AddGeneration(uint64_t generation, const semdrift::SnapshotReader* reader);
  const std::string& Answer(uint64_t generation, const std::string& line);

 private:
  struct Gen {
    std::unique_ptr<semdrift::QueryEngine> engine;
    std::map<std::string, std::string> answers;
  };
  std::map<uint64_t, Gen> gens_;
};

/// When each generation served: [from_us, to_us] is conservative (from the
/// start of the install that flipped it in to the end of the install that
/// replaced it).
struct GenerationWindow {
  uint64_t generation = 0;
  double from_us = 0.0;
  double to_us = 1e300;
};

/// Checks one answered request against every generation live while it was
/// in flight.
bool AnswerMatches(ReferenceAnswers* reference,
                   const std::vector<GenerationWindow>& windows,
                   const std::string& line, const RequestRecord& record);

/// Latency, failures and health of one rung.
struct RungResult {
  double rate = 0.0;
  Quantiles latency;
  /// WindowedPercentile p99 over windows of >= 1,000 answers: the ladder's
  /// pass test, robust to one stall of the machine.
  double p99_windowed = 0.0;
  FailureCount failures;
  size_t refused = 0;  // Answered, but not an OK answer (overload, deadline).
  size_t wrong = 0;    // OK answer that differs from the reference.
  BacklogVerdict backlog;
  double achieved_rate = 0.0;
  double late_p99_us = 0.0;
  size_t outstanding_max = 0;
  LoadRun run;
};

/// Drives one workload's read phase against a NetServer listening at
/// `socket_path`.
class ReadRunner {
 public:
  ReadRunner(std::string socket_path, RequestGenerator* generator,
             ReferenceAnswers* reference, std::vector<GenerationWindow>* windows);

  /// One open-loop rung of `n` requests at `rate`. `during`, when set, runs
  /// on its own thread for the rung's duration (the hot-swap publisher).
  RungResult Rung(double rate, size_t n, const std::function<void()>& during = nullptr);

  /// Highest passing ladder rate (the achieved answer rate of that rung) and
  /// the number of rungs run.
  double Ladder(size_t* rungs, FailureCount* wrong_answers);

 private:
  bool Passes(const RungResult& rung) const;

  std::string socket_path_;
  RequestGenerator* generator_;
  ReferenceAnswers* reference_;
  std::vector<GenerationWindow>* windows_;
  std::vector<std::string> lines_;
};

/// A NetServer on a unix socket in front of `router`.
class SocketServer {
 public:
  SocketServer(semdrift::ShardRouter* router, const std::string& path);
  ~SocketServer();
  semdrift::Status status() const { return status_; }
  semdrift::NetServer& server() { return *server_; }

 private:
  std::unique_ptr<semdrift::NetServer> server_;
  semdrift::Status status_;
};

/// Fixed-rate rungs at low/mid/high, taking turns for `cycles` cycles, then
/// (when `ladder`) the capacity ladder; records the read metrics
/// (`p50_us.*`, `p99_us.*`, `max_qps`) into `report`. Each rate reports the
/// best p50 and the best p99 over its cycles: machine stalls only ever add
/// latency, so the best of several rungs is the program's own latency.
/// `mid_during(c)` runs beside cycle c's mid rung (serve-swap's publisher).
void RunReadMetrics(int cycles, bool ladder, semdrift::ShardRouter* router,
                    const std::string& work_dir, RequestGenerator* generator,
                    ReferenceAnswers* reference, std::vector<GenerationWindow>* windows,
                    Report* report,
                    const std::function<void(int cycle)>& mid_during = nullptr);

/// The traced read path: the same `mid` request stream through
/// QueryEngine::Answer, Batcher::SubmitCallback, ShardRouter::Submit and the
/// socket, each on a fresh stack over `snapshot` (or `manager`, when given,
/// for the router and socket hops), each pass in a span of its own with one
/// request span per answer. Records the serve/net per-layer metrics into
/// `report`. Returns the socket hop's p50 against an untraced socket pass
/// over the same lines, in percent.
double TraceReadPath(const semdrift::SnapshotReader* snapshot,
                     semdrift::SnapshotManager* manager, const std::string& work_dir,
                     RequestGenerator* generator, ReferenceAnswers* reference,
                     std::vector<GenerationWindow>* windows, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_READ_PHASE_H_

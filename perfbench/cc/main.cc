// Benchmark program: runs one workload and prints its report, ending with a
// one-line JSON result. perfbench/run.py builds this binary and passes the
// workload's parameters from perfbench/workloads.json:
//
//   perfbench --workload batch-clean --seed 1 --seconds 10 --trace 0
//             --work-dir .bench_build/work --trace-out t.jsonl --set key=value...
//
// Exit status: 0 when every output check passed, 1 when any failed, 2 on a
// usage error.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir D --trace-out F [--set key=value]...\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunContext ctx;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      ctx.seconds = std::stod(value);
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--work-dir") {
      ctx.work_dir = value;
    } else if (flag == "--trace-out") {
      ctx.trace_path = value;
    } else if (flag == "--set") {
      size_t eq = value.find('=');
      if (eq == std::string::npos) return Usage(("--set needs key=value: " + value).c_str());
      ctx.params.Set(value.substr(0, eq), value.substr(eq + 1));
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (ctx.workload.empty() || !have_seed || ctx.work_dir.empty() || ctx.trace_path.empty()) {
    return Usage("--workload, --seed, --work-dir and --trace-out are required");
  }
  std::string error;
  if (!perfbench::ResetDir(ctx.work_dir, &error)) return Usage(error.c_str());

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", ctx.workload.c_str(),
              static_cast<unsigned long long>(ctx.seed), ctx.seconds, ctx.trace ? 1 : 0);
  perfbench::Report report;
  try {
    if (ctx.workload == "batch-clean") {
      perfbench::BatchClean(ctx, &report);
    } else if (ctx.workload == "stream-epochs") {
      perfbench::StreamEpochs(ctx, &report);
    } else if (ctx.workload == "serve-read") {
      perfbench::ServeRead(ctx, &report);
    } else if (ctx.workload == "serve-swap") {
      perfbench::ServeSwap(ctx, &report);
    } else {
      return Usage(("unknown workload " + ctx.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (!ctx.trace) {
    const perfbench::FailureCount& f = report.failures();
    report.Set("ok_share", f.OkShare(), "ratio",
               "1 - failed_share; " + std::to_string(f.failed) + " failed of " +
                   std::to_string(f.attempted) + " checked operations");
  }
  return report.Emit();
}

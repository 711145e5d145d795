// qcap_perfbench: the repository benchmark.
//
//   qcap_perfbench --workload plan-scale|serve-tpcapp|day-adaptive
//                  --seed N --seconds S --trace 0|1
//
// Prints the host fingerprint and gate notes, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics for --trace 0, the per-layer metrics for --trace 1. Exits 0 when
// the run completed (the result line says whether its gates held) and 2 on
// a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr, "qcap_perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: qcap_perfbench --workload plan-scale|serve-tpcapp|"
               "day-adaptive --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qcap::perfbench;
  RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("every flag needs a value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed needs an integer");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 600.0) {
        return Usage("--seconds needs a number in (0, 600]");
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace needs 0 or 1");
      }
      options.trace = value[0] == '1';
    } else {
      return Usage("unknown flag");
    }
  }
  RunResult (*run)(const RunOptions&) = nullptr;
  if (workload == "plan-scale") run = RunPlanScale;
  if (workload == "serve-tpcapp") run = RunServeTpcApp;
  if (workload == "day-adaptive") run = RunDayAdaptive;
  if (run == nullptr) return Usage("unknown --workload");

  std::printf("%s\n", HostFingerprintJson().c_str());
  const HostTicks ticks0 = ReadHostTicks();
  const RunResult result = run(options);
  const HostTicks ticks1 = ReadHostTicks();
  // Time the hypervisor gave to other guests while this run measured: a
  // run with high steal ran on a contended host.
  if (ticks1.total > ticks0.total) {
    std::printf("host steal during the run: %.1f%% of CPU time\n",
                100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                    static_cast<double>(ticks1.total - ticks0.total));
  }
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("%s\n", ResultJson(result, options.trace).c_str());
  return 0;
}

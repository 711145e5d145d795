// The three benchmark workloads. Each drives one path of the system hard
// and leaves the others idle:
//
//   plan-scale    offline planning of a large synthetic instance (alloc,
//                 model, physical, solver) and a closed-loop simulation of
//                 the plan (cluster simulator, large-B SIMD/arena paths);
//   serve-tpcapp  the TCP routing server (net, cluster/scheduler online)
//                 under an open-loop rate ladder from one generator thread;
//   day-adaptive  the adaptive control loop (autonomic, migration
//                 executor) replaying seeded days of drift, faults and a
//                 load spike.
//
// Every workload reports the same end-to-end metric names (README.md gives
// each one's meaning per workload) and the same per-layer names, with 0 for
// layers the workload leaves idle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "model/allocation.h"
#include "workload/query_class.h"

namespace qcap::perfbench {

RunResult RunPlanScale(const RunOptions& options);
RunResult RunServeTpcApp(const RunOptions& options);
RunResult RunDayAdaptive(const RunOptions& options);

/// Names and units of every metric, in report order; each workload fills
/// the values of its own path (0 for per-layer metrics of idle layers).
const std::vector<Metric>& EndToEndMetricTemplate();
const std::vector<Metric>& PerLayerMetricTemplate();

/// Sets metric \p name in \p metrics (which must hold it).
void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value);

// --- Input generators, exposed for the harness tests ----------------------

/// plan-scale: the planned instance. Its fragment/class structure and the
/// search are the fixed reference; the seed drives the simulated request
/// stream (see README.md, "Why the plan is fixed").
struct PlanScaleConfig {
  size_t read_classes = 5000;
  size_t fragments = 1000;
  size_t backends = 16;
  size_t generations = 16;
  uint64_t sim_requests = 400000;
};
struct PlanScaleOutcome {
  std::string fingerprint;  ///< Placement rows + read assignment, hex.
  double speedup = 0.0;
  double replication = 0.0;
  double sim_throughput = 0.0;
  double moved_mb = 0.0;
  bool valid = false;
};
/// One untimed plan + simulate pass (used by tests to pin determinism).
PlanScaleOutcome PlanScaleOnce(const PlanScaleConfig& config, uint64_t seed);

/// serve-tpcapp: the open-loop arrival schedule of one ladder step.
struct Arrival {
  double due_seconds = 0.0;  ///< Offset from the step start.
  bool is_read = true;
  uint32_t class_index = 0;
};
std::vector<Arrival> MakeArrivals(const Classification& cls, double qps,
                                  double duration_seconds, uint64_t seed);

/// day-adaptive: deterministic report of replaying \p days seeded days
/// starting at \p seed (one Serialize()d report per day).
std::vector<std::string> ReplayDaysForTest(uint64_t seed, size_t days,
                                           size_t buckets);

}  // namespace qcap::perfbench

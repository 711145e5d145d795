// E15/E16 / Section 5 Figures 4 and 5: autonomic scaling against a diurnal
// trace (synthetic stand-in for the paper's private e-learning trace),
// replayed through the AdaptiveController with only its scale-out/in path
// armed (drift detection is disabled; the mix never shifts).
//
// Paper shape: the number of active nodes tracks the request curve
// (Fig. 4); the autonomic system's average response time is only slightly
// above the static-maximum cluster, never exceeding ~50 ms and ~10 ms on
// average (Fig. 5).
//
// Self-verifying: exits 1 unless the night trough runs on one node, the
// peak grows past two nodes, the autonomic day burns < 0.8x the static
// node-seconds, the static cluster never transitions, and a re-run is
// bit-identical.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "alloc/greedy.h"
#include "autonomic/control_loop.h"
#include "bench_util.h"
#include "workload/classifier.h"
#include "workloads/trace.h"

namespace qcap::bench {
namespace {

constexpr size_t kMaxNodes = 6;
// Our simulated backends are faster than the paper's 2009-era nodes, so
// the trace is scaled harder (x150 instead of x40) to make the peak exceed
// a single backend.
constexpr double kTraceMultiplier = 150.0;

AdaptiveOptions ScalingOptions(size_t min_nodes, size_t max_nodes) {
  AdaptiveOptions options;
  // Scale out when p99 breaks 45 ms on a cluster more than 40% busy; scale
  // in below 35% busy while p99 is anywhere inside the SLO.
  options.slo_p99_ms = 45.0;
  options.scale_up_utilization = 0.4;
  options.scale_down_utilization = 0.35;
  options.scale_down_headroom = 1.0;
  options.min_nodes = min_nodes;
  options.max_nodes = max_nodes;
  options.drift_threshold = std::numeric_limits<double>::infinity();
  options.cooldown_buckets = 0;
  options.slice_seconds = 8.0;
  options.sim.cost_params.memory_bytes = 8.0 * 1024 * 1024 * 1024;
  options.sim.cost_params.io_fraction = 0.4;
  options.sim.servers_per_backend = 4;
  return options;
}

AdaptiveReport Replay(const Classification& cls, size_t min_nodes,
                      size_t max_nodes, const std::vector<BucketDemand>& day,
                      const char* what) {
  GreedyAllocator greedy;
  AdaptiveController controller(cls, &greedy,
                                ScalingOptions(min_nodes, max_nodes));
  CheckOk(controller.Install(min_nodes), what);
  return ValueOrDie(controller.ReplayDay(day, FaultPlan{}), what);
}

/// Mean response over every completed request of the day.
double WeightedAvgMs(const AdaptiveReport& report) {
  double sum = 0.0;
  double completed = 0.0;
  for (const AdaptiveStep& step : report.steps) {
    sum += step.avg_ms * static_cast<double>(step.completed);
    completed += static_cast<double>(step.completed);
  }
  return completed > 0.0 ? sum / completed : 0.0;
}

void Fail(const char* message) {
  std::fprintf(stderr, "FATAL: %s\n", message);
  std::exit(1);
}

void Run() {
  const engine::Catalog catalog = workloads::TraceCatalog();
  const QueryJournal journal = workloads::TraceJournal(40000, 17);
  Classifier classifier(catalog, {Granularity::kTable, 4, true});
  Classification cls = ValueOrDie(classifier.Classify(journal), "classify");

  const auto trace = workloads::SampleDay(17);
  std::vector<BucketDemand> day;
  day.reserve(trace.size());
  for (const workloads::TracePoint& point : trace) {
    BucketDemand demand;
    demand.tod_seconds = point.tod_seconds;
    demand.offered_qps =
        std::max(point.requests_per_10min * kTraceMultiplier / 600.0, 0.5);
    day.push_back(demand);
  }

  const AdaptiveReport autonomic = Replay(cls, 1, kMaxNodes, day, "autonomic");
  const AdaptiveReport fixed =
      Replay(cls, kMaxNodes, kMaxNodes, day, "static");

  PrintHeader("Section 5 Figures 4+5: diurnal trace, hourly samples",
              {"time", "req/10min", "nodes", "resp(ms)", "static(ms)"}, 12);
  for (size_t i = 0; i < autonomic.steps.size(); i += 6) {  // Hourly.
    const AdaptiveStep& step = autonomic.steps[i];
    const int hour = static_cast<int>(step.tod_seconds / 3600.0);
    PrintRow({std::to_string(hour) + ":00",
              Fmt(trace[i].requests_per_10min, 0), std::to_string(step.nodes),
              Fmt(step.avg_ms, 1), Fmt(fixed.steps[i].avg_ms, 1)},
             12);
  }
  double moved = 0.0;
  for (const TransitionRecord& t : autonomic.transitions) {
    moved += t.moved_bytes;
  }
  std::printf(
      "\noverall: autonomic avg response %.1f ms (worst p99 %.1f ms) vs "
      "static-%zu cluster %.1f ms; node-hours %.1f vs %.1f (%.0f%% saved); "
      "%zu scale-outs + %zu scale-ins moving %s\n",
      WeightedAvgMs(autonomic), autonomic.worst_p99_ms, kMaxNodes,
      WeightedAvgMs(fixed), autonomic.node_seconds / 3600.0,
      fixed.node_seconds / 3600.0,
      100.0 * (1.0 - autonomic.node_seconds / fixed.node_seconds),
      autonomic.scale_outs, autonomic.scale_ins, FormatBytes(moved).c_str());
  std::printf(
      "paper shape: nodes track the request curve; avg response ~10 ms, "
      "never above ~50 ms; throughput never below the static maximum "
      "cluster.\n");

  // Acceptance + determinism guards.
  size_t trough = kMaxNodes;
  size_t peak = 0;
  for (const AdaptiveStep& step : autonomic.steps) {
    trough = std::min(trough, step.nodes);
    peak = std::max(peak, step.nodes);
  }
  if (trough != 1) Fail("the night trough must run on one node");
  if (peak <= 2) Fail("the daytime peak must grow the cluster past 2 nodes");
  if (!(autonomic.node_seconds < 0.8 * fixed.node_seconds)) {
    Fail("autonomic scaling must save >= 20% of the static node-seconds");
  }
  if (!fixed.transitions.empty()) {
    Fail("the static cluster must never transition");
  }
  if (Serialize(autonomic) !=
      Serialize(Replay(cls, 1, kMaxNodes, day, "rerun"))) {
    Fail("autonomic day replay is not deterministic");
  }
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E15/E16: autonomic scaling on the diurnal trace\n");
  qcap::bench::Run();
  return 0;
}

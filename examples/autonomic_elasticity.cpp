// Autonomic elasticity: replay a diurnal workload trace through the
// AdaptiveController with only its scale-out/in path armed (Section 5) and
// print how the cluster grows through the day and shrinks at night,
// including the data moved at each resize (planned by Hungarian matching
// and executed as a live migration).
//
// Build & run:  ./build/examples/autonomic_elasticity
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "alloc/greedy.h"
#include "autonomic/control_loop.h"
#include "common/strings.h"
#include "workload/classifier.h"
#include "workloads/trace.h"

using namespace qcap;

int main() {
  const engine::Catalog catalog = workloads::TraceCatalog();
  const QueryJournal journal = workloads::TraceJournal(40000, 99);
  Classifier classifier(catalog, {Granularity::kTable, 4, true});
  auto cls = classifier.Classify(journal);
  if (!cls.ok()) {
    std::fprintf(stderr, "%s\n", cls.status().ToString().c_str());
    return 1;
  }

  // Scale out when p99 breaks the SLO on a busy cluster, scale in when it
  // idles; no drift re-allocation (the trace's mix does not shift).
  AdaptiveOptions options;
  options.slo_p99_ms = 45.0;
  options.scale_up_utilization = 0.4;
  options.scale_down_utilization = 0.35;
  options.scale_down_headroom = 1.0;
  options.min_nodes = 1;
  options.max_nodes = 6;
  options.drift_threshold = std::numeric_limits<double>::infinity();
  options.cooldown_buckets = 0;
  options.slice_seconds = 6.0;
  options.sim.cost_params.memory_bytes = 8.0 * 1024 * 1024 * 1024;
  options.sim.cost_params.io_fraction = 0.4;
  options.sim.servers_per_backend = 4;

  GreedyAllocator greedy;
  AdaptiveController controller(cls.value(), &greedy, options);
  Status installed = controller.Install(options.min_nodes);
  if (!installed.ok()) {
    std::fprintf(stderr, "%s\n", installed.ToString().c_str());
    return 1;
  }

  // The trace counts requests per 10-minute bucket; x150 makes the daytime
  // peak exceed one simulated backend.
  std::vector<BucketDemand> day;
  for (const workloads::TracePoint& point : workloads::SampleDay(99)) {
    BucketDemand demand;
    demand.tod_seconds = point.tod_seconds;
    demand.offered_qps =
        std::max(point.requests_per_10min * 150.0 / 600.0, 0.5);
    day.push_back(demand);
  }
  auto result = controller.ReplayDay(day, FaultPlan{});
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("time   load(q/s)  nodes  avg-response  moved\n");
  size_t last_nodes = 0;
  for (const AdaptiveStep& step : result->steps) {
    // The transition whose routing swap landed in this bucket, if any.
    double moved = 0.0;
    for (const TransitionRecord& t : result->transitions) {
      if (t.completed && t.swap_seconds >= step.tod_seconds &&
          t.swap_seconds < step.tod_seconds + options.bucket_seconds) {
        moved += t.moved_bytes;
      }
    }
    const bool resized = step.nodes != last_nodes || moved > 0.0;
    // Print hourly samples plus every resize event.
    const bool hourly = static_cast<int>(step.tod_seconds) % 3600 == 0;
    if (hourly || resized) {
      std::printf("%02d:%02d   %8.1f   %4zu   %8.1f ms   %s%s\n",
                  static_cast<int>(step.tod_seconds / 3600.0),
                  (static_cast<int>(step.tod_seconds) % 3600) / 60,
                  step.offered_qps, step.nodes, step.avg_ms,
                  moved > 0.0 ? FormatBytes(moved).c_str() : "-",
                  resized && !hourly ? "  <- resize" : "");
    }
    last_nodes = step.nodes;
  }
  std::printf(
      "\nday summary: worst p99 %.1f ms, %zu scale-outs + %zu scale-ins, "
      "%.1f node-hours (a static %zu-node cluster would burn %.1f)\n",
      result->worst_p99_ms, result->scale_outs, result->scale_ins,
      result->node_seconds / 3600.0, options.max_nodes,
      static_cast<double>(options.max_nodes) * 24.0);
  return 0;
}

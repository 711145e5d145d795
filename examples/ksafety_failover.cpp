// K-safety failover drill: allocate the TPC-App workload with k = 0, 1, 2,
// kill each backend in turn and check whether the surviving cluster can
// still execute every query class locally (Algorithm 3, Appendix C) —
// then run a full crash -> repair -> recover lifecycle through the
// adaptive control loop's self-heal.
//
// Build & run:  ./build/examples/ksafety_failover
#include <cstdio>
#include <limits>
#include <vector>

#include "alloc/greedy.h"
#include "alloc/ksafety.h"
#include "autonomic/control_loop.h"
#include "model/metrics.h"
#include "model/validation.h"
#include "workload/classifier.h"
#include "workloads/tpcapp.h"

using namespace qcap;

namespace {

/// Counts how many single-backend failures the allocation survives with
/// every query class still executable somewhere (Algorithm 3 at k = 0 on
/// each degraded cluster).
size_t SurvivedFailures(const Classification& cls, const Allocation& alloc) {
  size_t survived = 0;
  for (size_t dead = 0; dead < alloc.num_backends(); ++dead) {
    std::vector<bool> alive(alloc.num_backends(), true);
    alive[dead] = false;
    if (CheckKSafety(cls, alloc, alive, 0).ok()) ++survived;
  }
  return survived;
}

}  // namespace

int main() {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(200000);
  Classifier classifier(catalog, {Granularity::kTable, 4, true});
  auto cls = classifier.Classify(journal);
  if (!cls.ok()) {
    std::fprintf(stderr, "%s\n", cls.status().ToString().c_str());
    return 1;
  }
  const auto backends = HomogeneousBackends(6);

  std::printf("TPC-App on 6 backends: failure drill\n");
  std::printf("%-10s %14s %14s %22s\n", "allocator", "replication",
              "model speedup", "survives (of 6 kills)");
  for (int k : {0, 1, 2}) {
    KSafetyOptions opts;
    opts.k = k;
    KSafeGreedyAllocator allocator(opts);
    auto alloc = allocator.Allocate(cls.value(), backends);
    if (!alloc.ok()) {
      std::fprintf(stderr, "k=%d failed: %s\n", k,
                   alloc.status().ToString().c_str());
      return 1;
    }
    const size_t survived = SurvivedFailures(cls.value(), alloc.value());
    std::printf("%-10s %14.2f %14.2f %16zu/6\n",
                allocator.name().c_str(),
                DegreeOfReplication(alloc.value(), cls->catalog),
                Speedup(alloc.value(), backends), survived);
  }
  std::printf(
      "\ntakeaway: k=0 loses query classes when the wrong backend dies; "
      "k=1 survives any single failure (k=2 any double failure) at the "
      "cost of extra storage and, for update classes, extra write work.\n");

  // Crash -> repair -> recover: the control loop re-checks k-safety at the
  // end of every 1 s interval (Algorithm 3); after the crash it re-plans
  // onto the survivors plus a replacement and migrates live until the
  // atomic routing swap.
  std::printf("\ncrash -> repair -> recover (adaptive control loop)\n");
  KSafeGreedyAllocator ksafe({1, 1e-12, 0});
  AdaptiveOptions options;
  options.min_nodes = options.max_nodes = backends.size();
  options.k_safety = 1;
  options.drift_threshold = std::numeric_limits<double>::infinity();
  options.slo_p99_ms = 1e9;
  options.cooldown_buckets = 0;
  options.bucket_seconds = 1.0;
  options.slice_seconds = 1.0;
  options.sim.seed = 9;
  AdaptiveController controller(cls.value(), &ksafe, options);
  Status installed = controller.Install(backends.size());
  if (!installed.ok()) {
    std::fprintf(stderr, "%s\n", installed.ToString().c_str());
    return 1;
  }
  std::vector<BucketDemand> day(60);
  for (size_t i = 0; i < day.size(); ++i) {
    day[i].tod_seconds = static_cast<double>(i);
    day[i].offered_qps = 400.0;
  }
  const size_t victim = 2;
  const double crash_seconds = 20.0;
  FaultPlan faults;
  faults.Crash(crash_seconds, victim);
  auto healed = controller.ReplayDay(day, faults);
  if (!healed.ok()) {
    std::fprintf(stderr, "%s\n", healed.status().ToString().c_str());
    return 1;
  }
  for (const TransitionRecord& t : healed->transitions) {
    if (t.action != AdaptiveAction::kSelfHeal || !t.completed) continue;
    std::printf(
        "  backend %zu crashed at t=%.1fs; decided at t=%.1fs: %s\n"
        "  repair ETL moves %.2f GB; routing swapped to the repaired layout "
        "at t=%.1fs (recovery %.1fs)\n",
        victim + 1, crash_seconds, t.decided_seconds, t.cause.c_str(),
        t.moved_bytes / (1024.0 * 1024.0 * 1024.0), t.swap_seconds,
        t.swap_seconds - crash_seconds);
  }
  uint64_t rejected = 0;
  uint64_t failed = 0;
  for (const AdaptiveStep& step : healed->steps) {
    rejected += step.rejected;
    failed += step.failed;
  }
  std::printf(
      "  served %.2f%% of the offered load (rejected=%llu, failed=%llu)\n",
      healed->availability * 100.0, static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(failed));
  return 0;
}

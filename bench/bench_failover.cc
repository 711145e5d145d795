// E27: failure/recovery lifecycle -- what k-safety and the self-healing
// control loop buy when a backend crashes mid-run.
//
// TPC-App on 5 backends, open loop. A 0-safe greedy allocation loses
// exclusively-held classes when their backend dies (rejections until the
// horizon); a k=1-safe allocation serves the whole offered load through the
// crash (only retries/redispatches), and the AdaptiveController, replaying
// the same crash in 1 s control intervals, detects the k-safety violation,
// migrates live onto the survivors plus a replacement, and reports a finite
// recovery time (crash to routing swap). The timeline section shows the
// throughput dip and recovery around the fault. Every run is
// bit-deterministic for the fixed seed; the bench re-runs the self-healing
// scenario and fails loudly if any counter differs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "alloc/greedy.h"
#include "alloc/ksafety.h"
#include "autonomic/control_loop.h"
#include "bench_util.h"
#include "workloads/tpcapp.h"

namespace qcap::bench {
namespace {

constexpr double kDuration = 60.0;
constexpr double kRate = 4000.0;
constexpr double kCrashTime = 20.0;
constexpr uint64_t kSeed = 9;
// Crash scenarios run as replication sweeps (seeds 9..11) fanned over the
// thread pool; the table shows the base seed and the acceptance guards
// check every replication.
constexpr size_t kReplications = 3;

/// The backend whose death hurts the 0-safe allocation most: the exclusive
/// server of some read class (killing it makes that class unservable).
size_t PickVictim(const Pipeline& p) {
  for (const QueryClass& c : p.cls.reads) {
    size_t capable = 0;
    size_t last = 0;
    for (size_t b = 0; b < p.backends.size(); ++b) {
      if (p.alloc.HoldsAll(b, c.fragments)) {
        ++capable;
        last = b;
      }
    }
    if (capable == 1) return last;
  }
  return 0;
}

SimulationConfig BaseConfig() {
  SimulationConfig config;
  config.cost_params = TpcAppCostParams();
  config.seed = kSeed;
  config.servers_per_backend = 4;
  config.timeline_bin_seconds = 5.0;
  return config;
}

void PrintStatsRow(const char* label, const SimStats& stats) {
  PrintRow({label, Fmt(stats.throughput, 1),
            Fmt(stats.availability * 100.0, 3),
            std::to_string(stats.rejected_requests),
            std::to_string(stats.failed_requests),
            std::to_string(stats.retried_requests),
            std::to_string(stats.redispatched_requests),
            Fmt(stats.p99_response_seconds * 1e3, 2), "-"},
           13);
}

/// The crash replayed through the AdaptiveController in 1 s control
/// intervals, with only the self-heal path armed (fixed size, no drift or
/// SLO decisions): the first interval boundary after the crash sees the
/// Algorithm-3 violation and begins a live migration onto survivors + a
/// replacement.
AdaptiveReport SelfHeal(const Pipeline& p, Allocator* allocator,
                        size_t victim) {
  AdaptiveOptions options;
  options.min_nodes = options.max_nodes = p.backends.size();
  options.k_safety = 1;
  options.drift_threshold = std::numeric_limits<double>::infinity();
  options.slo_p99_ms = 1e9;
  options.cooldown_buckets = 0;
  options.bucket_seconds = 1.0;
  options.slice_seconds = 1.0;
  options.sim = BaseConfig();
  AdaptiveController controller(p.cls, allocator, options);
  CheckOk(controller.Install(p.backends.size()), "self-heal install");
  std::vector<BucketDemand> day(static_cast<size_t>(kDuration));
  for (size_t i = 0; i < day.size(); ++i) {
    day[i].tod_seconds = static_cast<double>(i);
    day[i].offered_qps = kRate;
  }
  FaultPlan faults;
  faults.Crash(kCrashTime, victim);
  return ValueOrDie(controller.ReplayDay(day, faults), "self-healing run");
}

/// The self-heal run as a table row: the totals over its control
/// intervals. The controller does not report retries, and its p99 is the
/// worst interval's.
void PrintHealRow(const AdaptiveReport& report, double recovery) {
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;
  for (const AdaptiveStep& step : report.steps) {
    completed += step.completed;
    rejected += step.rejected;
    failed += step.failed;
  }
  PrintRow({"self-heal", Fmt(static_cast<double>(completed) / kDuration, 1),
            Fmt(report.availability * 100.0, 3), std::to_string(rejected),
            std::to_string(failed), "-", "-", Fmt(report.worst_p99_ms, 2),
            Fmt(recovery, 2)},
           13);
}

void PrintTimeline(const char* label, const SimStats& stats) {
  std::printf("%s timeline (completions per %.0fs bin):", label,
              stats.timeline_bin_seconds);
  for (uint64_t c : stats.timeline_completions) {
    std::printf(" %llu", static_cast<unsigned long long>(c));
  }
  std::printf("\n");
}

void Run() {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(100000);

  GreedyAllocator greedy;
  KSafeGreedyAllocator ksafe({1, 1e-12, 0});
  Pipeline unsafe = ValueOrDie(
      BuildPipeline(catalog, journal, Granularity::kTable, &greedy, 5),
      "greedy pipeline");
  Pipeline safe = ValueOrDie(
      BuildPipeline(catalog, journal, Granularity::kTable, &ksafe, 5),
      "ksafe pipeline");

  const size_t victim = PickVictim(unsafe);
  PrintHeader("crash of backend " + std::to_string(victim + 1) + " at t=" +
                  Fmt(kCrashTime, 0) + "s (" + Fmt(kDuration, 0) + "s at " +
                  Fmt(kRate, 0) + " q/s)",
              {"allocation", "thrpt q/s", "avail %", "rejected", "failed",
               "retried", "redisp", "p99 ms", "recov s"},
              13);

  const auto simulate = [&](const Pipeline& p, const SimulationConfig& config) {
    auto sim = ValueOrDie(
        ClusterSimulator::Create(p.cls, p.alloc, p.backends, config),
        "simulator");
    SweepOptions sweep;
    sweep.repeat = kReplications;
    sweep.threads = ThreadPool::DefaultThreads();
    return ValueOrDie(sim.RunOpenSweep(kDuration, kRate, sweep),
                      "open-loop sweep");
  };

  SimulationConfig healthy_config = BaseConfig();
  const std::vector<SimStats> healthy = simulate(safe, healthy_config);
  PrintStatsRow("no fault", healthy[0]);

  SimulationConfig crash_config = BaseConfig();
  crash_config.fault_plan.Crash(kCrashTime, victim);
  const std::vector<SimStats> unsafe_crash = simulate(unsafe, crash_config);
  PrintStatsRow("greedy k=0", unsafe_crash[0]);
  const std::vector<SimStats> safe_crash = simulate(safe, crash_config);
  PrintStatsRow("ksafe k=1", safe_crash[0]);

  // Self-heal: same crash, but the control loop notices the lost
  // redundancy and migrates live onto survivors + a replacement.
  const AdaptiveReport healed = SelfHeal(safe, &ksafe, victim);
  const TransitionRecord* heal = nullptr;
  for (const TransitionRecord& t : healed.transitions) {
    if (t.action == AdaptiveAction::kSelfHeal && t.completed) heal = &t;
  }
  const double recovery =
      heal != nullptr ? heal->swap_seconds - kCrashTime : 0.0;
  PrintHealRow(healed, recovery);

  std::printf("\n");
  PrintTimeline("greedy k=0", unsafe_crash[0]);
  PrintTimeline("ksafe k=1 ", safe_crash[0]);
  std::printf("self-heal  timeline (completions per %.0fs bin):",
              healthy_config.timeline_bin_seconds);
  const size_t bin = static_cast<size_t>(healthy_config.timeline_bin_seconds);
  for (size_t i = 0; i < healed.steps.size(); i += bin) {
    uint64_t completed = 0;
    for (size_t j = i; j < std::min(i + bin, healed.steps.size()); ++j) {
      completed += healed.steps[j].completed;
    }
    std::printf(" %llu", static_cast<unsigned long long>(completed));
  }
  std::printf("\n");

  if (heal != nullptr) {
    std::printf(
        "\nself-heal: backend %zu crashed t=%.1fs, decided t=%.1fs (%s), "
        "ETL %.3f GB in %.1fs, routing swap t=%.1fs (recovery %.1fs)\n",
        victim + 1, kCrashTime, heal->decided_seconds, heal->cause.c_str(),
        heal->moved_bytes / (1024.0 * 1024.0 * 1024.0), heal->etl_seconds,
        heal->swap_seconds, recovery);
  }

  // Acceptance + determinism guards: fail loudly if the lifecycle
  // guarantees regress in any replication.
  for (const SimStats& run : unsafe_crash) {
    if (run.rejected_requests == 0) {
      std::fprintf(stderr, "FATAL: 0-safe crash should reject requests\n");
      std::exit(1);
    }
  }
  for (const SimStats& run : safe_crash) {
    if (run.rejected_requests != 0 || run.failed_requests != 0) {
      std::fprintf(stderr, "FATAL: k=1-safe crash must serve the full load\n");
      std::exit(1);
    }
  }
  if (heal == nullptr || !(recovery > 0.0) || healed.self_heals != 1) {
    std::fprintf(stderr, "FATAL: self-healing must report a finite repair\n");
    std::exit(1);
  }
  if (healed.availability != 1.0) {
    std::fprintf(stderr, "FATAL: the self-heal run must serve the full load\n");
    std::exit(1);
  }
  if (Serialize(healed) != Serialize(SelfHeal(safe, &ksafe, victim))) {
    std::fprintf(stderr, "FATAL: self-healing run is not deterministic\n");
    std::exit(1);
  }
  std::printf(
      "\npaper shape: k-safety turns a crash from rejected requests into "
      "retries; the autonomic controller restores redundancy in finite "
      "time (deterministic re-run verified).\n");
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E27: failure/recovery lifecycle (fault injection + "
              "self-healing)\n");
  qcap::bench::Run();
  return 0;
}

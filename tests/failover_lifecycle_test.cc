// Failure/recovery lifecycle: edge-case fault schedules, retry/backoff
// determinism, straggler degradation, and percentiles. The self-healing
// control loop is pinned in control_loop_test.
#include <gtest/gtest.h>

#include "alloc/greedy.h"
#include "alloc/ksafety.h"
#include "cluster/simulator.h"
#include "workload/classifier.h"
#include "workloads/tpcapp.h"

namespace qcap {
namespace {

struct Fixture {
  engine::Catalog catalog = workloads::TpcAppCatalog(100.0);
  Classification cls;
  std::vector<BackendSpec> backends = HomogeneousBackends(5);

  Fixture() {
    Classifier classifier(catalog, {Granularity::kTable, 4, true});
    auto result = classifier.Classify(workloads::TpcAppJournal(20000));
    EXPECT_TRUE(result.ok());
    cls = std::move(result).value();
  }

  Result<SimStats> RunOpen(const Allocation& alloc, SimulationConfig config,
                           double duration = 30.0, double rate = 400.0) {
    config.seed = 9;
    QCAP_ASSIGN_OR_RETURN(
        ClusterSimulator sim,
        ClusterSimulator::Create(cls, alloc, backends, config));
    return sim.RunOpen(duration, rate);
  }

  Allocation Greedy() {
    GreedyAllocator greedy;
    auto alloc = greedy.Allocate(cls, backends);
    EXPECT_TRUE(alloc.ok());
    return std::move(alloc).value();
  }

  Allocation KSafe(int k) {
    KSafeGreedyAllocator ksafe({k, 1e-12, 0});
    auto alloc = ksafe.Allocate(cls, backends);
    EXPECT_TRUE(alloc.ok()) << alloc.status().ToString();
    return std::move(alloc).value();
  }
};

bool SameStats(const SimStats& a, const SimStats& b) {
  return a.duration_seconds == b.duration_seconds &&
         a.completed_reads == b.completed_reads &&
         a.completed_updates == b.completed_updates &&
         a.failed_requests == b.failed_requests &&
         a.rejected_requests == b.rejected_requests &&
         a.retried_requests == b.retried_requests &&
         a.redispatched_requests == b.redispatched_requests &&
         a.lag_tasks_drained == b.lag_tasks_drained &&
         a.throughput == b.throughput &&
         a.avg_response_seconds == b.avg_response_seconds &&
         a.max_response_seconds == b.max_response_seconds &&
         a.p50_response_seconds == b.p50_response_seconds &&
         a.p95_response_seconds == b.p95_response_seconds &&
         a.p99_response_seconds == b.p99_response_seconds &&
         a.availability == b.availability &&
         a.backend_busy_seconds == b.backend_busy_seconds &&
         a.timeline_completions == b.timeline_completions;
}

TEST(FailoverLifecycleTest, CrashAtTimeZero) {
  Fixture fx;
  Allocation alloc = fx.KSafe(1);
  SimulationConfig config;
  config.fault_plan.Crash(0.0, 0);
  auto stats = fx.RunOpen(alloc, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The backend dies before serving anything; the k=1-safe layout carries
  // the full load on the survivors.
  EXPECT_EQ(stats->rejected_requests, 0u);
  EXPECT_EQ(stats->failed_requests, 0u);
  EXPECT_NEAR(stats->backend_busy_seconds[0], 0.0, 1e-12);
  EXPECT_GT(stats->completed_total(), 10000u);
}

TEST(FailoverLifecycleTest, CrashAfterHorizonIsInert) {
  Fixture fx;
  Allocation alloc = fx.KSafe(1);
  SimulationConfig healthy_config;
  SimulationConfig late_config;
  late_config.fault_plan.Crash(1e6, 0);
  auto healthy = fx.RunOpen(alloc, healthy_config);
  auto late = fx.RunOpen(alloc, late_config);
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(late.ok());
  // A crash scheduled beyond the last arrival's completion changes nothing
  // except the recorded horizon.
  EXPECT_EQ(healthy->completed_total(), late->completed_total());
  EXPECT_EQ(late->rejected_requests, 0u);
  EXPECT_EQ(healthy->avg_response_seconds, late->avg_response_seconds);
}

TEST(FailoverLifecycleTest, AllBackendsDownTerminatesWithAllReadsRejected) {
  Fixture fx;
  Allocation alloc = fx.Greedy();
  SimulationConfig config;
  config.seed = 9;
  for (size_t b = 0; b < 5; ++b) config.fault_plan.Crash(0.0, b);
  auto sim = ClusterSimulator::Create(fx.cls, alloc, fx.backends, config);
  ASSERT_TRUE(sim.ok());
  // Closed loop: with every backend down at t=0 no request can ever be
  // served, but the run must still terminate (rejections count as terminal
  // states that admit the next request).
  auto stats = sim->RunClosed(5000, 8);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->completed_total(), 0u);
  EXPECT_EQ(stats->rejected_requests + stats->failed_requests, 5000u);
  EXPECT_EQ(stats->availability, 0.0);
}

TEST(FailoverLifecycleTest, KCrashesUnderKSafeAllocationServeEverything) {
  Fixture fx;
  for (int k = 1; k <= 2; ++k) {
    Allocation alloc = fx.KSafe(k);
    SimulationConfig config;
    for (int i = 0; i < k; ++i) {
      config.fault_plan.Crash(5.0 + i, static_cast<size_t>(i));
    }
    auto stats = fx.RunOpen(alloc, config);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    // k crashes under a k-safe allocation: reads always have a surviving
    // candidate, and the retry policy re-dispatches stranded work, so no
    // request is rejected or abandoned.
    EXPECT_EQ(stats->rejected_requests, 0u) << "k=" << k;
    EXPECT_EQ(stats->failed_requests, 0u) << "k=" << k;
    EXPECT_EQ(stats->availability, 1.0) << "k=" << k;
  }
}

TEST(FailoverLifecycleTest, CrashProducesRetriesAndRecoveryDrainsLag) {
  Fixture fx;
  Allocation alloc = fx.KSafe(1);
  SimulationConfig config;
  config.seed = 9;
  // Saturated closed loop: the crash is guaranteed to strand queued or
  // in-flight work.
  config.fault_plan.Crash(0.5, 1).Recover(2.0, 1);
  auto sim = ClusterSimulator::Create(fx.cls, alloc, fx.backends, config);
  ASSERT_TRUE(sim.ok());
  auto stats = sim->RunClosed(20000, 16);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Stranded work was re-dispatched, and updates missed during the outage
  // were applied as replica lag when the backend rejoined.
  EXPECT_GT(stats->retried_requests, 0u);
  EXPECT_GT(stats->redispatched_requests, 0u);
  EXPECT_GT(stats->lag_tasks_drained, 0u);
  EXPECT_EQ(stats->rejected_requests, 0u);
  EXPECT_EQ(stats->failed_requests, 0u);
}

TEST(FailoverLifecycleTest, DisabledRetriesFailStrandedWork) {
  Fixture fx;
  Allocation alloc = fx.KSafe(1);
  SimulationConfig config;
  config.seed = 9;
  config.retry.max_attempts = 1;  // pre-FaultPlan behaviour
  config.fault_plan.Crash(0.5, 1);
  auto sim = ClusterSimulator::Create(fx.cls, alloc, fx.backends, config);
  ASSERT_TRUE(sim.ok());
  auto stats = sim->RunClosed(20000, 16);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->failed_requests, 0u);
  EXPECT_EQ(stats->retried_requests, 0u);
  EXPECT_LT(stats->availability, 1.0);
}

TEST(FailoverLifecycleTest, DegradedStragglerRaisesTailLatency) {
  Fixture fx;
  Allocation alloc = fx.KSafe(1);
  SimulationConfig healthy_config;
  SimulationConfig straggler_config;
  straggler_config.fault_plan.Degrade(0.0, 0, 8.0);
  auto healthy = fx.RunOpen(alloc, healthy_config);
  auto degraded = fx.RunOpen(alloc, straggler_config);
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(degraded.ok());
  // An 8x straggler serves the same requests more slowly: latency grows
  // (mean and worst case; percentiles never shrink), and nothing is
  // rejected (the node is slow, not dead).
  EXPECT_GT(degraded->avg_response_seconds, healthy->avg_response_seconds);
  EXPECT_GT(degraded->max_response_seconds, healthy->max_response_seconds);
  EXPECT_GE(degraded->p99_response_seconds, healthy->p99_response_seconds);
  EXPECT_GT(degraded->backend_busy_seconds[0], healthy->backend_busy_seconds[0]);
  EXPECT_EQ(degraded->rejected_requests, 0u);
  EXPECT_EQ(degraded->completed_total(), healthy->completed_total());
}

TEST(FailoverLifecycleTest, PercentilesAreOrdered) {
  Fixture fx;
  Allocation alloc = fx.KSafe(1);
  SimulationConfig config;
  config.fault_plan.Crash(10.0, 1).Recover(15.0, 1);
  auto stats = fx.RunOpen(alloc, config);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->p50_response_seconds, 0.0);
  EXPECT_LE(stats->p50_response_seconds, stats->p95_response_seconds);
  EXPECT_LE(stats->p95_response_seconds, stats->p99_response_seconds);
  EXPECT_LE(stats->p99_response_seconds, stats->max_response_seconds);
  EXPECT_LE(stats->avg_response_seconds, stats->max_response_seconds);
}

TEST(FailoverLifecycleTest, RetriesAreBitDeterministic) {
  Fixture fx;
  Allocation alloc = fx.KSafe(1);
  SimulationConfig config;
  config.seed = 9;
  config.fault_plan.Crash(0.5, 0).Recover(2.0, 0).Degrade(3.0, 1, 3.0);
  config.timeline_bin_seconds = 1.0;
  const auto run = [&]() {
    auto sim = ClusterSimulator::Create(fx.cls, alloc, fx.backends, config);
    EXPECT_TRUE(sim.ok());
    return sim->RunClosed(20000, 16);
  };
  auto first = run();
  auto second = run();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->retried_requests, 0u);
  EXPECT_TRUE(SameStats(*first, *second));
}

TEST(FailoverLifecycleTest, TimelineBinsCountEveryCompletion) {
  Fixture fx;
  Allocation alloc = fx.KSafe(1);
  SimulationConfig config;
  config.timeline_bin_seconds = 1.0;
  config.fault_plan.Crash(10.0, 1).Recover(20.0, 1);
  auto stats = fx.RunOpen(alloc, config);
  ASSERT_TRUE(stats.ok());
  uint64_t binned = 0;
  for (uint64_t c : stats->timeline_completions) binned += c;
  EXPECT_EQ(binned, stats->completed_total());
  EXPECT_EQ(stats->timeline_bin_seconds, 1.0);
}

}  // namespace
}  // namespace qcap

#include "cluster/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "cluster/backend_node.h"
#include "test_util.h"

namespace qcap {
namespace {

SimulationConfig LightConfig(uint64_t seed = 1) {
  SimulationConfig config;
  config.cost_params.memory_bytes = 1e12;  // Disable cache effects.
  config.servers_per_backend = 1;
  config.seed = seed;
  return config;
}

TEST(BackendNodeTest, QueueAndServers) {
  BackendNode node(2);
  EXPECT_EQ(node.pending(), 0u);
  node.Enqueue(BackendTask{0, 1.0, 0.0});
  node.Enqueue(BackendTask{1, 1.0, 0.0});
  node.Enqueue(BackendTask{2, 1.0, 0.0});
  EXPECT_EQ(node.pending(), 3u);
  BackendTask task;
  double completion;
  ASSERT_TRUE(node.StartNext(0.0, &task, &completion));
  EXPECT_DOUBLE_EQ(completion, 1.0);
  ASSERT_TRUE(node.StartNext(0.0, &task, &completion));
  EXPECT_DOUBLE_EQ(completion, 1.0);  // Second server.
  EXPECT_FALSE(node.CanStart(0.0));   // Both busy.
  EXPECT_TRUE(node.CanStart(1.0));
  node.FinishOne(1.0);
  EXPECT_EQ(node.pending(), 2u);
  EXPECT_DOUBLE_EQ(node.busy_seconds(), 1.0);
}

TEST(SimulatorTest, SingleBackendThroughputMatchesServiceTime) {
  // One backend, one read class with mean cost 10ms and no io scaling:
  // throughput ~ 1/service.
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 0.010, false, "Q1", {}}};
  Allocation a(1, 1, 1, 0);
  a.Place(0, 0);
  a.set_read_assign(0, 0, 1.0);
  auto sim = ClusterSimulator::Create(cls, a, HomogeneousBackends(1),
                                      LightConfig());
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  auto stats = sim->RunClosed(2000, 4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->completed_total(), 2000u);
  EXPECT_NEAR(stats->throughput, 100.0, 5.0);
}

TEST(SimulatorTest, ReadOnlyFullReplicationScalesLinearly) {
  const Classification cls = testutil::Figure2Classification();
  FullReplicationAllocator full;
  std::vector<double> throughput;
  for (size_t n : {1, 4}) {
    const auto backends = HomogeneousBackends(n);
    auto alloc = full.Allocate(cls, backends);
    ASSERT_TRUE(alloc.ok());
    auto sim = ClusterSimulator::Create(cls, alloc.value(), backends,
                                        LightConfig());
    ASSERT_TRUE(sim.ok());
    auto stats = sim->RunClosed(4000, 4 * n);
    ASSERT_TRUE(stats.ok());
    throughput.push_back(stats->throughput);
  }
  EXPECT_NEAR(throughput[1] / throughput[0], 4.0, 0.4);
}

TEST(SimulatorTest, UpdatesFanOutButCountOnce) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 0.5, 0.01, false, "Q1", {}}};
  cls.updates = {QueryClass{{0}, 0.5, 0.01, true, "U1", {}}};
  // Two backends, both hold A -> every update runs on both.
  Allocation a(2, 1, 1, 1);
  a.Place(0, 0);
  a.Place(1, 0);
  a.set_read_assign(0, 0, 0.25);
  a.set_read_assign(1, 0, 0.25);
  a.set_update_assign(0, 0, 0.5);
  a.set_update_assign(1, 0, 0.5);
  const auto backends = HomogeneousBackends(2);
  auto sim = ClusterSimulator::Create(cls, a, backends, LightConfig());
  ASSERT_TRUE(sim.ok());
  auto stats = sim->RunClosed(1000, 4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->completed_total(), 1000u);
  EXPECT_GT(stats->completed_updates, 300u);
  // Updates ran on both backends: total busy time exceeds 1000 x 10ms.
  const double busy_total =
      stats->backend_busy_seconds[0] + stats->backend_busy_seconds[1];
  EXPECT_GT(busy_total, 1000 * 0.010 * 1.2);
}

TEST(SimulatorTest, SchedulerRejectsUnservableClass) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 0.01, false, "Q1", {}}};
  Allocation a(1, 1, 1, 0);  // A placed nowhere.
  auto sim =
      ClusterSimulator::Create(cls, a, HomogeneousBackends(1), LightConfig());
  EXPECT_FALSE(sim.ok());
}

TEST(SimulatorTest, RejectsClassificationWithoutClasses) {
  // No class to draw: both run modes used to index class SIZE_MAX.
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  Allocation a(1, 1, 0, 0);
  a.Place(0, 0);
  auto sim =
      ClusterSimulator::Create(cls, a, HomogeneousBackends(1), LightConfig());
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimulatorTest, RejectsNegativeOrNonFiniteFrequency) {
  for (double weight : {-0.5, std::nan(""), HUGE_VAL}) {
    Classification cls;
    ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
    cls.reads = {QueryClass{{0}, 1.0, 0.01, false, "Q1", {}},
                 QueryClass{{0}, weight, 0.01, false, "Q2", {}}};
    Allocation a(1, 1, 2, 0);
    a.Place(0, 0);
    a.set_read_assign(0, 0, 1.0);
    auto sim =
        ClusterSimulator::Create(cls, a, HomogeneousBackends(1), LightConfig());
    ASSERT_FALSE(sim.ok()) << "weight " << weight;
    EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SimulatorTest, SingleClassRunsClosedAndOpenLoop) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 0.01, false, "Q1", {}}};
  Allocation a(2, 1, 1, 0);
  a.Place(0, 0);
  a.Place(1, 0);
  a.set_read_assign(0, 0, 0.5);
  a.set_read_assign(1, 0, 0.5);
  SimulationConfig config = LightConfig();
  config.track_class_mix = true;
  auto sim = ClusterSimulator::Create(cls, a, HomogeneousBackends(2), config);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  auto closed = sim->RunClosed(500, 4);
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->completed_reads, 500u);
  EXPECT_EQ(closed->class_completions, std::vector<uint64_t>{500});
  auto open = sim->RunOpen(10.0, 20.0);
  ASSERT_TRUE(open.ok());
  EXPECT_GT(open->completed_reads, 0u);
  EXPECT_EQ(open->class_completions,
            std::vector<uint64_t>{open->completed_reads});
}

TEST(SimulatorTest, DeterministicForSeed) {
  const Classification cls = testutil::Figure2Classification();
  GreedyAllocator greedy;
  const auto backends = HomogeneousBackends(3);
  auto alloc = greedy.Allocate(cls, backends);
  ASSERT_TRUE(alloc.ok());
  auto sim1 =
      ClusterSimulator::Create(cls, alloc.value(), backends, LightConfig(9));
  auto sim2 =
      ClusterSimulator::Create(cls, alloc.value(), backends, LightConfig(9));
  ASSERT_TRUE(sim1.ok());
  ASSERT_TRUE(sim2.ok());
  auto s1 = sim1->RunClosed(500, 6);
  auto s2 = sim2->RunClosed(500, 6);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_DOUBLE_EQ(s1->throughput, s2->throughput);
  EXPECT_DOUBLE_EQ(s1->avg_response_seconds, s2->avg_response_seconds);
}

TEST(SimulatorTest, OpenLoopLowLoadHasLowLatency) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 0.010, false, "Q1", {}}};
  Allocation a(1, 1, 1, 0);
  a.Place(0, 0);
  a.set_read_assign(0, 0, 1.0);
  auto sim = ClusterSimulator::Create(cls, a, HomogeneousBackends(1),
                                      LightConfig());
  ASSERT_TRUE(sim.ok());
  // 10% utilization: response ~ service time.
  auto stats = sim->RunOpen(100.0, 10.0);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->completed_total(), 800u);
  EXPECT_LT(stats->avg_response_seconds, 0.015);
}

TEST(SimulatorTest, OpenLoopOverloadDegradesLatency) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 0.010, false, "Q1", {}}};
  Allocation a(1, 1, 1, 0);
  a.Place(0, 0);
  a.set_read_assign(0, 0, 1.0);
  auto make_sim = [&]() {
    return ClusterSimulator::Create(cls, a, HomogeneousBackends(1),
                                    LightConfig());
  };
  auto low = make_sim();
  auto high = make_sim();
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  auto low_stats = low->RunOpen(50.0, 20.0);
  auto high_stats = high->RunOpen(50.0, 300.0);  // 3x capacity.
  ASSERT_TRUE(low_stats.ok());
  ASSERT_TRUE(high_stats.ok());
  EXPECT_GT(high_stats->avg_response_seconds,
            5.0 * low_stats->avg_response_seconds);
}

TEST(SimulatorTest, RejectsBadRunArguments) {
  const Classification cls = testutil::Figure2Classification();
  FullReplicationAllocator full;
  const auto backends = HomogeneousBackends(2);
  auto alloc = full.Allocate(cls, backends);
  ASSERT_TRUE(alloc.ok());
  auto sim =
      ClusterSimulator::Create(cls, alloc.value(), backends, LightConfig());
  ASSERT_TRUE(sim.ok());
  EXPECT_FALSE(sim->RunClosed(0, 4).ok());
  EXPECT_FALSE(sim->RunClosed(10, 0).ok());
  EXPECT_FALSE(sim->RunOpen(-1.0, 10.0).ok());
  EXPECT_FALSE(sim->RunOpen(10.0, 0.0).ok());
}

TEST(SimulatorTest, RejectedDispatchDoesNotAdvanceTieRotation) {
  // Pins the tie-rotation fix: a dispatch that fails (every candidate of
  // the class dead) must not consume a rotation step, or each rejection
  // would silently shift every later tie-break. RA's two candidates tie
  // constantly; RB's only backend is crashed at t=0, so its requests are
  // all rejected. With rejections consuming rotation steps, RA's
  // alternation breaks and one backend collects about twice the work of
  // the other; with the fix the two stay within one service time.
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  ASSERT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 0.5, 0.010, false, "RA", {}},
               QueryClass{{1}, 0.5, 0.010, false, "RB", {}}};
  Allocation a(3, 2, 2, 0);
  a.Place(0, 0);  // b0: A.
  a.Place(1, 0);  // b1: A.
  a.Place(2, 1);  // b2: B.
  SimulationConfig config = LightConfig();
  config.fault_plan.events = {FaultEvent{FaultEvent::Kind::kCrash, 0.0, 2}};
  config.retry.max_attempts = 1;
  auto sim =
      ClusterSimulator::Create(cls, a, HomogeneousBackends(3), config);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  auto stats = sim->RunClosed(400, 1);
  ASSERT_TRUE(stats.ok());
  // The crashed class really was offered and rejected throughout the run.
  EXPECT_GT(stats->rejected_requests, 50u);
  ASSERT_EQ(stats->backend_busy_seconds.size(), 3u);
  EXPECT_NEAR(stats->backend_busy_seconds[0], stats->backend_busy_seconds[1],
              0.010 + 1e-12);
}

TEST(SimStatsTest, BusyBalanceDeviation) {
  SimStats stats;
  stats.backend_busy_seconds = {10.0, 10.0};
  EXPECT_NEAR(stats.BusyBalanceDeviation({0.5, 0.5}), 0.0, 1e-12);
  stats.backend_busy_seconds = {20.0, 0.0};
  EXPECT_NEAR(stats.BusyBalanceDeviation({0.5, 0.5}), 1.0, 1e-12);
}

TEST(SimStatsTest, ToStringMentionsThroughput) {
  SimStats stats;
  stats.throughput = 123.4;
  EXPECT_NE(stats.ToString().find("123.4"), std::string::npos);
}

}  // namespace
}  // namespace qcap

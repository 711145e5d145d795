// Tests of the benchmark harness: the capacity rule, tail-percentile
// selection, the transport remainder, and seed handling of the generated
// inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "harness.h"
#include "workload/classifier.h"
#include "workloads.h"
#include "workloads/tpcapp.h"

namespace qcap::perfbench {
namespace {

LadderStep Step(double qps, double p99_ms, bool backlog = false,
                bool valid = true) {
  LadderStep s;
  s.offered_qps = qps;
  s.p99_seconds = p99_ms * 1e-3;
  s.backlog_grew = backlog;
  s.valid = valid;
  return s;
}

TEST(CapacityTest, InterpolatesBetweenLastPassAndFirstFail) {
  // 0.2 ms at 20k passes, 1.8 ms at 30k fails: the 1 ms crossing is half way.
  const Capacity c =
      CapacityFromLadder({Step(10000, 0.1), Step(20000, 0.2), Step(30000, 1.8)},
                         1e-3);
  EXPECT_TRUE(c.bracketed);
  EXPECT_NEAR(c.qps, 25000.0, 1e-6);
}

TEST(CapacityTest, BacklogFailureBelowTheLimitReportsTheFailingRate) {
  // p99 is under the limit but the backlog grew: the crossing is taken at
  // the failing rate itself.
  const Capacity c = CapacityFromLadder(
      {Step(10000, 0.2), Step(20000, 0.5, /*backlog=*/true)}, 1e-3);
  EXPECT_TRUE(c.bracketed);
  EXPECT_NEAR(c.qps, 20000.0, 1e-6);
}

TEST(CapacityTest, IsolatedFailureBelowTheTopIsIgnored) {
  const Capacity c = CapacityFromLadder(
      {Step(10000, 0.2), Step(20000, 3.0), Step(30000, 0.3), Step(40000, 5.0)},
      1e-3);
  EXPECT_TRUE(c.bracketed);
  EXPECT_NEAR(c.qps, 30000.0 + 10000.0 * (0.7 / 4.7), 1e-6);
}

TEST(CapacityTest, InvalidStepEndsTheSearchUnbracketed) {
  const Capacity c = CapacityFromLadder(
      {Step(10000, 0.2), Step(20000, 0.3),
       Step(30000, 9.0, false, /*valid=*/false), Step(40000, 0.1)},
      1e-3);
  EXPECT_FALSE(c.bracketed);
  EXPECT_EQ(c.qps, 20000.0);
}

TEST(CapacityTest, NothingPassingIsZero) {
  const Capacity c = CapacityFromLadder({Step(10000, 2.0), Step(20000, 4.0)}, 1e-3);
  EXPECT_FALSE(c.bracketed);
  EXPECT_EQ(c.qps, 0.0);
  EXPECT_EQ(CapacityFromLadder({}, 1e-3).qps, 0.0);
}

TEST(TailQuantileTest, KeepsTenSamplesBeyond) {
  for (size_t n : {21, 50, 100, 500, 999, 1000, 1001, 5000, 100000}) {
    const double q = TailQuantile(n, 0.99);
    ASSERT_GT(q, 0.0) << n;
    const double rank = std::ceil(q * static_cast<double>(n));
    EXPECT_GE(static_cast<double>(n) - rank, 10.0) << n;
    EXPECT_LE(q, 0.99);
  }
  EXPECT_DOUBLE_EQ(TailQuantile(100000, 0.99), 0.99);
  EXPECT_LT(TailQuantile(500, 0.99), 0.99);
  EXPECT_LT(TailQuantile(20, 0.99), 0.0);  // not even a median with 10 beyond
}

TEST(TailQuantileTest, PercentileIsNearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.5), 50.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_EQ(Percentile(v, 1.0), 100.0);
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
}

TEST(TailQuantileTest, WindowedTailIgnoresOneStalledWindow) {
  std::vector<std::vector<double>> windows(5, std::vector<double>(100, 1e-4));
  windows[2].assign(100, 5e-3);  // one window hit by a host stall
  EXPECT_DOUBLE_EQ(WindowedTail(windows, 0.99), 1e-4);
  for (auto& w : windows) w.assign(100, 5e-3);  // real overload: every window
  EXPECT_DOUBLE_EQ(WindowedTail(windows, 0.99), 5e-3);
}

TEST(TransportTest, NeverNegative) {
  EXPECT_DOUBLE_EQ(TransportMicros(20.0, 3.0, 2.0), 15.0);
  EXPECT_EQ(TransportMicros(4.0, 3.0, 2.0), 0.0);
  EXPECT_EQ(TransportMicros(0.0, 0.0, 0.0), 0.0);
  for (double cpu = 0.0; cpu < 10.0; cpu += 0.37) {
    EXPECT_GE(TransportMicros(cpu, 2.5, 1.5), 0.0);
  }
}

TEST(SeedTest, PlanScaleIsReproducible) {
  PlanScaleConfig small;
  small.read_classes = 300;
  small.fragments = 120;
  small.backends = 4;
  small.generations = 4;
  small.sim_requests = 2000;
  const PlanScaleOutcome a = PlanScaleOnce(small, 7);
  const PlanScaleOutcome b = PlanScaleOnce(small, 7);
  ASSERT_TRUE(a.valid);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.speedup, b.speedup);
  EXPECT_EQ(a.replication, b.replication);
  EXPECT_EQ(a.sim_throughput, b.sim_throughput);
  EXPECT_EQ(a.moved_mb, b.moved_mb);
  // The seed drives the simulated request stream: another seed samples
  // other requests.
  const PlanScaleOutcome c = PlanScaleOnce(small, 8);
  ASSERT_TRUE(c.valid);
  EXPECT_NE(a.sim_throughput, c.sim_throughput);
}

TEST(SeedTest, ArrivalScheduleFollowsTheSeed) {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(20000);
  Classifier classifier(catalog, ClassifierOptions{Granularity::kTable, 4, true});
  auto cls = classifier.Classify(journal);
  ASSERT_TRUE(cls.ok());
  const auto a = MakeArrivals(*cls, 20000.0, 0.5, 3);
  const auto b = MakeArrivals(*cls, 20000.0, 0.5, 3);
  const auto c = MakeArrivals(*cls, 20000.0, 0.5, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_seconds, b[i].due_seconds);
    EXPECT_EQ(a[i].is_read, b[i].is_read);
    EXPECT_EQ(a[i].class_index, b[i].class_index);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_seconds != c[i].due_seconds ||
              a[i].class_index != c[i].class_index;
  }
  EXPECT_TRUE(differs);
  // Roughly the offered rate, and both reads and updates are drawn.
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 500.0);
  size_t updates = 0;
  for (const Arrival& x : a) updates += x.is_read ? 0 : 1;
  EXPECT_GT(updates, 0u);
  EXPECT_LT(updates, a.size());
}

TEST(SeedTest, DayReplayIsReproducible) {
  const auto a = ReplayDaysForTest(5, 2, 36);
  const auto b = ReplayDaysForTest(5, 2, 36);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_NE(a[0], "error");
  EXPECT_EQ(a, b);
  // Day i of a run uses seed + i, so a run starting one seed later replays
  // the same second day and a different first day.
  const auto c = ReplayDaysForTest(6, 1, 36);
  EXPECT_EQ(c[0], a[1]);
  EXPECT_NE(c[0], a[0]);
}

}  // namespace
}  // namespace qcap::perfbench

// Section 5 autonomic scaling (E15/E16) as a plain AdaptiveController
// configuration: scale-out/in only, replayed over the diurnal trace day.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "alloc/greedy.h"
#include "autonomic/control_loop.h"
#include "workload/classifier.h"
#include "workloads/trace.h"

namespace qcap {
namespace {

struct ScalerFixture {
  engine::Catalog catalog = workloads::TraceCatalog();
  Classification cls;

  ScalerFixture() {
    Classifier classifier(catalog, {Granularity::kTable, 4, true});
    QueryJournal journal = workloads::TraceJournal(20000, 3);
    auto result = classifier.Classify(journal);
    EXPECT_TRUE(result.ok());
    cls = std::move(result).value();
  }
};

/// Scale-out/in only: no drift decisions, no cooldown, the trace's
/// requests-per-10-minutes scaled x150 (simulated backends are fast).
AdaptiveOptions ScalingOptions(size_t min_nodes, size_t max_nodes) {
  AdaptiveOptions options;
  options.slo_p99_ms = 45.0;
  options.scale_up_utilization = 0.4;
  options.scale_down_utilization = 0.35;
  options.scale_down_headroom = 1.0;
  options.min_nodes = min_nodes;
  options.max_nodes = max_nodes;
  options.drift_threshold = std::numeric_limits<double>::infinity();
  options.cooldown_buckets = 0;
  options.slice_seconds = 4.0;
  options.sim.servers_per_backend = 2;
  options.sim.cost_params.memory_bytes = 1e12;
  return options;
}

std::vector<BucketDemand> TraceDay(uint64_t seed) {
  std::vector<BucketDemand> day;
  for (const workloads::TracePoint& point : workloads::SampleDay(seed)) {
    BucketDemand demand;
    demand.tod_seconds = point.tod_seconds;
    demand.offered_qps =
        std::max(point.requests_per_10min * 150.0 / 600.0, 0.5);
    day.push_back(demand);
  }
  return day;
}

AdaptiveReport ScaledDay(const Classification& cls, size_t min_nodes,
                         size_t max_nodes) {
  GreedyAllocator greedy;
  AdaptiveController controller(cls, &greedy,
                                ScalingOptions(min_nodes, max_nodes));
  EXPECT_TRUE(controller.Install(min_nodes).ok());
  auto report = controller.ReplayDay(TraceDay(3), FaultPlan{});
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

TEST(ScalerTest, ScalesUpUnderLoadAndDownAtNight) {
  ScalerFixture fx;
  const AdaptiveReport report = ScaledDay(fx.cls, 1, 5);
  ASSERT_EQ(report.steps.size(), TraceDay(3).size());

  size_t min_nodes = 100, max_nodes = 0;
  for (const AdaptiveStep& step : report.steps) {
    min_nodes = std::min(min_nodes, step.nodes);
    max_nodes = std::max(max_nodes, step.nodes);
  }
  EXPECT_EQ(min_nodes, 1u);  // Night trough runs on one node.
  EXPECT_GT(max_nodes, 2u);  // Daytime peak grows the cluster.
  // Night bucket (4 am) uses fewer nodes than the evening peak (7 pm).
  EXPECT_LT(report.steps[4 * 6].nodes, report.steps[19 * 6].nodes);
  EXPECT_GT(report.scale_outs, 0u);
  EXPECT_GT(report.scale_ins, 0u);
}

TEST(ScalerTest, FixedClusterDoesNotScale) {
  ScalerFixture fx;
  const AdaptiveReport report = ScaledDay(fx.cls, 5, 5);
  for (const AdaptiveStep& step : report.steps) {
    EXPECT_EQ(step.nodes, 5u);
    EXPECT_EQ(step.decision, AdaptiveAction::kNone);
  }
  EXPECT_TRUE(report.transitions.empty());
}

TEST(ScalerTest, AutonomicUsesFewerNodeSecondsThanStaticMax) {
  ScalerFixture fx;
  EXPECT_LT(ScaledDay(fx.cls, 1, 5).node_seconds,
            0.8 * ScaledDay(fx.cls, 5, 5).node_seconds);
}

TEST(ScalerTest, ResizesReportMovedBytes) {
  ScalerFixture fx;
  const AdaptiveReport report = ScaledDay(fx.cls, 1, 5);
  ASSERT_FALSE(report.transitions.empty());
  for (const TransitionRecord& t : report.transitions) {
    EXPECT_TRUE(t.action == AdaptiveAction::kScaleOut ||
                t.action == AdaptiveAction::kScaleIn);
    EXPECT_NE(t.nodes_before, t.nodes_after);
    // A scale-in may find every survivor already holding its new set; a
    // scale-out always loads the added node.
    if (t.action == AdaptiveAction::kScaleOut) {
      EXPECT_GT(t.moved_bytes, 0.0);
    }
  }
}

// An empty day, a null allocator and min > max are rejected.
TEST(ScalerTest, RejectsBadInput) {
  ScalerFixture fx;
  GreedyAllocator greedy;
  AdaptiveController controller(fx.cls, &greedy, ScalingOptions(1, 5));
  ASSERT_TRUE(controller.Install(1).ok());
  EXPECT_TRUE(controller.ReplayDay({}, FaultPlan{}).status()
                  .IsInvalidArgument());

  AdaptiveController null_controller(fx.cls, nullptr, ScalingOptions(1, 5));
  EXPECT_TRUE(null_controller.Install(1).IsInvalidArgument());

  AdaptiveController inverted(fx.cls, &greedy, ScalingOptions(5, 1));
  EXPECT_TRUE(inverted.Install(5).IsInvalidArgument());
}

}  // namespace
}  // namespace qcap

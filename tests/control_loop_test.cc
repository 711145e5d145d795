// Pins for the adaptive control loop and the live routing hot-swap:
//  - a Dispatcher::SwapRouting mid-stream drops nothing and keeps routing
//    decisions bit-identical (same-table swap ≡ no swap; new-table swap ≡
//    a reference Scheduler that inherited the rotation and pending state);
//  - a crash mid-migration aborts the in-flight plan and self-heals
//    without ever violating k-safety at the end of the day;
//  - a full day replay is bit-deterministic for a fixed seed;
//  - Install rejects a configuration the loop cannot run;
//  - the crash self-heal (E27) runs as a plain AdaptiveController
//    configuration (the Section 5 scaler is pinned in scaler_test).
#include "autonomic/control_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "alloc/greedy.h"
#include "alloc/ksafety.h"
#include "cluster/pending_index.h"
#include "cluster/scheduler.h"
#include "model/validation.h"
#include "net/dispatcher.h"
#include "test_util.h"
#include "workload/classifier.h"
#include "workloads/tpcapp.h"
#include "workloads/trace.h"

namespace qcap {
namespace {

// --- Dispatcher hot-swap parity ------------------------------------------

/// Appendix A placement on 4 backends (backend 0 holds everything).
Allocation SmallAllocation() {
  Allocation alloc(4, 3, 4, 3);
  alloc.PlaceSet(0, {0, 1, 2});
  alloc.PlaceSet(1, {0});
  alloc.PlaceSet(2, {1});
  alloc.PlaceSet(3, {2});
  return alloc;
}

/// Scale-out of SmallAllocation: a fifth backend that holds everything.
Allocation ScaledOutAllocation() {
  Allocation alloc(5, 3, 4, 3);
  alloc.PlaceSet(0, {0, 1, 2});
  alloc.PlaceSet(1, {0});
  alloc.PlaceSet(2, {1});
  alloc.PlaceSet(3, {2});
  alloc.PlaceSet(4, {0, 1, 2});
  return alloc;
}

std::unique_ptr<net::Dispatcher> MakeDispatcher(const Classification& cls,
                                                const Allocation& alloc) {
  auto dispatcher = net::Dispatcher::Create(cls, alloc, net::ServingLimits{});
  EXPECT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
  return std::move(dispatcher).value();
}

TEST(RoutingSwapTest, SwapToIdenticalTableIsInvisible) {
  const Classification cls = testutil::AppendixAClassification();
  const Allocation alloc = SmallAllocation();
  auto swapped = MakeDispatcher(cls, alloc);
  auto reference = MakeDispatcher(cls, alloc);

  for (int i = 0; i < 200; ++i) {
    if (i == 100) {
      ASSERT_TRUE(swapped->SwapRouting(cls, alloc).ok());
    }
    const std::string request = "SUBMIT R" + std::to_string(i % 4);
    const auto a = swapped->Execute(request, static_cast<double>(i));
    const auto b = reference->Execute(request, static_cast<double>(i));
    // Nothing dropped, nothing misrouted: every reply routes, and the
    // decision matches the never-swapped dispatcher bit for bit.
    ASSERT_EQ(a.text.rfind("OK BACKEND ", 0), 0u) << i << ": " << a.text;
    ASSERT_EQ(a.text, b.text) << "decision diverged at request " << i;
  }

  const net::ServingCounters counters = swapped->Snapshot();
  EXPECT_EQ(counters.reads_routed, 200u);
  EXPECT_EQ(counters.unservable, 0u);
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(counters.bad_requests, 0u);
  EXPECT_EQ(counters.reloads, 1u);
  EXPECT_EQ(counters.routing_generation, 2u);
  EXPECT_EQ(reference->routing_generation(), 1u);
}

TEST(RoutingSwapTest, SwapToNewTableCarriesSchedulerState) {
  const Classification cls = testutil::AppendixAClassification();
  const Allocation before = SmallAllocation();
  const Allocation after = ScaledOutAllocation();
  auto dispatcher = MakeDispatcher(cls, before);

  // Reference: drive a Scheduler by hand, mirroring the dispatcher's
  // pending bookkeeping (reads only, no DONEs — depths only grow).
  auto ref = Scheduler::Build(cls, before);
  ASSERT_TRUE(ref.ok());
  Scheduler reference = std::move(ref).value();
  std::vector<size_t> pending(4, 0);

  for (int i = 0; i < 100; ++i) {
    const size_t cls_index = static_cast<size_t>(i % 4);
    const auto reply =
        dispatcher->Execute("SUBMIT R" + std::to_string(cls_index), 0.0);
    const size_t expect = reference.PickReadBackend(cls_index, pending);
    ++pending[expect];
    ASSERT_EQ(reply.text, "OK BACKEND " + std::to_string(expect)) << i;
  }

  ASSERT_TRUE(dispatcher->SwapRouting(cls, after).ok());
  EXPECT_EQ(dispatcher->num_backends(), 5u);

  // The reference swaps too: a new scheduler that inherits the rotation
  // counter, over the pending depths carried by index (new backend idle).
  auto ref2 = Scheduler::Build(cls, after);
  ASSERT_TRUE(ref2.ok());
  Scheduler reference_after = std::move(ref2).value();
  reference_after.set_rotation(reference.rotation());
  pending.resize(5, 0);

  for (int i = 0; i < 100; ++i) {
    const size_t cls_index = static_cast<size_t>(i % 4);
    const auto reply =
        dispatcher->Execute("SUBMIT R" + std::to_string(cls_index), 0.0);
    const size_t expect = reference_after.PickReadBackend(cls_index, pending);
    ++pending[expect];
    ASSERT_EQ(reply.text, "OK BACKEND " + std::to_string(expect))
        << "post-swap decision diverged at request " << i;
  }

  const net::ServingCounters counters = dispatcher->Snapshot();
  EXPECT_EQ(counters.reads_routed, 200u);
  EXPECT_EQ(counters.unservable, 0u);
  EXPECT_EQ(counters.routing_generation, 2u);
}

TEST(RoutingSwapTest, ReloadVerbDrivesTheProvider) {
  const Classification cls = testutil::AppendixAClassification();
  auto dispatcher = MakeDispatcher(cls, SmallAllocation());

  // Without a provider the verb reports, the table stays.
  EXPECT_EQ(dispatcher->Execute("RELOAD", 0.0).text.rfind("ERR NO_PROVIDER", 0),
            0u);

  dispatcher->SetReloadProvider(
      [&cls](std::string_view tag) -> Result<net::RoutingTable> {
        if (tag == "fail") return Status::InvalidArgument("boom");
        return net::RoutingTable{cls, ScaledOutAllocation()};
      });
  EXPECT_EQ(dispatcher->Execute("RELOAD fail", 0.0).text,
            "ERR RELOAD_FAILED boom");
  EXPECT_EQ(dispatcher->routing_generation(), 1u);

  const auto reply = dispatcher->Execute("RELOAD scale5", 0.0);
  EXPECT_EQ(reply.text,
            "OK RELOAD generation=2 backends=5 read_classes=4 "
            "update_classes=3");
  EXPECT_EQ(dispatcher->num_backends(), 5u);
  // The swapped table serves immediately.
  EXPECT_EQ(dispatcher->Execute("SUBMIT R0", 0.0).text.rfind("OK BACKEND ", 0),
            0u);
}

// --- Adaptive controller -------------------------------------------------

struct LoopFixture {
  engine::Catalog catalog = workloads::TraceCatalog();
  QueryJournal journal = workloads::TraceJournal(20000, 3);
  Classification cls;
  /// Per classification class (reads then updates): index of the trace
  /// class (A..E) its member queries belong to.
  std::vector<size_t> trace_class_of;

  LoopFixture() {
    Classifier classifier(catalog, {Granularity::kTable, 4, true});
    auto result = classifier.Classify(journal);
    EXPECT_TRUE(result.ok());
    cls = std::move(result).value();

    const std::vector<Query> templates = workloads::TraceQueries();
    auto trace_index = [&](const QueryClass& qc) -> size_t {
      EXPECT_FALSE(qc.members.empty());
      const std::string& text = journal.queries()[qc.members.front()].text;
      for (size_t t = 0; t < templates.size(); ++t) {
        if (templates[t].text == text) return t;
      }
      ADD_FAILURE() << "unknown trace query: " << text;
      return 0;
    };
    for (const QueryClass& qc : cls.reads) {
      trace_class_of.push_back(trace_index(qc));
    }
    for (const QueryClass& qc : cls.updates) {
      trace_class_of.push_back(trace_index(qc));
    }
  }

  /// Weight multipliers that push the offered mix toward trace class
  /// \p heavy (0 = A .. 4 = E).
  std::vector<double> MixShiftToward(size_t heavy, double factor) const {
    std::vector<double> scale(cls.NumClasses(), 1.0);
    for (size_t c = 0; c < scale.size(); ++c) {
      scale[c] = trace_class_of[c] == heavy ? factor : 1.0 / factor;
    }
    return scale;
  }
};

AdaptiveOptions FastOptions() {
  AdaptiveOptions options;
  options.slice_seconds = 4.0;
  options.window_buckets = 1;
  options.drift_threshold = 0.3;
  options.cooldown_buckets = 0;
  options.resegment_after = 100;  // keep these tests on the realloc path
  options.k_safety = 1;
  options.slo_p99_ms = 1e9;           // disable the scale-out path
  options.scale_down_utilization = -1.0;  // and the scale-in path
  options.min_nodes = 3;
  options.sim.servers_per_backend = 2;
  options.sim.cost_params.memory_bytes = 1e12;
  // Fast ETL so swaps land within a bucket or two of the decision.
  options.etl = EtlCostModel{2e10, 2e10, 2e10, 1.0};
  options.migration.min_catchup_seconds = 30.0;
  return options;
}

BucketDemand Bucket(double tod, double qps, std::vector<double> scale = {}) {
  BucketDemand demand;
  demand.tod_seconds = tod;
  demand.offered_qps = qps;
  demand.class_weight_scale = std::move(scale);
  return demand;
}

TEST(AdaptiveControllerTest, DriftTriggersALiveReallocationWithoutLoss) {
  LoopFixture fx;
  GreedyAllocator greedy;
  AdaptiveController controller(fx.cls, &greedy, FastOptions());
  ASSERT_TRUE(controller.Install(3).ok());

  // Bucket 0: night mix, far from the base weights → drift decision.
  const std::vector<double> night = fx.MixShiftToward(1, 6.0);
  std::vector<BucketDemand> day;
  for (int i = 0; i < 4; ++i) {
    day.push_back(Bucket(600.0 * i, 250.0, night));
  }
  auto report = controller.ReplayDay(day, FaultPlan{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_GE(report->reallocations, 1u);
  ASSERT_FALSE(report->transitions.empty());
  const TransitionRecord& first = report->transitions.front();
  EXPECT_EQ(first.action, AdaptiveAction::kReallocate);
  EXPECT_TRUE(first.completed);
  EXPECT_GT(first.moved_bytes, 0.0);
  EXPECT_GT(first.swap_seconds, first.decided_seconds);

  // Zero dropped or misrouted queries across the live swap: every offered
  // request completed in every bucket, including the split swap bucket.
  bool saw_swap = false;
  for (const AdaptiveStep& step : report->steps) {
    EXPECT_EQ(step.failed, 0u) << "at tod " << step.tod_seconds;
    EXPECT_EQ(step.rejected, 0u) << "at tod " << step.tod_seconds;
    EXPECT_GT(step.completed, 0u);
    saw_swap = saw_swap || step.swapped;
  }
  EXPECT_TRUE(saw_swap);

  // After the swap the layout serves the night mix: drift is back under
  // the threshold in the last bucket.
  EXPECT_LT(report->steps.back().drift, 0.3);
}

TEST(AdaptiveControllerTest, CrashMidMigrationAbortsAndSelfHeals) {
  LoopFixture fx;
  // The k-safety target and the allocator must agree: Algorithm 4 layouts
  // are what keep the cluster servable through the crash.
  KSafeGreedyAllocator greedy(KSafetyOptions{1, 1e-12, 0});
  AdaptiveOptions options = FastOptions();
  // Stretch the catch-up so the drift migration is still in flight when
  // the crash is detected one bucket later.
  options.migration.min_catchup_seconds = 700.0;
  AdaptiveController controller(fx.cls, &greedy, options);
  ASSERT_TRUE(controller.Install(3).ok());

  const std::vector<double> night = fx.MixShiftToward(1, 6.0);
  std::vector<BucketDemand> day;
  for (int i = 0; i < 8; ++i) {
    day.push_back(Bucket(600.0 * i, 250.0, night));
  }
  // Bucket 0 decides the drift reallocation at t=600 (swap ≈ t=1300);
  // the crash at t=700 lands mid-COPY.
  FaultPlan faults;
  faults.Crash(700.0, 1);

  auto report = controller.ReplayDay(day, faults);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The drift plan was overtaken by events; the self-heal replaced it.
  ASSERT_GE(report->transitions.size(), 2u);
  EXPECT_EQ(report->transitions[0].action, AdaptiveAction::kReallocate);
  EXPECT_TRUE(report->transitions[0].aborted);
  EXPECT_FALSE(report->transitions[0].completed);
  EXPECT_EQ(report->transitions[1].action, AdaptiveAction::kSelfHeal);
  EXPECT_TRUE(report->transitions[1].completed);
  EXPECT_EQ(report->self_heals, 1u);

  // The repaired cluster is whole again and k-safe.
  for (bool alive : controller.alive()) EXPECT_TRUE(alive);
  EXPECT_TRUE(CheckKSafety(controller.base(), controller.allocation(),
                           controller.alive(), options.k_safety)
                  .ok());
  // Queries kept flowing throughout (the crash strands some in-flight
  // work, but nothing is rejected as unservable: k-safety held).
  for (const AdaptiveStep& step : report->steps) {
    EXPECT_EQ(step.rejected, 0u) << "at tod " << step.tod_seconds;
    EXPECT_GT(step.completed, 0u);
  }
}

TEST(AdaptiveControllerTest, DayReplayIsBitDeterministic) {
  LoopFixture fx;
  GreedyAllocator greedy;

  std::vector<BucketDemand> day;
  for (int i = 0; i < 6; ++i) {
    day.push_back(Bucket(600.0 * i, 250.0,
                         i < 3 ? std::vector<double>{}
                               : fx.MixShiftToward(1, 6.0)));
  }
  FaultPlan faults;
  faults.Crash(1500.0, 2).Recover(1900.0, 2);

  auto run = [&]() {
    AdaptiveController controller(fx.cls, &greedy, FastOptions());
    EXPECT_TRUE(controller.Install(3).ok());
    auto report = controller.ReplayDay(day, faults);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  };
  const AdaptiveReport a = run();
  const AdaptiveReport b = run();

  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].p99_ms, b.steps[i].p99_ms) << i;
    EXPECT_EQ(a.steps[i].avg_ms, b.steps[i].avg_ms) << i;
    EXPECT_EQ(a.steps[i].completed, b.steps[i].completed) << i;
    EXPECT_EQ(a.steps[i].failed, b.steps[i].failed) << i;
    EXPECT_EQ(a.steps[i].nodes, b.steps[i].nodes) << i;
    EXPECT_EQ(a.steps[i].decision, b.steps[i].decision) << i;
    EXPECT_EQ(a.steps[i].drift, b.steps[i].drift) << i;
  }
  ASSERT_EQ(a.transitions.size(), b.transitions.size());
  for (size_t i = 0; i < a.transitions.size(); ++i) {
    EXPECT_EQ(a.transitions[i].action, b.transitions[i].action) << i;
    EXPECT_EQ(a.transitions[i].swap_seconds, b.transitions[i].swap_seconds)
        << i;
    EXPECT_EQ(a.transitions[i].moved_bytes, b.transitions[i].moved_bytes) << i;
  }
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.worst_p99_ms, b.worst_p99_ms);
}

// A null allocator, non-positive interval lengths and min > max fail
// Install; an empty day and a run before Install fail too.
TEST(AdaptiveControllerTest, RejectsInvalidConfiguration) {
  LoopFixture fx;
  GreedyAllocator greedy;
  const auto install = [&](Allocator* allocator, AdaptiveOptions options) {
    AdaptiveController controller(fx.cls, allocator, std::move(options));
    return controller.Install(3);
  };
  EXPECT_TRUE(install(&greedy, FastOptions()).ok());
  EXPECT_TRUE(install(nullptr, FastOptions()).IsInvalidArgument());
  AdaptiveOptions options = FastOptions();
  options.bucket_seconds = 0.0;
  EXPECT_TRUE(install(&greedy, options).IsInvalidArgument());
  options = FastOptions();
  options.slice_seconds = -1.0;
  EXPECT_TRUE(install(&greedy, options).IsInvalidArgument());
  options = FastOptions();
  options.min_nodes = 5;
  options.max_nodes = 4;
  EXPECT_TRUE(install(&greedy, options).IsInvalidArgument());

  AdaptiveController controller(fx.cls, &greedy, FastOptions());
  EXPECT_FALSE(controller.Step(Bucket(0.0, 250.0), {}).ok());
  EXPECT_FALSE(controller.ReplayDay({Bucket(0.0, 250.0)}, FaultPlan{}).ok());
  ASSERT_TRUE(controller.Install(3).ok());
  EXPECT_TRUE(controller.ReplayDay({}, FaultPlan{}).status()
                  .IsInvalidArgument());
}

// --- Crash self-heal (E27) as a configuration ----------------------------

struct HealFixture {
  engine::Catalog catalog = workloads::TpcAppCatalog(100.0);
  Classification cls;
  KSafeGreedyAllocator ksafe{{1, 1e-12, 0}};
  /// 60 s at 400 q/s in 1 s control intervals; backend 2 crashes at t=10.
  std::vector<BucketDemand> day;
  FaultPlan faults;

  HealFixture() {
    Classifier classifier(catalog, {Granularity::kTable, 4, true});
    auto result = classifier.Classify(workloads::TpcAppJournal(20000));
    EXPECT_TRUE(result.ok());
    cls = std::move(result).value();
    for (int i = 0; i < 60; ++i) day.push_back(Bucket(i, 400.0));
    faults.Crash(10.0, 2);
  }

  /// Fixed 5-node cluster with only the self-heal path armed.
  static AdaptiveOptions Options(int k_safety) {
    AdaptiveOptions options;
    options.min_nodes = options.max_nodes = 5;
    options.k_safety = k_safety;
    options.drift_threshold = std::numeric_limits<double>::infinity();
    options.slo_p99_ms = 1e9;
    options.cooldown_buckets = 0;
    options.bucket_seconds = 1.0;
    options.slice_seconds = 1.0;
    options.sim.seed = 9;
    return options;
  }

  AdaptiveReport Run(int k_safety) {
    AdaptiveController controller(cls, &ksafe, Options(k_safety));
    EXPECT_TRUE(controller.Install(5).ok());
    auto report = controller.ReplayDay(day, faults);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  }
};

TEST(SelfHealConfigurationTest, RepairsKSafetyViolationWithFiniteRecovery) {
  HealFixture fx;
  AdaptiveController controller(fx.cls, &fx.ksafe, HealFixture::Options(1));
  ASSERT_TRUE(controller.Install(5).ok());
  auto report = controller.ReplayDay(fx.day, fx.faults);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // One crash under k=1 drops the margin to zero: Algorithm 3 flags it at
  // the first interval boundary and the loop re-plans onto the survivors
  // plus a replacement, swapping routing once the copy caught up.
  ASSERT_EQ(report->transitions.size(), 1u);
  EXPECT_EQ(report->self_heals, 1u);
  const TransitionRecord& heal = report->transitions[0];
  EXPECT_EQ(heal.action, AdaptiveAction::kSelfHeal);
  EXPECT_TRUE(heal.completed);
  EXPECT_EQ(heal.decided_seconds, 11.0);
  EXPECT_GT(heal.swap_seconds, heal.decided_seconds);
  EXPECT_LT(heal.swap_seconds, 60.0);  // Finite recovery inside the run.
  EXPECT_GT(heal.etl_seconds, 0.0);
  EXPECT_GT(heal.moved_bytes, 0.0);
  EXPECT_NE(heal.cause.find("k-safety violated"), std::string::npos);
  // The k=1-safe layout plus the repair serve the whole offered load.
  for (const AdaptiveStep& step : report->steps) {
    EXPECT_EQ(step.rejected, 0u) << "at t=" << step.tod_seconds;
    EXPECT_EQ(step.failed, 0u) << "at t=" << step.tod_seconds;
    const bool down = step.tod_seconds >= 10.0 &&
                      step.tod_seconds + 1.0 <= heal.swap_seconds;
    EXPECT_EQ(step.dead_backends, down ? 1u : 0u)
        << "at t=" << step.tod_seconds;
  }
  EXPECT_EQ(report->availability, 1.0);
  // The repaired cluster is whole again and k-safe.
  EXPECT_EQ(controller.alive(), std::vector<bool>(5, true));
  EXPECT_TRUE(CheckKSafety(fx.cls, controller.allocation(),
                           controller.alive(), 1)
                  .ok());
}

TEST(SelfHealConfigurationTest, NoViolationNoRepair) {
  HealFixture fx;
  // One crash of a k=1-safe layout keeps every class servable: at k=0
  // Algorithm 3 passes and nothing is repaired.
  const AdaptiveReport report = fx.Run(0);
  EXPECT_TRUE(report.transitions.empty());
  EXPECT_EQ(report.self_heals, 0u);
  for (const AdaptiveStep& step : report.steps) {
    EXPECT_EQ(step.rejected, 0u) << "at t=" << step.tod_seconds;
  }
}

TEST(SelfHealConfigurationTest, SelfHealingIsDeterministic) {
  HealFixture fx;
  const AdaptiveReport first = fx.Run(1);
  const AdaptiveReport second = fx.Run(1);
  ASSERT_EQ(first.steps.size(), second.steps.size());
  for (size_t i = 0; i < first.steps.size(); ++i) {
    EXPECT_EQ(first.steps[i].completed, second.steps[i].completed) << i;
    EXPECT_EQ(first.steps[i].failed, second.steps[i].failed) << i;
    EXPECT_EQ(first.steps[i].avg_ms, second.steps[i].avg_ms) << i;
    EXPECT_EQ(first.steps[i].p99_ms, second.steps[i].p99_ms) << i;
  }
  ASSERT_EQ(first.transitions.size(), second.transitions.size());
  for (size_t i = 0; i < first.transitions.size(); ++i) {
    EXPECT_EQ(first.transitions[i].swap_seconds,
              second.transitions[i].swap_seconds);
    EXPECT_EQ(first.transitions[i].moved_bytes,
              second.transitions[i].moved_bytes);
  }
}

}  // namespace
}  // namespace qcap

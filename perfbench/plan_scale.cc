// plan-scale: offline planning of a large synthetic instance, then a
// closed-loop simulation of the plan.
//
//   ClassificationIndex -> GreedyAllocator -> MemeticAllocator::Improve
//   (island search on a pool of <= 4 threads) -> standalone
//   SearchKernel::GarbageCollect sweep of the final layout ->
//   ValidateAllocation -> PhysicalAllocator::Plan (greedy -> memetic
//   layout) = one plan; ClusterSimulator::Create + RunClosed = one
//   simulation.
//
// The planned instance and the search are fixed (MemeticOptions' default
// seed); the run seed drives the simulated request stream. A run makes a
// fixed number of identical passes (from --seconds). Untraced passes give
// the end-to-end numbers; in a traced run untraced and traced passes
// alternate and the traced ones also count heap allocations and search
// progress per stage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "alloc/greedy.h"
#include "alloc/memetic.h"
#include "alloc/search_kernel.h"
#include "cluster/simulator.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "heap_counter.h"
#include "model/metrics.h"
#include "model/validation.h"
#include "physical/physical_allocator.h"
#include "workloads.h"
#include "workloads/synthetic_scale.h"

namespace qcap::perfbench {
namespace {

/// Structural seed of the reference instance (README.md, "Why the plan is
/// fixed").
constexpr uint64_t kInstanceSeed = 1;
/// Wall seconds one pass takes on the reference host; sizes the pass count.
constexpr double kPassSeconds = 5.0;
/// Share of a traced pass's path the stage timers may leave uncovered.
constexpr double kMaxUntimedShare = 0.01;

workloads::ScaleOptions InstanceOptions(const PlanScaleConfig& config) {
  workloads::ScaleOptions o;
  o.num_fragments = config.fragments;
  o.num_read_classes = config.read_classes;
  o.num_update_classes = config.read_classes / 50;
  o.update_share = 0.25;
  o.seed = kInstanceSeed;
  return o;
}

std::string Fingerprint(const Allocation& a) {
  // FNV-1a over the placement rows and the read-assignment matrix.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (size_t b = 0; b < a.num_backends(); ++b) {
    for (size_t f = 0; f < a.num_fragments(); ++f) {
      const unsigned char placed = a.IsPlaced(b, f) ? 1 : 0;
      mix(&placed, 1);
    }
    const auto row = a.ReadAssignRow(b);
    mix(row.data(), row.size() * sizeof(double));
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

enum Stage {
  kIndex,
  kGreedy,
  kMemetic,
  kGcSweep,
  kValidate,
  kPhysical,
  kCreate,
  kDrain,
  kNumStages
};

const char* const kStageTime[kNumStages] = {
    "alloc.index_build_s", "alloc.greedy_s",        "alloc.memetic_s",
    "alloc.gc_sweep_s",    "model.validate_s",      "physical.transition_s",
    "cluster.sim_create_s", "cluster.sim_drain_s"};
const char* const kStageHeap[kNumStages] = {
    "alloc.index_build.heap_allocs", "alloc.greedy.heap_allocs",
    "alloc.memetic.heap_allocs",     "alloc.gc_sweep.heap_allocs",
    "model.validate.heap_allocs",    "physical.transition.heap_allocs",
    "cluster.sim_create.heap_allocs", "cluster.sim_drain.heap_allocs"};

struct Pass {
  double stage_s[kNumStages] = {};
  double heap[kNumStages] = {};
  double plan_s = 0.0;
  double simulate_s = 0.0;
  double plan_cpu_s = 0.0;
  double memetic_cpu_s = 0.0;
  uint64_t evaluations = 0;
  uint64_t improvements = 0;
  PlanScaleOutcome outcome;
  bool ok = false;
};

/// Times one stage: wall clock, and heap allocations when traced.
class StageTimer {
 public:
  StageTimer(Pass* pass, Stage stage, bool traced)
      : pass_(pass), stage_(stage), traced_(traced),
        heap0_(traced ? heap::Count() : 0), t0_(Clock::now()) {}
  ~StageTimer() {
    pass_->stage_s[stage_] = SecondsSince(t0_);
    if (traced_) {
      pass_->heap[stage_] = static_cast<double>(heap::Count() - heap0_);
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Pass* pass_;
  Stage stage_;
  bool traced_;
  uint64_t heap0_;
  Clock::time_point t0_;
};

Pass RunPass(const Classification& cls, const std::vector<BackendSpec>& backends,
             const PlanScaleConfig& config, uint64_t sim_seed, ThreadPool* pool,
             bool traced) {
  Pass pass;
  heap::Enable(traced);
  SearchProgress progress;
  const Clock::time_point plan_start = Clock::now();
  const double cpu0 = ProcessCpuSeconds();

  std::optional<ClassificationIndex> index;
  {
    StageTimer t(&pass, kIndex, traced);
    index.emplace(cls);
  }
  Result<Allocation> greedy = Status::Internal("not run");
  {
    StageTimer t(&pass, kGreedy, traced);
    greedy = GreedyAllocator().Allocate(cls, backends);
  }
  if (!greedy.ok()) return pass;
  Result<Allocation> memetic = Status::Internal("not run");
  {
    MemeticOptions options;
    options.iterations = config.generations;
    options.pool = pool;
    options.progress = traced ? &progress : nullptr;
    const double mcpu0 = ProcessCpuSeconds();
    StageTimer t(&pass, kMemetic, traced);
    memetic = MemeticAllocator(options).Improve(cls, backends, *greedy);
    pass.memetic_cpu_s = ProcessCpuSeconds() - mcpu0;
  }
  if (!memetic.ok()) return pass;
  {
    Allocation sweep = *memetic;
    sweep.BindSizes(cls.catalog);
    alloc_internal::SearchKernel kernel(cls, *index, backends);
    StageTimer t(&pass, kGcSweep, traced);
    kernel.GarbageCollect(&sweep);
  }
  Status valid;
  {
    StageTimer t(&pass, kValidate, traced);
    valid = ValidateAllocation(cls, *memetic, backends);
  }
  Result<TransitionPlan> transition = Status::Internal("not run");
  {
    StageTimer t(&pass, kPhysical, traced);
    transition = PhysicalAllocator().Plan(*greedy, *memetic, cls.catalog);
  }
  pass.plan_s = SecondsSince(plan_start);
  pass.plan_cpu_s = ProcessCpuSeconds() - cpu0;
  if (!transition.ok()) return pass;

  const Clock::time_point sim_start = Clock::now();
  SimulationConfig sim_config;
  sim_config.seed = sim_seed;
  sim_config.servers_per_backend = 4;
  std::optional<Result<ClusterSimulator>> sim;
  {
    StageTimer t(&pass, kCreate, traced);
    sim.emplace(ClusterSimulator::Create(cls, *memetic, backends, sim_config));
  }
  if (!sim->ok()) return pass;
  Result<SimStats> stats = Status::Internal("not run");
  {
    StageTimer t(&pass, kDrain, traced);
    stats = (*sim)->RunClosed(config.sim_requests, 4 * backends.size());
  }
  pass.simulate_s = SecondsSince(sim_start);
  heap::Enable(false);
  if (!stats.ok()) return pass;

  pass.evaluations = progress.evaluations.load();
  pass.improvements = progress.improvements.load();
  pass.outcome.fingerprint = Fingerprint(*memetic);
  pass.outcome.speedup = Speedup(*memetic, backends);
  pass.outcome.replication = DegreeOfReplication(*memetic, cls.catalog);
  pass.outcome.sim_throughput = stats->throughput;
  pass.outcome.moved_mb = transition->total_bytes / 1e6;
  pass.outcome.valid = valid.ok();
  pass.ok = true;
  return pass;
}

size_t PoolThreads() {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<size_t>(4, hw);
}

}  // namespace

PlanScaleOutcome PlanScaleOnce(const PlanScaleConfig& config, uint64_t seed) {
  const Classification cls =
      workloads::MakeScaleClassification(InstanceOptions(config));
  const std::vector<BackendSpec> backends =
      HomogeneousBackends(config.backends);
  ThreadPool pool(PoolThreads());
  return RunPass(cls, backends, config, seed, &pool, false).outcome;
}

RunResult RunPlanScale(const RunOptions& options) {
  RunResult result;
  result.end_to_end = EndToEndMetricTemplate();
  result.per_layer = PerLayerMetricTemplate();
  const PlanScaleConfig config;

  // Set-up: instance generation, repeated; the median is setup_s.
  std::vector<double> setup;
  Classification cls;
  for (int i = 0; i < 7; ++i) {
    const Clock::time_point t0 = Clock::now();
    cls = workloads::MakeScaleClassification(InstanceOptions(config));
    setup.push_back(SecondsSince(t0));
  }
  const std::vector<BackendSpec> backends =
      HomogeneousBackends(config.backends);
  const size_t threads = PoolThreads();
  ThreadPool pool(threads);

  const size_t passes = std::max<size_t>(
      2, static_cast<size_t>(std::lround(options.seconds / kPassSeconds)));
  // Every pass plans the same instance with the same search and simulates
  // the same request stream, so every pass must produce the same plan.
  std::vector<Pass> untraced, traced;
  std::string fingerprint;
  for (size_t i = 0; i < passes; ++i) {
    const bool trace_this = options.trace && i % 2 == 1;
    Pass pass = RunPass(cls, backends, config, options.seed, &pool, trace_this);
    ++result.attempted;
    char line[128];
    std::snprintf(line, sizeof(line), "pass %zu%s: plan %.3f s, simulate %.3f s",
                  i, trace_this ? " (traced)" : "", pass.plan_s, pass.simulate_s);
    result.notes.push_back(line);
    if (!pass.ok || !pass.outcome.valid) {
      ++result.failed;
      result.Fail("pass " + std::to_string(i) +
                  (pass.ok ? ": ValidateAllocation failed" : ": pipeline error"));
      continue;
    }
    if (fingerprint.empty()) fingerprint = pass.outcome.fingerprint;
    if (pass.outcome.fingerprint != fingerprint) {
      ++result.failed;
      result.Fail("allocation fingerprint differs between passes (" +
                  fingerprint + " vs " + pass.outcome.fingerprint + ")");
      continue;
    }
    (trace_this ? traced : untraced).push_back(std::move(pass));
  }
  if (untraced.empty() || (options.trace && traced.empty())) {
    result.Fail("no successful pass");
    return result;
  }

  auto median_of = [](const std::vector<Pass>& ps, auto field) {
    std::vector<double> v;
    for (const Pass& p : ps) v.push_back(field(p));
    return Median(v);
  };
  const PlanScaleOutcome& outcome = untraced.front().outcome;
  const double plan_ms = 1e3 * median_of(untraced, [](const Pass& p) { return p.plan_s; });
  double slowest_ms = 0.0;
  for (const Pass& p : untraced) slowest_ms = std::max(slowest_ms, 1e3 * p.plan_s);
  std::vector<Metric>& e2e = result.end_to_end;
  SetMetric(&e2e, "setup_s", Median(setup));
  SetMetric(&e2e, "op_p50_ms", plan_ms);
  SetMetric(&e2e, "op_p99_ms", slowest_ms);
  SetMetric(&e2e, "op_cpu_ms",
            1e3 * median_of(untraced, [](const Pass& p) { return p.plan_cpu_s; }));
  SetMetric(&e2e, "requests_per_s",
            median_of(untraced, [&](const Pass& p) {
              return static_cast<double>(config.sim_requests) / p.simulate_s;
            }));
  SetMetric(&e2e, "quality", outcome.speedup);
  SetMetric(&e2e, "footprint", outcome.replication);

  if (options.trace) {
    std::vector<Metric>& layer = result.per_layer;
    double stage_sum = 0.0;
    for (int s = 0; s < kNumStages; ++s) {
      const double v = median_of(traced, [s](const Pass& p) { return p.stage_s[s]; });
      stage_sum += v;
      SetMetric(&layer, kStageTime[s], v);
      SetMetric(&layer, kStageHeap[s],
                median_of(traced, [s](const Pass& p) { return p.heap[s]; }));
    }
    // The stage map must cover the path: in each traced pass, the time
    // outside every stage timer is the sweep's set-up and the timers' own.
    const auto path = [](const Pass& p) { return p.plan_s + p.simulate_s; };
    const auto untimed = [](const Pass& p) {
      double sum = 0.0;
      for (double v : p.stage_s) sum += v;
      return p.plan_s + p.simulate_s - sum;
    };
    const double path_s = median_of(traced, path);
    const double untimed_s = median_of(traced, untimed);
    // Tracing overhead: traced minus untraced medians. Its noise floor is
    // the spread of the untraced passes, which do identical work.
    double fastest = path(untraced.front()), slowest = fastest;
    for (const Pass& p : untraced) {
      fastest = std::min(fastest, path(p));
      slowest = std::max(slowest, path(p));
    }
    const double overhead_s = path_s - median_of(untraced, path);
    SetMetric(&layer, "trace.stage_sum_s", stage_sum);
    SetMetric(&layer, "trace.path_s", path_s);
    SetMetric(&layer, "trace.untimed_ms", 1e3 * untimed_s);
    SetMetric(&layer, "trace.overhead_ms", 1e3 * overhead_s);
    SetMetric(&layer, "trace.overhead_noise_ms", 1e3 * (slowest - fastest));
    char line[192];
    std::snprintf(line, sizeof(line),
                  "trace map: stages %.3f s + untimed %.2f ms = path %.3f s; "
                  "tracing overhead %.0f ms, noise floor %.0f ms",
                  stage_sum, 1e3 * untimed_s, path_s, 1e3 * overhead_s,
                  1e3 * (slowest - fastest));
    result.notes.push_back(line);
    if (untimed_s > kMaxUntimedShare * path_s) {
      result.Fail("traced stages leave " + std::to_string(untimed_s) +
                  " s of the plan + simulate path untimed");
    }
    const Pass& t = traced.front();
    const double memetic_s = t.stage_s[kMemetic];
    SetMetric(&layer, "alloc.memetic_evals_per_s",
              memetic_s > 0 ? static_cast<double>(t.evaluations) / memetic_s : 0.0);
    SetMetric(&layer, "alloc.memetic_improve_ratio",
              t.evaluations > 0 ? static_cast<double>(t.improvements) /
                                      static_cast<double>(t.evaluations)
                                : 0.0);
    SetMetric(&layer, "alloc.memetic_cpu_util",
              memetic_s > 0 ? t.memetic_cpu_s /
                                  (memetic_s * static_cast<double>(threads))
                            : 0.0);
    SetMetric(&layer, "physical.moved_mb", outcome.moved_mb);
    SetMetric(&layer, "cluster.sim_requests_per_s",
              static_cast<double>(config.sim_requests) /
                  median_of(traced, [](const Pass& p) { return p.stage_s[kDrain]; }));
  }
  SetMetric(&result.end_to_end, "peak_rss_mb", PeakRssMb());
  return result;
}

}  // namespace qcap::perfbench

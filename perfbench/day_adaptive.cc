// day-adaptive: the adaptive control loop replaying seeded days.
//
// Each day is the "day in the life" scenario of bench/bench_adaptive.cc:
// the diurnal trace's own night/day mix drift, a 10:05 crash (k=1
// self-heal), an afternoon straggler and a 3x evening spike, driven one
// control interval at a time through AdaptiveController::Step with a
// KSafeGreedyAllocator. A run replays a fixed number of days (from
// --seconds) back to back; day i uses seed + i. The arrival multiplier is
// the scenario's own, so the controller decides exactly what it decides in
// bench_adaptive.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "alloc/ksafety.h"
#include "autonomic/control_loop.h"
#include "heap_counter.h"
#include "workload/classifier.h"
#include "workloads.h"
#include "workloads/trace.h"

namespace qcap::perfbench {
namespace {

constexpr size_t kBuckets = 144;  // a full day at 600 s per interval
constexpr double kMultiplier = 40.0;
constexpr size_t kStartNodes = 4;
/// Days replayed per second of --seconds on the reference host.
constexpr double kDaysPerSecond = 10.0;

/// The classified trace workload every day shares.
struct TraceWorkload {
  engine::Catalog catalog;
  QueryJournal journal;
  Classification cls;
  /// Per classification class (reads then updates): its trace class.
  std::vector<size_t> trace_class_of;
};

Status ClassifyTrace(TraceWorkload* w) {
  w->catalog = workloads::TraceCatalog();
  w->journal = workloads::TraceJournal(20000, 3);
  Classifier classifier(w->catalog, {Granularity::kTable, 4, true});
  QCAP_ASSIGN_OR_RETURN(w->cls, classifier.Classify(w->journal));
  const std::vector<Query> templates = workloads::TraceQueries();
  for (const auto* list : {&w->cls.reads, &w->cls.updates}) {
    for (const QueryClass& qc : *list) {
      if (qc.members.empty()) return Status::Internal("empty trace class");
      const std::string& text = w->journal.queries()[qc.members.front()].text;
      size_t t = 0;
      while (t < templates.size() && templates[t].text != text) ++t;
      if (t == templates.size()) return Status::Internal("unknown template");
      w->trace_class_of.push_back(t);
    }
  }
  return Status::OK();
}

/// One day's demand: per-bucket arrival rate and class-weight multipliers
/// relative to the day's average mix, with the 19:00-20:00 spike.
std::vector<BucketDemand> MakeDay(const TraceWorkload& w, uint64_t seed) {
  const std::vector<workloads::TracePoint> points =
      workloads::SampleDay(seed, 600.0);
  std::vector<double> day_share(workloads::kTraceClasses, 0.0);
  double day_total = 0.0;
  for (const workloads::TracePoint& p : points) {
    for (size_t t = 0; t < day_share.size(); ++t) {
      day_share[t] += p.class_requests[t];
      day_total += p.class_requests[t];
    }
  }
  for (double& share : day_share) share /= day_total;
  std::vector<BucketDemand> day;
  const size_t buckets = std::min(kBuckets, points.size());
  for (size_t i = 0; i < buckets; ++i) {
    const workloads::TracePoint& p = points[i];
    BucketDemand demand;
    demand.tod_seconds = p.tod_seconds;
    demand.offered_qps = p.requests_per_10min * kMultiplier / 600.0;
    if (p.tod_seconds >= 68400.0 && p.tod_seconds < 72000.0) {
      demand.offered_qps *= 3.0;
    }
    double bucket_total = 0.0;
    for (double r : p.class_requests) bucket_total += r;
    demand.class_weight_scale.assign(w.cls.NumClasses(), 1.0);
    for (size_t c = 0; c < demand.class_weight_scale.size(); ++c) {
      const size_t t = w.trace_class_of[c];
      demand.class_weight_scale[c] =
          (p.class_requests[t] / bucket_total) / day_share[t];
    }
    day.push_back(std::move(demand));
  }
  return day;
}

FaultPlan DayFaults() {
  FaultPlan faults;
  // 10:05 crash (self-heal), 14:00-15:00 straggler on backend 2.
  faults.Crash(36300.0, 1).Degrade(50400.0, 2, 1.8).Degrade(54000.0, 2, 1.0);
  return faults;
}

AdaptiveOptions LoopOptions(uint64_t seed) {
  AdaptiveOptions options;
  options.slo_p99_ms = 48.0;
  options.scale_up_utilization = 0.3;
  options.scale_down_utilization = 0.12;
  options.scale_down_headroom = 0.9;
  options.min_nodes = 3;
  options.max_nodes = 8;
  options.window_buckets = 2;
  options.drift_threshold = 0.35;
  options.resegment_after = 2;
  options.cooldown_buckets = 1;
  options.k_safety = 1;
  options.slice_seconds = 10.0;
  options.sim.seed = seed;
  options.sim.servers_per_backend = 2;
  options.sim.cost_params.memory_bytes = 1e12;
  options.etl = EtlCostModel{2e10, 2e10, 2e10, 1.0};
  options.migration.min_catchup_seconds = 60.0;
  return options;
}

/// Times every Allocate call of the wrapped allocator (traced runs).
class TimedAllocator : public Allocator {
 public:
  explicit TimedAllocator(Allocator* inner) : inner_(inner) {}
  Result<Allocation> Allocate(const Classification& cls,
                              const std::vector<BackendSpec>& backends) override {
    const Clock::time_point t0 = Clock::now();
    Result<Allocation> out = inner_->Allocate(cls, backends);
    seconds_ += SecondsSince(t0);
    ++calls_;
    return out;
  }
  std::string name() const override { return inner_->name(); }
  double seconds() const { return seconds_; }
  uint64_t calls() const { return calls_; }

 private:
  Allocator* inner_;
  double seconds_ = 0.0;
  uint64_t calls_ = 0;
};

/// Bit-exact serialization of everything a day decides and observes
/// (string equality == report equality), as in bench_adaptive.
std::string Serialize(const AdaptiveReport& report) {
  std::string out;
  char line[320];
  for (const AdaptiveStep& s : report.steps) {
    std::snprintf(
        line, sizeof(line),
        "S %.17g %zu %.17g %.17g %.17g %.17g %.17g %.17g %d %d %d %llu "
        "%llu %llu %zu\n",
        s.tod_seconds, s.nodes, s.offered_qps, s.p99_ms, s.avg_ms,
        s.availability, s.utilization, s.drift, static_cast<int>(s.decision),
        static_cast<int>(s.phase), s.swapped ? 1 : 0,
        static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.failed),
        static_cast<unsigned long long>(s.rejected), s.dead_backends);
    out += line;
  }
  for (const TransitionRecord& t : report.transitions) {
    std::snprintf(line, sizeof(line),
                  "T %d %.17g %.17g %.17g %.17g %zu %zu %.17g %.17g %.17g "
                  "%.17g %d %d\n",
                  static_cast<int>(t.action), t.decided_seconds,
                  t.swap_seconds, t.moved_bytes, t.etl_seconds,
                  t.nodes_before, t.nodes_after, t.p99_before_ms,
                  t.p99_during_ms, t.p99_after_ms, t.availability_during,
                  t.aborted ? 1 : 0, t.completed ? 1 : 0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "R %.17g %.17g %.17g %.17g\n",
                report.slo_attainment, report.availability,
                report.worst_p99_ms, report.node_seconds);
  out += line;
  return out;
}

/// One replayed day and what the benchmark timed around it.
struct DayRun {
  AdaptiveReport report;
  std::vector<double> step_s;  ///< Wall time of each Step call.
  std::vector<bool> busy;      ///< The step decided or swapped something.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t requests = 0;  ///< Simulated logical requests offered.
  double alloc_s = 0.0;
  uint64_t alloc_calls = 0;
  uint64_t heap_allocs = 0;
  bool ok = false;
};

/// Replays one day through Step, aggregating the report exactly as
/// AdaptiveController::ReplayDay does.
DayRun ReplayDay(const TraceWorkload& w, const std::vector<BucketDemand>& day,
                 uint64_t seed, bool traced) {
  DayRun run;
  const AdaptiveOptions options = LoopOptions(seed);
  KSafeGreedyAllocator ksafe(KSafetyOptions{1, 1e-12, 0});
  TimedAllocator timed(&ksafe);
  Allocator* allocator = traced ? static_cast<Allocator*>(&timed) : &ksafe;
  AdaptiveController controller(w.cls, allocator, options);
  const std::vector<FaultEvent> faults = DayFaults().Sorted();
  heap::Enable(traced);
  const uint64_t heap0 = heap::Count();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  if (!controller.Install(kStartNodes).ok()) return run;
  uint64_t completed = 0, offered = 0;
  size_t met = 0;
  run.step_s.reserve(day.size());
  for (const BucketDemand& demand : day) {
    std::vector<FaultEvent> external;
    for (const FaultEvent& e : faults) {
      if (e.time_seconds >= demand.tod_seconds &&
          e.time_seconds < demand.tod_seconds + options.bucket_seconds) {
        external.push_back(e);
      }
    }
    const Clock::time_point s0 = Clock::now();
    Result<AdaptiveStep> step = controller.Step(demand, external);
    run.step_s.push_back(SecondsSince(s0));
    if (!step.ok()) return run;
    run.busy.push_back(step->decision != AdaptiveAction::kNone || step->swapped);
    completed += step->completed;
    offered += step->completed + step->failed + step->rejected;
    if (step->p99_ms <= options.slo_p99_ms) ++met;
    run.report.worst_p99_ms = std::max(run.report.worst_p99_ms, step->p99_ms);
    run.report.node_seconds +=
        static_cast<double>(step->nodes) * options.bucket_seconds;
    run.report.steps.push_back(std::move(step).value());
  }
  run.wall_s = SecondsSince(t0);
  run.cpu_s = ProcessCpuSeconds() - cpu0;
  heap::Enable(false);
  run.heap_allocs = heap::Count() - heap0;
  run.requests = offered;
  run.alloc_s = timed.seconds();
  run.alloc_calls = timed.calls();
  AdaptiveReport& report = run.report;
  report.transitions = controller.transitions();
  report.slo_attainment =
      static_cast<double>(met) / static_cast<double>(day.size());
  report.availability = offered > 0 ? static_cast<double>(completed) /
                                          static_cast<double>(offered)
                                    : 1.0;
  for (const TransitionRecord& record : report.transitions) {
    if (!record.completed) continue;
    switch (record.action) {
      case AdaptiveAction::kReallocate: ++report.reallocations; break;
      case AdaptiveAction::kResegment: ++report.resegmentations; break;
      case AdaptiveAction::kScaleOut: ++report.scale_outs; break;
      case AdaptiveAction::kScaleIn: ++report.scale_ins; break;
      case AdaptiveAction::kSelfHeal: ++report.self_heals; break;
      case AdaptiveAction::kNone: break;
    }
  }
  run.ok = true;
  return run;
}

/// The day's coverage gate: at least one drift re-allocation (plain or
/// re-segmenting), self-heal, scale-out and scale-in completed.
bool Covered(const AdaptiveReport& r) {
  return r.reallocations + r.resegmentations >= 1 && r.self_heals >= 1 &&
         r.scale_outs >= 1 && r.scale_ins >= 1;
}

double MovedMb(const AdaptiveReport& r) {
  double bytes = 0.0;
  for (const TransitionRecord& t : r.transitions) {
    if (t.completed) bytes += t.moved_bytes;
  }
  return bytes / 1e6;
}

}  // namespace

std::vector<std::string> ReplayDaysForTest(uint64_t seed, size_t days,
                                           size_t buckets) {
  std::vector<std::string> out;
  TraceWorkload w;
  if (!ClassifyTrace(&w).ok()) return out;
  for (size_t d = 0; d < days; ++d) {
    std::vector<BucketDemand> day = MakeDay(w, seed + d);
    day.resize(std::min(buckets, day.size()));
    const DayRun run = ReplayDay(w, day, seed + d, false);
    out.push_back(run.ok ? Serialize(run.report) : "error");
  }
  return out;
}

RunResult RunDayAdaptive(const RunOptions& options) {
  RunResult result;
  result.end_to_end = EndToEndMetricTemplate();
  result.per_layer = PerLayerMetricTemplate();
  const size_t days = std::max<size_t>(
      2, static_cast<size_t>(std::lround(options.seconds * kDaysPerSecond)));

  // Set-up, repeated: classify the trace and build every day's demand.
  std::vector<double> setup, classify;
  TraceWorkload w;
  std::vector<std::vector<BucketDemand>> demand;
  for (int i = 0; i < 5; ++i) {
    w = TraceWorkload{};
    demand.clear();
    const Clock::time_point t0 = Clock::now();
    const Status st = ClassifyTrace(&w);
    classify.push_back(SecondsSince(t0));
    if (!st.ok()) {
      result.Fail("classify: " + st.ToString());
      return result;
    }
    for (size_t d = 0; d < days; ++d) demand.push_back(MakeDay(w, options.seed + d));
    setup.push_back(SecondsSince(t0));
  }

  // Untraced replay of every day; a traced run replays the first half
  // untraced, then the same days traced.
  const size_t untraced_days = options.trace ? std::max<size_t>(1, days / 2) : days;
  std::vector<DayRun> untraced, traced;
  for (size_t d = 0; d < untraced_days; ++d) {
    untraced.push_back(ReplayDay(w, demand[d], options.seed + d, false));
  }
  if (options.trace) {
    for (size_t d = 0; d < untraced_days; ++d) {
      traced.push_back(ReplayDay(w, demand[d], options.seed + d, true));
    }
  } else {
    // Determinism: the first day again must match bit for bit.
    traced.push_back(ReplayDay(w, demand[0], options.seed, false));
  }

  for (size_t d = 0; d < untraced.size(); ++d) {
    ++result.attempted;
    const DayRun& u = untraced[d];
    const std::string label = "day " + std::to_string(options.seed + d);
    bool good = u.ok;
    if (!u.ok) result.Fail(label + ": Step failed");
    if (u.ok && !Covered(u.report)) {
      good = false;
      result.Fail(label + ": missing a realloc, self-heal, scale-out or scale-in");
    }
    if (d < traced.size() &&
        (!traced[d].ok || Serialize(traced[d].report) != Serialize(u.report))) {
      good = false;
      result.Fail(label + ": report differs between the two replays");
    }
    if (!good) ++result.failed;
  }
  result.notes.push_back("day-adaptive: " + std::to_string(untraced.size()) +
                         " days replayed");
  if (!result.correct) return result;

  auto aggregate = [](const std::vector<DayRun>& runs, double* wall,
                      double* cpu, double* requests,
                      std::vector<double>* steps) {
    for (const DayRun& r : runs) {
      *wall += r.wall_s;
      *cpu += r.cpu_s;
      *requests += static_cast<double>(r.requests);
      steps->insert(steps->end(), r.step_s.begin(), r.step_s.end());
    }
    std::sort(steps->begin(), steps->end());
  };
  double wall = 0, cpu = 0, requests = 0;
  std::vector<double> steps;
  aggregate(untraced, &wall, &cpu, &requests, &steps);
  double slo = 0.0, node_seconds = 0.0, moved = 0.0;
  double counts[5] = {};
  for (const DayRun& r : untraced) {
    slo += r.report.slo_attainment;
    node_seconds += r.report.node_seconds;
    moved += MovedMb(r.report);
    counts[0] += static_cast<double>(r.report.reallocations);
    counts[1] += static_cast<double>(r.report.resegmentations);
    counts[2] += static_cast<double>(r.report.scale_outs);
    counts[3] += static_cast<double>(r.report.scale_ins);
    counts[4] += static_cast<double>(r.report.self_heals);
  }
  const double n_days = static_cast<double>(untraced.size());
  const double n_steps = static_cast<double>(steps.size());
  const double day_seconds = static_cast<double>(kBuckets) * 600.0;

  std::vector<Metric>& e2e = result.end_to_end;
  SetMetric(&e2e, "setup_s", Median(setup));
  SetMetric(&e2e, "op_p50_ms", 1e3 * Percentile(steps, 0.5));
  SetMetric(&e2e, "op_p99_ms",
            1e3 * Percentile(steps, std::max(0.5, TailQuantile(steps.size(), 0.99))));
  SetMetric(&e2e, "op_cpu_ms", 1e3 * cpu / n_steps);
  SetMetric(&e2e, "requests_per_s", requests / wall);
  SetMetric(&e2e, "quality", slo / n_days);
  SetMetric(&e2e, "footprint", node_seconds / (n_days * day_seconds));

  std::vector<Metric>& layer = result.per_layer;
  SetMetric(&layer, "workload.classify_s", Median(classify));
  SetMetric(&layer, "autonomic.transitions_realloc", counts[0] / n_days);
  SetMetric(&layer, "autonomic.transitions_resegment", counts[1] / n_days);
  SetMetric(&layer, "autonomic.transitions_scale_out", counts[2] / n_days);
  SetMetric(&layer, "autonomic.transitions_scale_in", counts[3] / n_days);
  SetMetric(&layer, "autonomic.transitions_self_heal", counts[4] / n_days);
  SetMetric(&layer, "autonomic.moved_mb", moved / n_days);
  SetMetric(&layer, "autonomic.node_seconds", node_seconds / n_days);
  if (options.trace) {
    double twall = 0, tcpu = 0, trequests = 0;
    std::vector<double> tsteps, busy, quiet;
    aggregate(traced, &twall, &tcpu, &trequests, &tsteps);
    double alloc_s = 0.0, calls = 0.0, heap_allocs = 0.0;
    for (const DayRun& r : traced) {
      alloc_s += r.alloc_s;
      calls += static_cast<double>(r.alloc_calls);
      heap_allocs += static_cast<double>(r.heap_allocs);
      for (size_t i = 0; i < r.step_s.size(); ++i) {
        (r.busy[i] ? busy : quiet).push_back(r.step_s[i]);
      }
    }
    SetMetric(&layer, "trace.overhead_ms",
              1e3 * (Percentile(tsteps, 0.5) - Percentile(steps, 0.5)));
    SetMetric(&layer, "autonomic.step_ms_p50", 1e3 * Percentile(tsteps, 0.5));
    SetMetric(&layer, "autonomic.step_ms_p99",
              1e3 * Percentile(tsteps, std::max(0.5, TailQuantile(tsteps.size(), 0.99))));
    SetMetric(&layer, "autonomic.transition_step_ms", 1e3 * Median(busy));
    SetMetric(&layer, "autonomic.quiet_step_ms", 1e3 * Median(quiet));
    SetMetric(&layer, "autonomic.alloc_ms", calls > 0 ? 1e3 * alloc_s / calls : 0.0);
    SetMetric(&layer, "autonomic.alloc_calls", calls / static_cast<double>(traced.size()));
    SetMetric(&layer, "autonomic.step.heap_allocs",
              heap_allocs / static_cast<double>(tsteps.size()));
    SetMetric(&layer, "cluster.slice_requests_per_s", trequests / twall);
  }
  SetMetric(&e2e, "peak_rss_mb", PeakRssMb());
  return result;
}

}  // namespace qcap::perfbench

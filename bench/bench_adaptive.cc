// bench_adaptive: "a day in the life" of the adaptive control loop
// (autonomic/control_loop.h).
//
// Replays a full simulated day of the diurnal trace workload (Section 5's
// e-learning substitute, workloads/trace.h) through an AdaptiveController
// and injects everything the loop is built to survive:
//
//   drift      — the trace's own night/day mix shift (class B dominates
//                3-8 am) pushes the observed mix off the installed layout
//                and triggers live re-allocations / re-segmentations;
//   faults     — a node crash mid-morning (self-heal re-plans onto a
//                replacement without violating k-safety) and a sticky
//                straggler degrade in the afternoon;
//   load spike — a 3x arrival surge for one evening hour drives the
//                SLO-violation scale-out path, and the post-spike trough
//                lets the scale-in path reclaim the node.
//
// Reported per transition: p99 before / during / after the migration,
// worst-case availability while the ETL overlapped foreground queries,
// bytes moved, and the decision-to-swap latency. Whole-day aggregates:
// SLO attainment, availability, worst p99, node-seconds.
//
// Three self-checks gate the exit code:
//   1. determinism — two same-seed replays are bit-identical;
//   2. thread sweep — N independent replications give bit-identical
//      results on a 1-thread and a --threads N pool;
//   3. routing parity — a live Dispatcher::SwapRouting from the initial
//      to the final layout mid-stream matches a hand-driven reference
//      Scheduler decision for decision (nothing dropped or misrouted).
//
// Results go to stdout and, with --out FILE (or via the bench_adaptive_json
// target), to a JSON file committed as the adaptive-loop baseline.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/ksafety.h"
#include "autonomic/control_loop.h"
#include "bench_util.h"
#include "cluster/scheduler.h"
#include "common/thread_pool.h"
#include "net/dispatcher.h"
#include "workload/classifier.h"
#include "workloads/trace.h"

using namespace qcap;

namespace {

struct BenchConfig {
  uint64_t seed = 7;
  size_t buckets = 144;     // full day at 600 s per control interval
  double multiplier = 40.0; // trace requests/10min -> offered qps scale
  size_t threads = 4;       // sweep pool size
  size_t replications = 2;  // independent replays in the thread sweep
  std::string out_path;     // empty = stdout only
  bool smoke = false;
};

int Fail(const char* message) {
  std::fprintf(stderr, "bench_adaptive: %s\n", message);
  std::fprintf(stderr,
               "usage: bench_adaptive [--seed N] [--buckets N] "
               "[--multiplier X] [--threads N] [--reps N] [--out FILE] "
               "[--smoke]\n");
  return 2;
}

/// Everything one replay needs. The catalog and journal own storage the
/// classification references, so they ride along.
struct Scenario {
  engine::Catalog catalog;
  QueryJournal journal;
  Classification cls;
  /// Per classification class (reads then updates): the trace class
  /// (A..E) its member queries instantiate.
  std::vector<size_t> trace_class_of;
  std::vector<BucketDemand> day;
  FaultPlan faults;
  AdaptiveOptions options;
  size_t start_nodes = 4;
};

AdaptiveOptions LoopOptions(const BenchConfig& config) {
  AdaptiveOptions options;
  // The heaviest trace class costs ~40 ms on an idle server, so the SLO
  // sits a queueing allowance above that floor: met in steady state,
  // violated when the spike stacks queues.
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
  options.slice_seconds = config.smoke ? 6.0 : 10.0;
  options.sim.seed = config.seed;
  options.sim.servers_per_backend = 2;
  options.sim.cost_params.memory_bytes = 1e12;
  // Fast ETL rates keep decision-to-swap latency within a bucket or two
  // while still moving real bytes through the Hungarian transition plan.
  options.etl = EtlCostModel{2e10, 2e10, 2e10, 1.0};
  options.migration.min_catchup_seconds = 60.0;
  return options;
}

bool BuildScenario(const BenchConfig& config, Scenario* scenario) {
  scenario->catalog = workloads::TraceCatalog();
  scenario->journal = workloads::TraceJournal(20000, 3);
  Classifier classifier(scenario->catalog, {Granularity::kTable, 4, true});
  auto classified = classifier.Classify(scenario->journal);
  if (!classified.ok()) {
    std::fprintf(stderr, "classify: %s\n",
                 classified.status().ToString().c_str());
    return false;
  }
  scenario->cls = std::move(classified).value();

  const std::vector<Query> templates = workloads::TraceQueries();
  auto trace_index = [&](const QueryClass& qc, size_t* out) {
    if (qc.members.empty()) return false;
    const std::string& text =
        scenario->journal.queries()[qc.members.front()].text;
    for (size_t t = 0; t < templates.size(); ++t) {
      if (templates[t].text == text) {
        *out = t;
        return true;
      }
    }
    return false;
  };
  for (const QueryClass& qc : scenario->cls.reads) {
    size_t t = 0;
    if (!trace_index(qc, &t)) return false;
    scenario->trace_class_of.push_back(t);
  }
  for (const QueryClass& qc : scenario->cls.updates) {
    size_t t = 0;
    if (!trace_index(qc, &t)) return false;
    scenario->trace_class_of.push_back(t);
  }

  // The sampled day: per-bucket arrival rate and trace-class shares. The
  // classification's base weights already reflect the whole-day average,
  // so each bucket's multipliers are its share relative to that average.
  const std::vector<workloads::TracePoint> points =
      workloads::SampleDay(config.seed, 600.0);
  std::vector<double> day_share(workloads::kTraceClasses, 0.0);
  double day_total = 0.0;
  for (const workloads::TracePoint& p : points) {
    for (size_t t = 0; t < day_share.size(); ++t) {
      day_share[t] += p.class_requests[t];
      day_total += p.class_requests[t];
    }
  }
  for (double& share : day_share) share /= day_total;

  const size_t buckets = std::min(config.buckets, points.size());
  const double spike_begin = 68400.0, spike_end = 72000.0;  // 19:00-20:00
  for (size_t i = 0; i < buckets; ++i) {
    const workloads::TracePoint& p = points[i];
    BucketDemand demand;
    demand.tod_seconds = p.tod_seconds;
    demand.offered_qps = p.requests_per_10min * config.multiplier / 600.0;
    if (!config.smoke && p.tod_seconds >= spike_begin &&
        p.tod_seconds < spike_end) {
      demand.offered_qps *= 3.0;  // the evening surge
    }
    double bucket_total = 0.0;
    for (double r : p.class_requests) bucket_total += r;
    demand.class_weight_scale.assign(scenario->cls.NumClasses(), 1.0);
    for (size_t c = 0; c < demand.class_weight_scale.size(); ++c) {
      const size_t t = scenario->trace_class_of[c];
      const double share = p.class_requests[t] / bucket_total;
      demand.class_weight_scale[c] = share / day_share[t];
    }
    scenario->day.push_back(std::move(demand));
  }

  if (config.smoke) {
    // Short horizon: one crash early enough that the self-heal completes.
    scenario->faults.Crash(2100.0, 1);
  } else {
    // 10:05 crash (self-heal), 14:00-15:00 straggler on backend 2.
    scenario->faults.Crash(36300.0, 1)
        .Degrade(50400.0, 2, 1.8)
        .Degrade(54000.0, 2, 1.0);
  }
  scenario->options = LoopOptions(config);
  return true;
}

/// One full replay with a fresh controller; \p seed overrides the
/// simulator seed (replications perturb it, the demand stays fixed).
Result<AdaptiveReport> RunDay(const Scenario& scenario, uint64_t seed,
                              Allocation* initial = nullptr,
                              Allocation* final_alloc = nullptr) {
  KSafeGreedyAllocator allocator(KSafetyOptions{1, 1e-12, 0});
  AdaptiveOptions options = scenario.options;
  options.sim.seed = seed;
  AdaptiveController controller(scenario.cls, &allocator, options);
  QCAP_RETURN_NOT_OK(controller.Install(scenario.start_nodes));
  if (initial != nullptr) *initial = controller.allocation();
  QCAP_ASSIGN_OR_RETURN(AdaptiveReport report,
                        controller.ReplayDay(scenario.day, scenario.faults));
  if (final_alloc != nullptr) *final_alloc = controller.allocation();
  return report;
}

/// Replays a fixed read stream through a live Dispatcher that hot-swaps
/// from \p before to \p after mid-stream, mirroring every decision with a
/// hand-driven Scheduler (rotation and pending depths carried across the
/// swap exactly as SwapRouting does). True iff bit-identical throughout.
bool VerifyRoutingParity(const Classification& cls, const Allocation& before,
                         const Allocation& after) {
  auto created = net::Dispatcher::Create(cls, before, net::ServingLimits{});
  if (!created.ok()) return false;
  std::unique_ptr<net::Dispatcher> dispatcher = std::move(created).value();

  auto built = Scheduler::Build(cls, before);
  if (!built.ok()) return false;
  Scheduler reference = std::move(built).value();
  std::vector<size_t> pending(before.num_backends(), 0);
  const size_t reads = cls.reads.size();

  auto drive = [&](Scheduler* scheduler, size_t i) {
    const size_t cls_index = i % reads;
    const auto reply =
        dispatcher->Execute("SUBMIT R" + std::to_string(cls_index), 0.0);
    const size_t expect = scheduler->PickReadBackend(cls_index, pending);
    ++pending[expect];
    return reply.text == "OK BACKEND " + std::to_string(expect);
  };

  for (size_t i = 0; i < 120; ++i) {
    if (!drive(&reference, i)) return false;
  }
  if (!dispatcher->SwapRouting(cls, after).ok()) return false;
  auto rebuilt = Scheduler::Build(cls, after);
  if (!rebuilt.ok()) return false;
  Scheduler reference_after = std::move(rebuilt).value();
  reference_after.set_rotation(reference.rotation());
  pending.resize(after.num_backends(), 0);
  for (size_t i = 120; i < 240; ++i) {
    if (!drive(&reference_after, i)) return false;
  }
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_adaptive: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      config.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--buckets") == 0) {
      config.buckets = std::strtoull(next("--buckets"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--multiplier") == 0) {
      config.multiplier = std::strtod(next("--multiplier"), nullptr);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      config.threads = std::strtoull(next("--threads"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      config.replications = std::strtoull(next("--reps"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      config.out_path = next("--out");
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      config.smoke = true;
    } else {
      return Fail("unknown flag");
    }
  }
  if (config.smoke) {
    config.buckets = 12;
    config.multiplier = 10.0;
    config.threads = 2;
    config.replications = 2;
  }
  if (config.buckets == 0 || config.multiplier <= 0.0 ||
      config.threads == 0 || config.replications == 0) {
    return Fail("all numeric flags must be positive");
  }

  Scenario scenario;
  if (!BuildScenario(config, &scenario)) {
    return Fail("could not build the trace scenario");
  }
  std::printf("bench_adaptive: %zu buckets x %.0f s, seed %llu%s\n",
              scenario.day.size(), scenario.options.bucket_seconds,
              static_cast<unsigned long long>(config.seed),
              config.smoke ? " [smoke]" : "");

  // --- The day itself ----------------------------------------------------
  Allocation initial, final_alloc;
  auto replay = RunDay(scenario, config.seed, &initial, &final_alloc);
  if (!replay.ok()) {
    std::fprintf(stderr, "replay: %s\n", replay.status().ToString().c_str());
    return 1;
  }
  const AdaptiveReport report = std::move(replay).value();

  for (size_t i = 0; i < report.transitions.size(); ++i) {
    const TransitionRecord& t = report.transitions[i];
    std::printf(
        "transition %zu: %-10s t=%6.0fs swap=%6.0fs nodes %zu->%zu  "
        "moved %7.1f MB  p99 ms %6.2f/%6.2f/%6.2f (before/during/after)  "
        "avail %.4f  %s\n",
        i, ToString(t.action), t.decided_seconds, t.swap_seconds,
        t.nodes_before, t.nodes_after, t.moved_bytes / 1e6, t.p99_before_ms,
        t.p99_during_ms, t.p99_after_ms, t.availability_during,
        t.aborted ? "[aborted]" : (t.completed ? "[completed]" : "[pending]"));
  }
  std::printf(
      "day: slo attainment %.4f  availability %.6f  worst p99 %.2f ms  "
      "node-seconds %.3g\n",
      report.slo_attainment, report.availability, report.worst_p99_ms,
      report.node_seconds);
  std::printf(
      "actions: realloc %zu  resegment %zu  scale-out %zu  scale-in %zu  "
      "self-heal %zu\n",
      report.reallocations, report.resegmentations, report.scale_outs,
      report.scale_ins, report.self_heals);

  // --- Self-check 1: same-seed determinism -------------------------------
  const std::string fingerprint = bench::Serialize(report);
  auto second = RunDay(scenario, config.seed);
  const bool deterministic =
      second.ok() && bench::Serialize(*second) == fingerprint;
  std::printf("determinism: %s\n", deterministic ? "OK" : "FAILED");

  // --- Self-check 2: replications identical at any thread count ----------
  std::vector<std::string> serial(config.replications);
  std::vector<std::string> threaded(config.replications);
  auto replicate = [&](std::vector<std::string>* out, ThreadPool* pool) {
    ParallelFor(pool, out->size(), [&](size_t r) {
      auto rep = RunDay(scenario, config.seed + r);
      (*out)[r] = rep.ok() ? bench::Serialize(*rep) : "error";
    });
  };
  {
    ThreadPool one(1);
    replicate(&serial, &one);
    ThreadPool many(config.threads);
    replicate(&threaded, &many);
  }
  bool sweep_identical = true;
  for (size_t r = 0; r < config.replications; ++r) {
    sweep_identical = sweep_identical && serial[r] != "error" &&
                      serial[r] == threaded[r];
  }
  std::printf("thread sweep: %s (%zu reps, 1 vs %zu threads)\n",
              sweep_identical ? "OK" : "FAILED", config.replications,
              config.threads);

  // --- Self-check 3: live routing hot-swap parity ------------------------
  const bool parity =
      VerifyRoutingParity(scenario.cls, initial, final_alloc);
  std::printf("routing parity across SwapRouting: %s\n",
              parity ? "OK" : "FAILED");

  // --- Scenario coverage (full day only) ---------------------------------
  bool covered = true;
  if (!config.smoke) {
    covered = report.reallocations + report.resegmentations >= 1 &&
              report.self_heals >= 1 && report.scale_outs >= 1;
    if (!covered) {
      std::fprintf(stderr,
                   "bench_adaptive: scenario coverage failed (need >=1 "
                   "drift transition, self-heal, and scale-out)\n");
    }
  }

  if (!config.out_path.empty()) {
    std::FILE* out = std::fopen(config.out_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"bench_adaptive\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"seed\": %llu,\n"
                 "  \"buckets\": %zu,\n"
                 "  \"bucket_seconds\": %.0f,\n"
                 "  \"slo_p99_ms\": %.1f,\n"
                 "  \"slo_attainment\": %.4f,\n"
                 "  \"availability\": %.6f,\n"
                 "  \"worst_p99_ms\": %.3f,\n"
                 "  \"node_seconds\": %.0f,\n"
                 "  \"reallocations\": %zu,\n"
                 "  \"resegmentations\": %zu,\n"
                 "  \"scale_outs\": %zu,\n"
                 "  \"scale_ins\": %zu,\n"
                 "  \"self_heals\": %zu,\n",
                 config.smoke ? "smoke" : "full",
                 static_cast<unsigned long long>(config.seed),
                 scenario.day.size(), scenario.options.bucket_seconds,
                 scenario.options.slo_p99_ms, report.slo_attainment,
                 report.availability, report.worst_p99_ms,
                 report.node_seconds, report.reallocations,
                 report.resegmentations, report.scale_outs, report.scale_ins,
                 report.self_heals);
    std::fprintf(out, "  \"transitions\": [\n");
    for (size_t i = 0; i < report.transitions.size(); ++i) {
      const TransitionRecord& t = report.transitions[i];
      std::fprintf(
          out,
          "    {\"action\": \"%s\", \"cause\": \"%s\", "
          "\"decided_s\": %.0f, \"swap_s\": %.1f, \"nodes_before\": %zu, "
          "\"nodes_after\": %zu, \"moved_mb\": %.1f, "
          "\"p99_before_ms\": %.3f, \"p99_during_ms\": %.3f, "
          "\"p99_after_ms\": %.3f, \"availability_during\": %.4f, "
          "\"aborted\": %s, \"completed\": %s}%s\n",
          ToString(t.action), JsonEscape(t.cause).c_str(),
          t.decided_seconds, t.swap_seconds, t.nodes_before, t.nodes_after,
          t.moved_bytes / 1e6, t.p99_before_ms, t.p99_during_ms,
          t.p99_after_ms, t.availability_during,
          t.aborted ? "true" : "false", t.completed ? "true" : "false",
          i + 1 < report.transitions.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"deterministic\": %s,\n"
                 "  \"thread_sweep_identical\": %s,\n"
                 "  \"routing_parity_verified\": %s\n"
                 "}\n",
                 deterministic ? "true" : "false",
                 sweep_identical ? "true" : "false",
                 parity ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", config.out_path.c_str());
  }

  return (deterministic && sweep_identical && parity && covered) ? 0 : 1;
}

// Shared plumbing for the figure/table benches: classify -> allocate ->
// validate -> simulate pipelines, seed-averaged statistics, and aligned
// table printing. Each bench binary prints the series of one paper figure
// or table (gnuplot-ready columns), followed by a paper-vs-measured note.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/search_kernel.h"
#include "autonomic/control_loop.h"
#include "cluster/simulator.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "engine/catalog.h"
#include "model/metrics.h"
#include "model/validation.h"
#include "workload/classifier.h"

namespace qcap::bench {

/// A fully prepared experiment instance.
struct Pipeline {
  Classification cls;
  Allocation alloc;
  std::vector<BackendSpec> backends;
};

/// Classifies \p journal and allocates with \p allocator onto \p nodes
/// homogeneous backends; validates the result.
inline Result<Pipeline> BuildPipeline(const engine::Catalog& catalog,
                                      const QueryJournal& journal,
                                      Granularity granularity,
                                      Allocator* allocator, size_t nodes,
                                      int horizontal_partitions = 4) {
  Classifier classifier(
      catalog, ClassifierOptions{granularity, horizontal_partitions, true});
  QCAP_ASSIGN_OR_RETURN(Classification cls, classifier.Classify(journal));
  std::vector<BackendSpec> backends = HomogeneousBackends(nodes);
  QCAP_ASSIGN_OR_RETURN(Allocation alloc, allocator->Allocate(cls, backends));
  QCAP_RETURN_NOT_OK(ValidateAllocation(cls, alloc, backends));
  return Pipeline{std::move(cls), std::move(alloc), std::move(backends)};
}

/// Wall-clock seconds of each pipeline phase, so scaling regressions are
/// attributable to a specific stage instead of one lump sum.
struct PhaseTimings {
  double classify_s = 0.0;     ///< Journal -> Classification.
  double index_build_s = 0.0;  ///< ClassificationIndex construction.
  double search_s = 0.0;       ///< allocator->Allocate (includes its GCs).
  double gc_sweep_s = 0.0;     ///< One standalone full GarbageCollect sweep.
  double validate_s = 0.0;     ///< ValidateAllocation.
};

/// BuildPipeline with per-phase wall timings. The index build and the GC
/// sweep are measured on dedicated instances (the allocator builds and
/// garbage-collects internally as part of search_s), so the columns answer
/// "where would another 10x in instance size hurt".
inline Result<Pipeline> BuildPipelineTimed(const engine::Catalog& catalog,
                                           const QueryJournal& journal,
                                           Granularity granularity,
                                           Allocator* allocator, size_t nodes,
                                           PhaseTimings* phases,
                                           int horizontal_partitions = 4) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  Classifier classifier(
      catalog, ClassifierOptions{granularity, horizontal_partitions, true});
  auto t0 = Clock::now();
  QCAP_ASSIGN_OR_RETURN(Classification cls, classifier.Classify(journal));
  phases->classify_s = seconds_since(t0);
  std::vector<BackendSpec> backends = HomogeneousBackends(nodes);
  t0 = Clock::now();
  ClassificationIndex index(cls);
  phases->index_build_s = seconds_since(t0);
  t0 = Clock::now();
  QCAP_ASSIGN_OR_RETURN(Allocation alloc, allocator->Allocate(cls, backends));
  phases->search_s = seconds_since(t0);
  {
    Allocation sweep = alloc;
    sweep.BindSizes(cls.catalog);
    alloc_internal::SearchKernel kernel(cls, index, backends);
    t0 = Clock::now();
    kernel.GarbageCollect(&sweep);
    phases->gc_sweep_s = seconds_since(t0);
  }
  t0 = Clock::now();
  QCAP_RETURN_NOT_OK(ValidateAllocation(cls, alloc, backends));
  phases->validate_s = seconds_since(t0);
  return Pipeline{std::move(cls), std::move(alloc), std::move(backends)};
}

/// Runs a closed-loop simulation of \p p.
inline Result<SimStats> Simulate(const Pipeline& p, uint64_t requests,
                                 uint64_t seed,
                                 const engine::CostModelParams& params,
                                 double rowa_fanout_overhead = 0.0) {
  SimulationConfig config;
  config.cost_params = params;
  config.seed = seed;
  config.servers_per_backend = 4;
  config.rowa_fanout_overhead = rowa_fanout_overhead;
  QCAP_ASSIGN_OR_RETURN(
      ClusterSimulator sim,
      ClusterSimulator::Create(p.cls, p.alloc, p.backends, config));
  return sim.RunClosed(requests, 4 * p.backends.size());
}

/// Mean/min/max of simulated throughput over \p seeds runs.
struct ThroughputStats {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Replications run as one RunClosedSweep fan (seeds 1..seeds) over the
/// default thread count, or \p pool when given. Sweep results land in
/// submission order and the aggregation below walks them in that order, so
/// the numbers are bit-identical to the old serial seed loop.
inline Result<ThroughputStats> SimulateSeeds(
    const Pipeline& p, uint64_t requests, size_t seeds,
    const engine::CostModelParams& params,
    double rowa_fanout_overhead = 0.0, ThreadPool* pool = nullptr) {
  SimulationConfig config;
  config.cost_params = params;
  config.seed = 1;
  config.servers_per_backend = 4;
  config.rowa_fanout_overhead = rowa_fanout_overhead;
  QCAP_ASSIGN_OR_RETURN(
      ClusterSimulator sim,
      ClusterSimulator::Create(p.cls, p.alloc, p.backends, config));
  SweepOptions sweep;
  sweep.repeat = seeds;
  sweep.threads = ThreadPool::DefaultThreads();
  sweep.pool = pool;
  QCAP_ASSIGN_OR_RETURN(
      std::vector<SimStats> runs,
      sim.RunClosedSweep(requests, 4 * p.backends.size(), sweep));
  ThroughputStats out;
  out.min = 1e300;
  out.max = -1e300;
  for (const SimStats& stats : runs) {
    out.mean += stats.throughput;
    out.min = std::min(out.min, stats.throughput);
    out.max = std::max(out.max, stats.throughput);
  }
  out.mean /= static_cast<double>(seeds);
  return out;
}

/// Prints one aligned row of cells.
inline void PrintRow(const std::vector<std::string>& cells, size_t width = 14) {
  std::string line;
  for (const auto& cell : cells) line += PadLeft(cell, width);
  std::printf("%s\n", line.c_str());
}

inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns,
                        size_t width = 14) {
  std::printf("\n=== %s ===\n", title.c_str());
  PrintRow(columns, width);
  std::printf("%s\n", std::string(width * columns.size(), '-').c_str());
}

inline std::string Fmt(double v, int precision = 2) {
  return FormatDouble(v, precision);
}

/// Cost-model parameters used by the TPC-H benches: SF 1 is ~1 GB and the
/// per-backend cache is smaller, so full replicas spill while specialized
/// backends fit (the paper's super-linear read-only effect).
inline engine::CostModelParams TpchCostParams() {
  engine::CostModelParams params;
  params.memory_bytes = 0.6 * 1024 * 1024 * 1024;
  // Row-store backends only partially benefit from narrower scans (join
  // and tuple-at-a-time overheads dominate): a 0.45 io share keeps the
  // column-allocation advantage in the paper's observed range.
  params.io_fraction = 0.45;
  params.max_cache_penalty = 3.0;
  return params;
}

/// Cost-model parameters for the TPC-App benches (OLTP: less scan-bound,
/// 280 MB data set fits in memory at EB=300).
inline engine::CostModelParams TpcAppCostParams() {
  engine::CostModelParams params;
  params.memory_bytes = 2.0 * 1024 * 1024 * 1024;
  params.io_fraction = 0.3;
  params.max_cache_penalty = 3.0;
  return params;
}

/// Fails hard with a message; benches have no meaningful recovery path.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
inline T ValueOrDie(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// Bit-exact serialization of everything a replay decides and observes;
/// string equality == report equality.
inline std::string Serialize(const AdaptiveReport& report) {
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

}  // namespace qcap::bench

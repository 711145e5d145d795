// The metric names every workload reports, in order. README.md maps each
// end-to-end metric to its meaning on each workload and each per-layer
// metric to the end-to-end metric it should move.
#include <cstdio>
#include <cstdlib>

#include "workloads.h"

namespace qcap::perfbench {

const std::vector<Metric>& EndToEndMetricTemplate() {
  static const std::vector<Metric> kMetrics = {
      {"setup_s", 0.0, "s"},
      {"peak_rss_mb", 0.0, "MB"},
      {"op_p50_ms", 0.0, "ms"},
      {"op_p99_ms", 0.0, "ms"},
      {"op_cpu_ms", 0.0, "ms"},
      {"requests_per_s", 0.0, "1/s"},
      {"quality", 0.0, "ratio"},
      {"footprint", 0.0, "ratio"},
  };
  return kMetrics;
}

const std::vector<Metric>& PerLayerMetricTemplate() {
  static const std::vector<Metric> kMetrics = {
      // Tracing cost and, on plan-scale, the stage sum it must explain.
      {"trace.overhead_ms", 0.0, "ms"},
      {"trace.stage_sum_s", 0.0, "s"},
      {"trace.path_s", 0.0, "s"},
      {"trace.untimed_ms", 0.0, "ms"},
      {"trace.overhead_noise_ms", 0.0, "ms"},
      {"workload.classify_s", 0.0, "s"},
      // Planning pipeline (plan-scale).
      {"alloc.index_build_s", 0.0, "s"},
      {"alloc.greedy_s", 0.0, "s"},
      {"alloc.memetic_s", 0.0, "s"},
      {"alloc.gc_sweep_s", 0.0, "s"},
      {"model.validate_s", 0.0, "s"},
      {"physical.transition_s", 0.0, "s"},
      {"alloc.memetic_evals_per_s", 0.0, "1/s"},
      {"alloc.memetic_improve_ratio", 0.0, "ratio"},
      {"alloc.memetic_cpu_util", 0.0, "ratio"},
      {"physical.moved_mb", 0.0, "MB"},
      {"cluster.sim_create_s", 0.0, "s"},
      {"cluster.sim_drain_s", 0.0, "s"},
      {"cluster.sim_requests_per_s", 0.0, "1/s"},
      // Heap allocations per stage (counting operator new).
      {"alloc.index_build.heap_allocs", 0.0, "count"},
      {"alloc.greedy.heap_allocs", 0.0, "count"},
      {"alloc.memetic.heap_allocs", 0.0, "count"},
      {"alloc.gc_sweep.heap_allocs", 0.0, "count"},
      {"model.validate.heap_allocs", 0.0, "count"},
      {"physical.transition.heap_allocs", 0.0, "count"},
      {"cluster.sim_create.heap_allocs", 0.0, "count"},
      {"cluster.sim_drain.heap_allocs", 0.0, "count"},
      {"net.serve.heap_allocs", 0.0, "count"},
      {"net.route.heap_allocs", 0.0, "count"},
      {"autonomic.step.heap_allocs", 0.0, "count"},
      // Serving (serve-tpcapp).
      {"net.serve_cpu_us", 0.0, "us"},
      {"net.rtt_us_p50", 0.0, "us"},
      {"net.rtt_us_p99", 0.0, "us"},
      {"net.route_us", 0.0, "us"},
      {"net.frame_us", 0.0, "us"},
      {"net.transport_us", 0.0, "us"},
      {"net.scrape_ms", 0.0, "ms"},
      {"net.scrape_inproc_ms", 0.0, "ms"},
      {"net.done_per_submit", 0.0, "ratio"},
      {"net.pending_mean", 0.0, "count"},
      {"net.pending_p99", 0.0, "count"},
      {"net.err_rate_limited", 0.0, "count"},
      {"net.err_unservable", 0.0, "count"},
      {"net.err_other", 0.0, "count"},
      {"net.transport_errors", 0.0, "count"},
      {"net.unanswered", 0.0, "count"},
      {"net.ladder_capacity_qps", 0.0, "1/s"},
      {"net.capacity_bracketed", 0.0, "count"},
      {"net.client_p50_us", 0.0, "us"},
      {"net.client_p99_us", 0.0, "us"},
      {"net.p99_raw_ms", 0.0, "ms"},
      {"gen.late_us_p99", 0.0, "us"},
      {"gen.invalid_steps", 0.0, "count"},
      // Adaptive loop (day-adaptive).
      {"autonomic.step_ms_p50", 0.0, "ms"},
      {"autonomic.step_ms_p99", 0.0, "ms"},
      {"autonomic.transition_step_ms", 0.0, "ms"},
      {"autonomic.quiet_step_ms", 0.0, "ms"},
      {"autonomic.alloc_ms", 0.0, "ms"},
      {"autonomic.alloc_calls", 0.0, "count"},
      {"cluster.slice_requests_per_s", 0.0, "1/s"},
      {"autonomic.transitions_realloc", 0.0, "count"},
      {"autonomic.transitions_resegment", 0.0, "count"},
      {"autonomic.transitions_scale_out", 0.0, "count"},
      {"autonomic.transitions_scale_in", 0.0, "count"},
      {"autonomic.transitions_self_heal", 0.0, "count"},
      {"autonomic.moved_mb", 0.0, "MB"},
      {"autonomic.node_seconds", 0.0, "node-s"},
  };
  return kMetrics;
}

void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value) {
  for (Metric& m : *metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  // A name missing from the templates is a programming error in the
  // benchmark itself; fail loudly rather than drop the value.
  std::fprintf(stderr, "qcap_perfbench: unknown metric '%s'\n", name.c_str());
  std::abort();
}

}  // namespace qcap::perfbench

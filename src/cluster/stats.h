// Simulation statistics: throughput, latency, availability, and
// per-backend utilization of one simulated run. The shared measurement
// primitives (SearchProgress, ResponseAccumulator) live in common/stats.h
// so lower layers can use them without depending on the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qcap {

/// Results of one simulated run.
struct SimStats {
  /// Simulated wall-clock seconds.
  double duration_seconds = 0.0;
  /// Completed logical requests (an update counts once even though it runs
  /// on every replica).
  uint64_t completed_reads = 0;
  uint64_t completed_updates = 0;
  /// Requests abandoned after exhausting the retry budget (with retries
  /// disabled: any request whose work a crash destroyed).
  uint64_t failed_requests = 0;
  /// Requests that could not be dispatched because no surviving backend
  /// holds the class's data (the situation k-safety prevents).
  uint64_t rejected_requests = 0;
  /// Retry attempts scheduled for requests stranded by a crash (each adds
  /// the policy's backoff delay to the request's response time).
  uint64_t retried_requests = 0;
  /// Retries that successfully landed the request on a surviving backend.
  uint64_t redispatched_requests = 0;
  /// Missed update applications (replica lag) drained by recoveries.
  uint64_t lag_tasks_drained = 0;
  /// Logical requests per second.
  double throughput = 0.0;
  /// Mean and maximum response time (queueing + service) in seconds.
  double avg_response_seconds = 0.0;
  double max_response_seconds = 0.0;
  /// Response-time percentiles (nearest-rank) in seconds.
  double p50_response_seconds = 0.0;
  double p95_response_seconds = 0.0;
  double p99_response_seconds = 0.0;
  /// Fraction of the offered load that was served:
  /// completed / (completed + failed + rejected); 1 when nothing was offered.
  double availability = 1.0;
  /// Per-backend total busy (processing) seconds.
  std::vector<double> backend_busy_seconds;
  /// Completions per timeline bin when SimulationConfig::timeline_bin_seconds
  /// is > 0 (bin i covers [i*bin, (i+1)*bin) simulated seconds).
  double timeline_bin_seconds = 0.0;
  std::vector<uint64_t> timeline_completions;
  /// Completed logical requests per class (reads first, then updates) when
  /// SimulationConfig::track_class_mix is set — the observed workload mix
  /// the adaptive control loop's drift detector feeds on. Empty otherwise.
  std::vector<uint64_t> class_completions;

  uint64_t completed_total() const { return completed_reads + completed_updates; }

  /// Relative deviation from the average per-backend processing time
  /// normalized by relative performance (the balance measure of Fig. 4j).
  /// \p relative_loads are the backends' performance shares.
  double BusyBalanceDeviation(const std::vector<double>& relative_loads) const;

  /// One-line human-readable summary.
  std::string ToString() const;
};

}  // namespace qcap

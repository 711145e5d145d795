// Shared plumbing of qcap_perfbench: run options and results,
// clocks and CPU accounting, the percentile and capacity rules the
// workloads report with, and the host fingerprint stamped on every run.
//
// Everything here is timed from outside the library: the workloads call
// each module's public functions and read the clock around the calls.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qcap::perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p start.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One benchmark invocation, as given on the command line.
struct RunOptions {
  uint64_t seed = 1;
  /// Measurement budget; each workload sizes its fixed amount of work from
  /// it (the size never depends on how fast the host is).
  double seconds = 20.0;
  /// false: untraced run, end-to-end metrics. true: one untraced and one
  /// traced pass, per-layer metrics plus the tracing overhead.
  bool trace = false;
};

/// A named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload run reports. `end_to_end` is printed for untraced
/// runs and `per_layer` for traced ones.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines printed before the result (gate outcomes etc.).
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("GATE FAILED: " + why);
  }
};

/// Process CPU seconds (all threads).
double ProcessCpuSeconds();
/// CPU seconds of the calling thread.
double ThreadCpuSeconds();
/// Peak resident set size of the process, MB.
double PeakRssMb();

/// Median of \p values (mean of the middle two for even sizes); 0 if empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile \p q in [0, 1] of \p sorted (ascending).
double Percentile(const std::vector<double>& sorted, double q);

/// The highest quantile not above \p wanted that leaves at least
/// \p min_beyond samples strictly above it in a sample of \p n, or -1 when
/// even the median does not (fewer than 2 * min_beyond + 1 samples).
double TailQuantile(size_t n, double wanted, size_t min_beyond = 10);

/// Median over \p windows (slices of one step, any order) of each window's
/// nearest-rank percentile \p q, lowered by TailQuantile to keep
/// min_beyond samples above it. A host stall lifts the tail of the windows
/// it hits only; load that the server cannot carry lifts them all. Windows
/// with fewer than 2 * min_beyond + 1 samples are skipped.
double WindowedTail(std::vector<std::vector<double>> windows, double q,
                    size_t min_beyond = 10);

/// One step of an open-loop rate ladder.
struct LadderStep {
  double offered_qps = 0.0;
  /// Client p99 timed from each due time (WindowedTail over the step).
  double p99_seconds = 0.0;
  bool backlog_grew = false;
  bool valid = true;  ///< False when the generator itself fell behind.
};

/// Outcome of CapacityFromLadder.
struct Capacity {
  double qps = 0.0;
  /// True when the highest passing step is followed by a failing valid
  /// step, so qps is interpolated; false when the ladder ran out or the
  /// generator fell behind first (qps is then the highest passing rate).
  bool bracketed = false;
};

/// The offered rate at which client p99 crosses \p p99_limit_seconds. A
/// step passes if its p99 is within the limit and its backlog did not grow.
/// Only the valid prefix of the ladder counts (after an invalid step the
/// generator, not the server, set the pace). The capacity is the highest
/// passing rate there — isolated failures below it are host stalls, not
/// load. When a failing valid step follows it, the crossing is
/// interpolated linearly between them: r0 + (r1 - r0) * (limit - l0) /
/// (max(l1, limit) - l0). With no passing step the capacity is 0.
Capacity CapacityFromLadder(const std::vector<LadderStep>& steps,
                            double p99_limit_seconds);

/// Transport share of the served CPU per request: what is left of the
/// client-measured server CPU after routing and framing, never negative.
double TransportMicros(double serve_cpu_us, double route_us, double frame_us);

/// Cumulative CPU time of the whole machine from /proc/stat, in clock
/// ticks: all states, and the share the hypervisor gave to other guests.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostTicks ReadHostTicks();

/// CPU model, nproc, build type, compiler and SIMD dispatch, as one JSON
/// object.
std::string HostFingerprintJson();

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& result, bool trace);

/// Mixes \p seed with \p salt into an independent 64-bit seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

}  // namespace qcap::perfbench

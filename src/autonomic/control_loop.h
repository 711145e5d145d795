// End-to-end adaptive control loop (Section 5 brought together): watch the
// observed query-class mix of the running cluster, detect workload drift,
// SLO violations, load swings, and crashes, choose a corrective action —
// re-allocate, re-segment, scale out/in, or self-heal — plan the migration
// with the Hungarian matcher + ETL cost model, and execute it *live*
// through a staged MigrationExecutor (cluster/migration_executor.h): old
// placements keep serving under ETL interference until every new replica
// is caught up, then routing swaps atomically.
//
// Decision priority per control interval (one trace bucket):
//
//            ┌── k-safety violated? ──────────── SELF-HEAL (pre-empts an
//            │                                   in-flight migration)
//   observe ─┤── p99 > SLO and hot? ──────────── SCALE-OUT
//            │── idle and p99 far under SLO? ─── SCALE-IN
//            │── mix drifted off every serving   RE-ALLOCATE, escalating
//            │   mix?                            to RE-SEGMENT after
//            │                                   repeated drift reallocs
//            └── otherwise ────────────────────── steady state
//
// Drift is the L1 distance between the windowed observed mix
// (SimStats::class_completions in weight space) and the *nearest* mix the
// installed layout was built for — a re-segmented layout serves several
// mixes at once, so oscillating between them no longer reads as drift.
//
// The whole loop is deterministic: per-bucket seeds are derived
// arithmetically from the configured seed and the bucket's time of day,
// nothing reads a clock, and a day replay is bit-identical across repeats
// and at any sweep thread count (pinned by bench_adaptive and
// control_loop_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "common/annotations.h"
#include "cluster/migration_executor.h"
#include "cluster/simulator.h"
#include "physical/physical_allocator.h"

namespace qcap {

/// Corrective action decided at the end of a control interval.
enum class AdaptiveAction {
  kNone = 0,
  kReallocate,  ///< Same cluster size, layout re-fit to the observed mix.
  kResegment,   ///< Merged multi-segment layout robust to mix oscillation.
  kScaleOut,    ///< Add a node (SLO violated while the cluster runs hot).
  kScaleIn,     ///< Drop a node (idle and comfortably inside the SLO).
  kSelfHeal,    ///< Re-plan onto survivors + replacement after a crash.
};

const char* ToString(AdaptiveAction action);

/// Control-loop tuning.
struct AdaptiveOptions {
  /// The p99 response-time objective, milliseconds.
  double slo_p99_ms = 60.0;
  /// Scale out only when the SLO is violated *and* mean busy fraction
  /// exceeds this (a violation on an idle cluster is not a capacity
  /// problem and falls through to the drift path).
  double scale_up_utilization = 0.5;
  /// Scale in when busy fraction drops below this...
  double scale_down_utilization = 0.2;
  /// ...and p99 stays under slo_p99_ms * this headroom factor.
  double scale_down_headroom = 0.5;
  size_t min_nodes = 2;
  size_t max_nodes = 10;
  /// Sliding window (in buckets) the drift detector averages over.
  size_t window_buckets = 3;
  /// L1 distance to the nearest serving mix that triggers re-allocation.
  double drift_threshold = 0.35;
  /// Drift re-allocations since the last re-segmentation that escalate the
  /// next drift into a re-segmentation. 0 re-segments immediately.
  size_t resegment_after = 2;
  /// L1 boundary between adjacent observed mixes that starts a new segment
  /// when re-segmenting the mix history.
  double segment_split_threshold = 0.3;
  /// Control intervals to hold off new (non-self-heal) decisions after a
  /// routing swap — lets the window refill with post-swap observations.
  size_t cooldown_buckets = 1;
  /// Redundancy target for CheckKSafety (Algorithm 3). 0 = "every class
  /// still servable, no data lost".
  int k_safety = 0;
  /// Real seconds per control interval (trace bucket).
  double bucket_seconds = 600.0;
  /// Simulated seconds per interval: a representative slice keeps the
  /// replay cheap.
  double slice_seconds = 12.0;
  MigrationOptions migration;
  /// ETL rates the Hungarian transition planner prices migrations with.
  EtlCostModel etl;
  SimulationConfig sim;
};

/// One control interval's offered workload.
struct BucketDemand {
  /// Bucket start, seconds since day start. Buckets must be uniform and
  /// bucket_seconds apart.
  double tod_seconds = 0.0;
  /// Offered arrival rate, logical requests/second.
  double offered_qps = 0.0;
  /// Per-class multiplier on the base classification's weights (reads
  /// first, then updates; empty = all 1): the diurnal mix shift. Scaled
  /// weights are renormalized before simulation.
  std::vector<double> class_weight_scale;
};

/// Telemetry of one control interval.
struct AdaptiveStep {
  double tod_seconds = 0.0;
  size_t nodes = 0;           ///< Cluster size at the end of the interval.
  double offered_qps = 0.0;
  double p99_ms = 0.0;
  double avg_ms = 0.0;
  double availability = 1.0;
  double utilization = 0.0;   ///< Mean busy fraction across servers.
  double drift = 0.0;         ///< L1 distance to the nearest serving mix.
  AdaptiveAction decision = AdaptiveAction::kNone;
  MigrationPhase phase = MigrationPhase::kIdle;  ///< Phase while running.
  bool swapped = false;       ///< Routing swap happened in this interval.
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  size_t dead_backends = 0;   ///< Down at the end of the interval.
};

/// One decided transition, from decision to (past) the routing swap.
struct TransitionRecord {
  AdaptiveAction action = AdaptiveAction::kNone;
  std::string cause;              ///< Human-readable trigger.
  double decided_seconds = 0.0;   ///< Bucket end that decided it.
  double swap_seconds = 0.0;      ///< Absolute routing cut-over time.
  double moved_bytes = 0.0;
  double etl_seconds = 0.0;
  size_t nodes_before = 0;
  size_t nodes_after = 0;
  double p99_before_ms = 0.0;     ///< The deciding bucket's p99.
  double p99_during_ms = 0.0;     ///< Max p99 while the migration ran.
  double p99_after_ms = 0.0;      ///< First full post-swap bucket's p99.
  double availability_during = 1.0;  ///< Min availability while migrating.
  bool aborted = false;           ///< Superseded (e.g. by a self-heal).
  bool completed = false;         ///< Swap executed.
};

/// Whole-day outcome.
struct AdaptiveReport {
  std::vector<AdaptiveStep> steps;
  std::vector<TransitionRecord> transitions;
  /// Fraction of intervals whose p99 met the SLO.
  double slo_attainment = 0.0;
  /// Completed / offered over the whole day.
  double availability = 1.0;
  double worst_p99_ms = 0.0;
  size_t reallocations = 0;
  size_t resegmentations = 0;
  size_t scale_outs = 0;
  size_t scale_ins = 0;
  size_t self_heals = 0;
  /// Integral of cluster size over time.
  double node_seconds = 0.0;
};

/// \brief The continuous controller: observe → decide → plan → execute.
class AdaptiveController {
 public:
  /// \p base is the classification of the workload (structure + mean
  /// costs; its weights are the reference mix). \p allocator recomputes
  /// layouts at every corrective action (not owned, must outlive).
  AdaptiveController(const Classification& base, Allocator* allocator,
                     AdaptiveOptions options);

  /// Computes and installs the initial allocation on \p nodes backends.
  /// Fails on a null allocator, non-positive bucket or slice seconds, or
  /// min_nodes > max_nodes.
  Status Install(size_t nodes);

  /// Runs one control interval: simulates the offered load on the current
  /// layout (applying faults, ETL interference, and — if the in-flight
  /// migration's catch-up completes mid-interval — the atomic routing
  /// swap), updates the observation window, and decides the next action.
  /// \p faults are this interval's external events in absolute day time.
  Result<AdaptiveStep> Step(const BucketDemand& demand,
                            const std::vector<FaultEvent>& faults);

  /// Replays a full day: one Step per demand bucket, slicing \p day_faults
  /// into the buckets by time. Install() must have run.
  Result<AdaptiveReport> ReplayDay(const std::vector<BucketDemand>& day,
                                   const FaultPlan& day_faults);

  const Allocation& allocation() const { return alloc_; }
  const Classification& base() const { return base_; }
  size_t nodes() const { return nodes_; }
  const std::vector<bool>& alive() const { return alive_; }
  const MigrationExecutor& migration() const { return migration_; }
  const std::vector<TransitionRecord>& transitions() const {
    return transitions_;
  }
  /// The mixes the installed layout was built to serve (≥ 1; several after
  /// a re-segmentation).
  const std::vector<std::vector<double>>& serving_mixes() const {
    return serving_mixes_;
  }

 private:
  /// Copy of the base classification with per-class weights replaced by
  /// \p mix (renormalized).
  Classification WithMix(const std::vector<double>& mix) const;
  /// Observed completions → weight-space mix (count × mean cost, normed).
  std::vector<double> ObservedMix(const std::vector<uint64_t>& counts) const;
  /// Mean of the observation window.
  std::vector<double> WindowMix() const;
  /// min over serving_mixes_ of the L1 distance to \p mix.
  double DriftOf(const std::vector<double>& mix) const;

  /// Simulates [w0, w1) ⊂ the bucket as a proportional sub-slice on the
  /// current layout, assembling the slice-local fault plan from persistent
  /// state (dead nodes, sticky degrades), \p external events, and ETL
  /// interference. Updates persistent liveness/degrade state as a side
  /// effect. Adds results into \p *step and \p *counts.
  Status RunSlice(const BucketDemand& demand, double w0, double w1,
                  const std::vector<FaultEvent>& external, uint64_t seed,
                  AdaptiveStep* step, std::vector<uint64_t>* counts,
                  double* busy_seconds, double* capacity_seconds,
                  double* response_sum);

  /// Executes the atomic swap: installs the executor's target, resizes
  /// liveness/degrade state, re-provisions dead nodes (the migration
  /// materialized every replica), finalizes the transition record.
  void SwapNow();

  /// Decides and (if warranted) plans + begins a migration at
  /// \p decided_seconds. Fills step->decision.
  Status Decide(double decided_seconds, AdaptiveStep* step);
  /// Plans a migration toward \p target_mix on \p target_nodes and begins
  /// it; shared by every action.
  Status BeginTransition(AdaptiveAction action, std::string cause,
                         const std::vector<double>& target_mix,
                         size_t target_nodes, double decided_seconds,
                         double p99_before_ms);
  /// Re-segments the observed-mix history and begins the merged-layout
  /// transition.
  Status BeginResegmentation(double decided_seconds, double p99_before_ms);

  // The controller is single-threaded by contract: every entry point runs
  // on the operator's control thread (docs/ARCHITECTURE.md § Adaptive
  // control loop), and cross-thread work happens through the Dispatcher's
  // own routing lock, never by sharing this state. Confined, not guarded.
  QCAP_THREAD_CONFINED("operator control thread")
  Classification base_;
  Allocator* allocator_;
  AdaptiveOptions options_;
  PhysicalAllocator physical_;
  MigrationExecutor migration_;

  QCAP_THREAD_CONFINED("operator control thread")
  Allocation alloc_;
  size_t nodes_ = 0;
  std::vector<bool> alive_;
  std::vector<double> degrade_;  ///< Sticky per-node straggler factors.
  /// Liveness when the in-flight self-heal was planned; a further change
  /// (another crash) makes that plan stale and forces a re-plan.
  std::vector<bool> heal_alive_snapshot_;
  std::vector<std::vector<double>> serving_mixes_;
  /// Mixes the in-flight migration's target was built for; becomes
  /// serving_mixes_ at the swap.
  std::vector<std::vector<double>> staged_mixes_;
  bool staged_resets_drift_ = false;
  std::vector<std::vector<double>> window_;   ///< Last window_buckets mixes.
  std::vector<std::vector<double>> history_;  ///< All observed mixes.
  std::vector<TransitionRecord> transitions_;
  size_t drift_reallocs_ = 0;  ///< Since the last re-segmentation.
  size_t cooldown_ = 0;
  /// Transition whose p99_after_ms the next interval fills; npos = none.
  size_t pending_after_ = static_cast<size_t>(-1);
  size_t bucket_index_ = 0;
};

}  // namespace qcap

// Per-query service-time cost model for the cluster simulator.
//
// Service time of one execution of a query class on a backend:
//
//   t = mean_cost(C) * (io_fraction * scan_scale(C) * cache_penalty(B)
//                       + (1 - io_fraction)) / speed(B)
//
// where
//   - mean_cost(C): measured per-execution cost from the journal (seconds);
//   - scan_scale(C): bytes the class touches at the classification
//     granularity relative to touching its tables in full — this is what
//     makes column-granular allocations faster (vertical partitioning
//     improves transfer from disk, Section 4.1);
//   - cache_penalty(B): grows as the backend's resident data exceeds its
//     memory — this is what makes specialized backends super-linear
//     ("less data is stored on the nodes and the caching improves");
//   - speed(B): the backend's relative processing power (heterogeneity).
#pragma once

#include <vector>

#include "engine/catalog.h"
#include "model/allocation.h"
#include "model/backend.h"
#include "workload/query_class.h"

namespace qcap::engine {

/// Tunable parameters of the service-time model.
struct CostModelParams {
  /// Fraction of query time that scales with scanned bytes and caching.
  double io_fraction = 0.7;
  /// Memory available for caching on each backend, in bytes.
  double memory_bytes = 2.0 * 1024 * 1024 * 1024;
  /// Penalty multiplier on the I/O part when nothing fits in memory.
  double max_cache_penalty = 3.0;
  /// Per-query multiplier for column-granular execution overhead (stitching
  /// vertical fragments back together; the paper observed a small slowdown
  /// for column-based allocation on TPC-App).
  double column_overhead = 1.05;
  /// Buffer-pool mixing: a backend interleaving k distinct query classes
  /// behaves as if its working set were inflated by
  /// (1 + mixing_per_class * (k - 1)). This is what makes specialized
  /// backends cache better than full replicas serving every class
  /// (Section 4.1: "the backends are specialized on single query classes,
  /// less data is stored on the nodes and, hence, the caching improves").
  double mixing_per_class = 0.10;
};

/// \brief Computes deterministic service times for (class, backend) pairs
/// under a concrete allocation.
class CostModel {
 public:
  explicit CostModel(CostModelParams params = {}) : params_(params) {}

  /// Service seconds for one execution of \p c on backend \p b.
  /// \p resident_bytes is the backend's total stored bytes under the
  /// current allocation; \p speed is its relative performance times the
  /// number of backends (1.0 in a homogeneous cluster).
  double ServiceSeconds(const Classification& cls, const QueryClass& c,
                        double resident_bytes, double speed) const;

  /// Precomputes the service time of every (class, backend) pair as one
  /// row-major matrix: entry [class * backends.size() + backend], read
  /// classes first, then update classes.
  ///
  /// The cache penalty is driven by each backend's *working set* — the
  /// union of fragments of the classes the backend is eligible for at
  /// runtime (reads it holds completely, updates touching it) — not its raw
  /// stored bytes: a fully replicated backend serves every class (working
  /// set = whole database), while a specialized backend touches only its
  /// classes' data, which is the caching advantage the paper observes for
  /// partial replication.
  ///
  /// Cost O(C * |fragments per class| + B * C * F / 64): scan scales are
  /// computed once per class (not per pair), and eligibility and working
  /// sets are word-parallel bitset tests against the placement rows. Every
  /// entry is bit-identical to ServiceSeconds for that pair.
  std::vector<double> ServiceMatrix(const Classification& cls,
                                    const Allocation& alloc,
                                    const std::vector<BackendSpec>& backends) const;

  const CostModelParams& params() const { return params_; }

 private:
  /// Multiplier on the I/O part for a backend with \p resident_bytes of
  /// working set.
  double CachePenalty(double resident_bytes) const;
  /// The service-time formula (header comment) for one class on one
  /// backend, given the class's scan scale and column-execution flag.
  double Seconds(double mean_cost, double scan_scale, bool column,
                 double cache_penalty, double speed) const;

  CostModelParams params_;
};

}  // namespace qcap::engine

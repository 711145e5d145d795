// The pending-class queue shared by the greedy allocators (Algorithm 1 and
// its k-safe extension, Algorithm 4).
//
// Both algorithms take the heaviest pending class (weight of the class and
// its co-allocated updates × bundle size) and re-sort the queue after every
// step (Line 33 of Algorithm 1). Between two sorts only the popped class's
// key can change: a split read class is re-queued with its smaller
// remaining weight, and every other key depends on the classification
// alone. A stable sort keeps equal keys in their previous order and the
// re-queued entry is appended behind everything already queued, so the
// sorted queue is always the (key descending, insertion order ascending)
// order of its entries. A binary heap on (key, sequence number) pops
// exactly the entry the stable re-sort would put in front, ties included,
// in O(log Q) instead of O(Q log Q) per step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "workload/query_class.h"

namespace qcap::alloc_internal {

/// A query class pending allocation: an index into the classification's
/// reads (is_update = false) or updates (is_update = true).
struct PendingClass {
  size_t index = 0;
  bool is_update = false;
  /// A zero-weight extra copy added for k-safety (a member of the multiset
  /// Ck in Algorithm 4).
  bool is_replica = false;
};

/// Queue key of \p p: weight × size of the class's bundle (the class plus
/// its overlapping update classes). A read class counts its remaining
/// weight \p rest_weight[index], the share not yet assigned; update classes
/// and replicas carry only the overlapping update weight.
inline double PendingKey(const ClassificationIndex& index,
                         const PendingClass& p,
                         const std::vector<double>& rest_weight) {
  if (p.is_update) {
    return index.update_overlapping_update_weight(p.index) *
           index.update_bundle_bytes(p.index);
  }
  const double overlap = index.read_overlapping_update_weight(p.index);
  return (p.is_replica ? overlap : rest_weight[p.index] + overlap) *
         index.read_bundle_bytes(p.index);
}

/// Max-heap of pending classes by key; equal keys pop in push order.
class PendingQueue {
 public:
  void Reserve(size_t n) { heap_.reserve(n); }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Queues \p p behind every queued entry whose key equals \p key.
  void Push(const PendingClass& p, double key) {
    heap_.push_back(Entry{key, next_seq_++, p});
    std::push_heap(heap_.begin(), heap_.end(), PopsLater);
  }

  /// Removes and returns the entry with the largest key (the earliest
  /// pushed among equal keys). The queue must not be empty.
  PendingClass Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), PopsLater);
    const PendingClass p = heap_.back().cls;
    heap_.pop_back();
    return p;
  }

 private:
  struct Entry {
    double key;
    uint64_t seq;
    PendingClass cls;
  };
  static bool PopsLater(const Entry& a, const Entry& b) {
    return a.key < b.key || (a.key == b.key && a.seq > b.seq);
  }

  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace qcap::alloc_internal

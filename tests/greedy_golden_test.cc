// Golden fingerprints of the greedy allocators (Algorithm 1 and Algorithm 4).
//
// The pinned values were recorded from the erase-front + full stable re-sort
// implementation of the pending-class queue. Any queue that pops classes in
// exactly that order must reproduce every placement row, read share and
// update pin bit for bit, so a mismatch here means the allocation changed,
// not merely got faster. Do not regenerate these values to make a change
// pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc/greedy.h"
#include "alloc/ksafety.h"
#include "alloc/pending_queue.h"
#include "common/random.h"
#include "test_util.h"
#include "workload/classifier.h"
#include "workloads/synthetic_scale.h"
#include "workloads/tpcapp.h"
#include "workloads/tpch.h"

namespace qcap {
namespace {

/// FNV-1a over the shape, the placement rows, the read-assignment matrix
/// and the update-assignment matrix of \p a.
uint64_t Fingerprint(const Allocation& a) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  const uint64_t shape[4] = {a.num_backends(), a.num_fragments(),
                             a.num_reads(), a.num_updates()};
  mix(shape, sizeof(shape));
  for (size_t b = 0; b < a.num_backends(); ++b) {
    for (FragmentId f = 0; f < a.num_fragments(); ++f) {
      const unsigned char placed = a.IsPlaced(b, f) ? 1 : 0;
      mix(&placed, 1);
    }
    const auto row = a.ReadAssignRow(b);
    mix(row.data(), row.size() * sizeof(double));
    for (size_t u = 0; u < a.num_updates(); ++u) {
      const double w = a.update_assign(b, u);
      mix(&w, sizeof(w));
    }
  }
  return h;
}

Classification Scale(uint64_t seed, size_t fragments, size_t reads,
                     size_t updates, double update_share) {
  workloads::ScaleOptions o;
  o.num_fragments = fragments;
  o.num_read_classes = reads;
  o.num_update_classes = updates;
  o.update_share = update_share;
  o.seed = seed;
  return workloads::MakeScaleClassification(o);
}

Classification Classify(const engine::Catalog& catalog,
                        const QueryJournal& journal, Granularity g) {
  Classifier classifier(catalog, {g, 4, true});
  auto cls = classifier.Classify(journal);
  EXPECT_TRUE(cls.ok()) << cls.status().ToString();
  return cls.ok() ? std::move(cls).value() : Classification{};
}

std::vector<BackendSpec> Hetero(const std::vector<double>& shares) {
  auto r = HeterogeneousBackends(shares);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value() : std::vector<BackendSpec>{};
}

struct Instance {
  std::string name;
  std::function<Classification()> classification;
  std::vector<BackendSpec> backends;
};

std::vector<Instance> Instances() {
  const std::vector<double> h7 = {4, 3, 3, 2, 2, 1, 1};
  std::vector<double> h16;
  for (int i = 0; i < 16; ++i) h16.push_back(1.0 + i % 4);
  return {
      {"figure2", testutil::Figure2Classification, HomogeneousBackends(4)},
      {"appendix-a", testutil::AppendixAClassification,
       testutil::AppendixABackends()},
      {"scale-s1-b1", [] { return Scale(1, 300, 1500, 30, 0.25); },
       HomogeneousBackends(1)},
      {"scale-s2-b3-het", [] { return Scale(2, 400, 2000, 40, 0.25); },
       Hetero({3, 2, 1})},
      {"scale-s3-b7", [] { return Scale(3, 500, 2000, 40, 0.25); },
       HomogeneousBackends(7)},
      {"scale-s4-b7-het", [] { return Scale(4, 500, 2500, 50, 0.40); },
       Hetero(h7)},
      {"scale-s5-b16", [] { return Scale(5, 600, 3000, 60, 0.25); },
       HomogeneousBackends(16)},
      {"scale-s6-b16-het", [] { return Scale(6, 600, 2000, 100, 0.40); },
       Hetero(h16)},
      {"tpcapp-table-b10",
       [] {
         return Classify(workloads::TpcAppCatalog(300.0),
                         workloads::TpcAppJournal(200000), Granularity::kTable);
       },
       HomogeneousBackends(10)},
      {"tpcapp-column-b7-het",
       [] {
         return Classify(workloads::TpcAppCatalog(300.0),
                         workloads::TpcAppJournal(200000),
                         Granularity::kColumn);
       },
       Hetero(h7)},
      {"tpch-table-b5",
       [] {
         return Classify(workloads::TpchCatalog(1.0),
                         workloads::TpchJournal(10000), Granularity::kTable);
       },
       HomogeneousBackends(5)},
      {"tpch-column-b16-het",
       [] {
         return Classify(workloads::TpchCatalog(1.0),
                         workloads::TpchJournal(10000), Granularity::kColumn);
       },
       Hetero(h16)},
  };
}

/// One pinned allocation: instance name, allocator name, FNV-1a value.
struct Golden {
  const char* instance;
  const char* allocator;
  uint64_t fingerprint;
};

const Golden kGolden[] = {
    {"figure2", "greedy", 0x4316ce6d0125c622},
    {"figure2", "greedy-k0", 0x4316ce6d0125c622},
    {"figure2", "greedy-k1", 0x9478e907733e92c0},
    {"figure2", "greedy-k2", 0xb166f27997ea5bd0},
    {"appendix-a", "greedy", 0x0f1a91defcb322f6},
    {"appendix-a", "greedy-k0", 0x0f1a91defcb322f6},
    {"appendix-a", "greedy-k1", 0xbfc111e181c0a554},
    {"appendix-a", "greedy-k2", 0x50fb2b590a4ad823},
    {"scale-s1-b1", "greedy", 0x4ee3a00fa2661473},
    {"scale-s1-b1", "greedy-k0", 0x4ee3a00fa2661473},
    {"scale-s2-b3-het", "greedy", 0x2d400341945f0e92},
    {"scale-s2-b3-het", "greedy-k0", 0x9029c2ab46ba2ae5},
    {"scale-s2-b3-het", "greedy-k1", 0xe87fae7098edbc8f},
    {"scale-s2-b3-het", "greedy-k2", 0xdd8779abd9ca2a51},
    {"scale-s3-b7", "greedy", 0x2124d570ca32adf8},
    {"scale-s3-b7", "greedy-k0", 0x275196e0190306a0},
    {"scale-s3-b7", "greedy-k1", 0x119238b2b5660783},
    {"scale-s3-b7", "greedy-k2", 0x68dacb9d591c79a4},
    {"scale-s4-b7-het", "greedy", 0xbaf72a96ef71ac94},
    {"scale-s4-b7-het", "greedy-k0", 0xe5e6f99cb4ce1270},
    {"scale-s4-b7-het", "greedy-k1", 0x420777ea71d2ffc4},
    {"scale-s4-b7-het", "greedy-k2", 0xe89761140ff4d6bd},
    {"scale-s5-b16", "greedy", 0xe228eace7e3eb345},
    {"scale-s5-b16", "greedy-k0", 0x17ba852dbf7bff89},
    {"scale-s5-b16", "greedy-k1", 0xd1db0653a1bed98f},
    {"scale-s5-b16", "greedy-k2", 0x43ddb8c2b9874297},
    {"scale-s6-b16-het", "greedy", 0x80d3bc3721d067da},
    {"scale-s6-b16-het", "greedy-k0", 0x5ba1267209578b39},
    {"scale-s6-b16-het", "greedy-k1", 0x0d1dfbbbdc0438bb},
    {"scale-s6-b16-het", "greedy-k2", 0xc1b3898f41d3dfd6},
    {"tpcapp-table-b10", "greedy", 0x6fcaa1db2350ee2d},
    {"tpcapp-table-b10", "greedy-k0", 0x07b47d99a576144f},
    {"tpcapp-table-b10", "greedy-k1", 0xf0b493b9b8ce03a4},
    {"tpcapp-table-b10", "greedy-k2", 0xb5e73cfc6fd84b07},
    {"tpcapp-column-b7-het", "greedy", 0x2504ebea22c6397d},
    {"tpcapp-column-b7-het", "greedy-k0", 0x6515848105ad72a9},
    {"tpcapp-column-b7-het", "greedy-k1", 0x692ef96ab618a11b},
    {"tpcapp-column-b7-het", "greedy-k2", 0x2a1f6c5205d9962e},
    {"tpch-table-b5", "greedy", 0x94df8a9cd10b71a1},
    {"tpch-table-b5", "greedy-k0", 0x94df8a9cd10b71a1},
    {"tpch-table-b5", "greedy-k1", 0xa338f35ad3775eec},
    {"tpch-table-b5", "greedy-k2", 0x592d2ca6fb76604a},
    {"tpch-column-b16-het", "greedy", 0x38f355ede0ec1f8c},
    {"tpch-column-b16-het", "greedy-k0", 0x38f355ede0ec1f8c},
    {"tpch-column-b16-het", "greedy-k1", 0x6ec844b2d522dd6f},
    {"tpch-column-b16-het", "greedy-k2", 0x81b8a15ac97fd932},
};

TEST(GreedyGoldenTest, AllocationsMatchPinnedFingerprints) {
  size_t checked = 0;
  for (const Instance& inst : Instances()) {
    const Classification cls = inst.classification();
    std::vector<std::unique_ptr<Allocator>> allocators;
    allocators.push_back(std::make_unique<GreedyAllocator>());
    for (int k = 0; k <= 2; ++k) {
      if (static_cast<size_t>(k) + 1 > inst.backends.size()) break;
      allocators.push_back(
          std::make_unique<KSafeGreedyAllocator>(KSafetyOptions{k, 1e-12, 0}));
    }
    for (const auto& allocator : allocators) {
      auto a = allocator->Allocate(cls, inst.backends);
      ASSERT_TRUE(a.ok()) << inst.name << "/" << allocator->name() << ": "
                          << a.status().ToString();
      const uint64_t got = Fingerprint(a.value());
      const Golden* pinned = nullptr;
      for (const Golden& g : kGolden) {
        if (inst.name == g.instance && allocator->name() == g.allocator) {
          pinned = &g;
        }
      }
      char line[160];
      std::snprintf(line, sizeof(line), "{\"%s\", \"%s\", 0x%016" PRIx64 "},",
                    inst.name.c_str(), allocator->name().c_str(), got);
      if (pinned == nullptr) {
        ADD_FAILURE() << "no pinned value for " << line;
        continue;
      }
      EXPECT_EQ(got, pinned->fingerprint) << "now " << line;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

using alloc_internal::PendingClass;
using alloc_internal::PendingQueue;

TEST(PendingQueueTest, EqualKeysPopInPushOrder) {
  PendingQueue q;
  q.Push(PendingClass{0}, 1.0);
  q.Push(PendingClass{1}, 2.0);
  q.Push(PendingClass{2}, 1.0);
  q.Push(PendingClass{3}, 2.0);
  q.Push(PendingClass{4}, 1.0);
  std::vector<size_t> order;
  while (!q.empty()) order.push_back(q.Pop().index);
  EXPECT_EQ(order, (std::vector<size_t>{1, 3, 0, 2, 4}));
}

TEST(PendingQueueTest, RepushedEntryPopsAfterQueuedEqualKeys) {
  PendingQueue q;
  q.Push(PendingClass{0}, 3.0);
  q.Push(PendingClass{1}, 1.0);
  q.Push(PendingClass{2}, 1.0);
  // A split read class comes back with a smaller key equal to queued ones:
  // it goes behind them, as appending and stable re-sorting would put it.
  const PendingClass top = q.Pop();
  EXPECT_EQ(top.index, 0u);
  q.Push(top, 1.0);
  std::vector<size_t> order;
  while (!q.empty()) order.push_back(q.Pop().index);
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0}));
}

TEST(PendingQueueTest, MatchesEraseFrontAndStableResort) {
  // Reference model: the queue as a vector, front erased and the rest
  // stable-sorted by descending key after every step; popped entries are
  // re-appended with a smaller key about half the time. Keys come from a
  // small set so ties are the common case.
  Rng rng(7);
  struct Ref {
    size_t index;
    double key;
  };
  std::vector<Ref> ref;
  PendingQueue q;
  for (size_t i = 0; i < 400; ++i) {
    const double key = static_cast<double>(rng.NextBounded(12));
    ref.push_back(Ref{i, key});
    q.Push(PendingClass{i}, key);
  }
  auto by_key = [](const Ref& a, const Ref& b) { return a.key > b.key; };
  std::stable_sort(ref.begin(), ref.end(), by_key);
  size_t pops = 0;
  while (!ref.empty()) {
    ASSERT_FALSE(q.empty());
    Ref front = ref.front();
    ref.erase(ref.begin());
    ASSERT_EQ(q.Pop().index, front.index) << "pop " << pops;
    ++pops;
    if (front.key > 0.0 && rng.NextBounded(2) == 0) {
      front.key = static_cast<double>(rng.NextBounded(
          static_cast<uint64_t>(front.key)));
      ref.push_back(front);
      q.Push(PendingClass{front.index}, front.key);
    }
    std::stable_sort(ref.begin(), ref.end(), by_key);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(pops, 400u);
}

}  // namespace
}  // namespace qcap

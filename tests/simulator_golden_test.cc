// Golden fingerprints of the cluster simulator: the cost model's service
// matrix and the statistics of closed- and open-loop runs.
//
// The pinned values were recorded from the per-(class, backend) ScanScale /
// sorted-vector working-set service matrix and the subtractive linear class
// draw. Any set-up or draw that computes the same doubles in the same order
// must reproduce every value bit for bit, so a mismatch here means the
// simulation changed, not merely got faster. Do not regenerate these values
// to make a change pass.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "alloc/greedy.h"
#include "cluster/simulator.h"
#include "exec/cost_model.h"
#include "test_util.h"
#include "workload/classifier.h"
#include "workloads/synthetic_scale.h"
#include "workloads/tpcapp.h"
#include "workloads/tpch.h"

namespace qcap {
namespace {

/// FNV-1a accumulator over raw bytes.
class Fnv {
 public:
  void Mix(const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Mix(const std::vector<T>& v) {
    const uint64_t n = v.size();
    Mix(&n, sizeof(n));
    Mix(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void MixValue(T v) {
    Mix(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t Fingerprint(const SimStats& s) {
  Fnv h;
  h.MixValue(s.duration_seconds);
  h.MixValue(s.throughput);
  h.MixValue(s.avg_response_seconds);
  h.MixValue(s.max_response_seconds);
  h.MixValue(s.p50_response_seconds);
  h.MixValue(s.p95_response_seconds);
  h.MixValue(s.p99_response_seconds);
  h.MixValue(s.completed_reads);
  h.MixValue(s.completed_updates);
  h.MixValue(s.failed_requests);
  h.MixValue(s.rejected_requests);
  h.MixValue(s.retried_requests);
  h.Mix(s.backend_busy_seconds);
  h.Mix(s.class_completions);
  return h.value();
}

Classification Scale(uint64_t seed, size_t fragments, size_t reads,
                     size_t updates) {
  workloads::ScaleOptions o;
  o.num_fragments = fragments;
  o.num_read_classes = reads;
  o.num_update_classes = updates;
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
  return {
      {"figure2", testutil::Figure2Classification, HomogeneousBackends(4)},
      {"tpch-table-b3",
       [] {
         return Classify(workloads::TpchCatalog(1.0),
                         workloads::TpchJournal(10000), Granularity::kTable);
       },
       HomogeneousBackends(3)},
      {"tpch-column-b7-het",
       [] {
         return Classify(workloads::TpchCatalog(1.0),
                         workloads::TpchJournal(10000), Granularity::kColumn);
       },
       Hetero(h7)},
      {"tpcapp-table-b7-het",
       [] {
         return Classify(workloads::TpcAppCatalog(300.0),
                         workloads::TpcAppJournal(200000), Granularity::kTable);
       },
       Hetero(h7)},
      {"tpcapp-column-b3",
       [] {
         return Classify(workloads::TpcAppCatalog(300.0),
                         workloads::TpcAppJournal(200000),
                         Granularity::kColumn);
       },
       HomogeneousBackends(3)},
      {"scale-s1-b5", [] { return Scale(1, 200, 400, 20); },
       HomogeneousBackends(5)},
      {"scale-s2-b7-het", [] { return Scale(2, 300, 1200, 40); }, Hetero(h7)},
  };
}

/// One pinned value: instance, what was hashed, FNV-1a value.
struct Golden {
  const char* instance;
  const char* run;
  uint64_t fingerprint;
};

const Golden kGolden[] = {
    {"figure2", "matrix", 0xa771060369d29425},
    {"figure2", "matrix-mem1e8", 0xa771060369d29425},
    {"figure2", "closed-rowa", 0xfa6c87d81c36cb5a},
    {"figure2", "closed-rowa-mem1e8-fanout", 0xfa6c87d81c36cb5a},
    {"figure2", "closed-primary", 0xfa6c87d81c36cb5a},
    {"figure2", "open-lazy", 0x61e76dbaf658bc11},
    {"figure2", "open-rowa", 0x61e76dbaf658bc11},
    {"figure2", "closed-fault", 0x027f2d4a5566bfdd},
    {"tpch-table-b3", "matrix", 0x9d20e9a8e1cb768a},
    {"tpch-table-b3", "matrix-mem1e8", 0x6e21befc5d83204c},
    {"tpch-table-b3", "closed-rowa", 0xf03059510406a753},
    {"tpch-table-b3", "closed-rowa-mem1e8-fanout", 0xe70acd4987d82ce4},
    {"tpch-table-b3", "closed-primary", 0xe70acd4987d82ce4},
    {"tpch-table-b3", "open-lazy", 0x76a498cd4d7ff1ee},
    {"tpch-table-b3", "open-rowa", 0x76a498cd4d7ff1ee},
    {"tpch-table-b3", "closed-fault", 0x0b7cdc0cdce18e17},
    {"tpch-column-b7-het", "matrix", 0x86cdde789cf12717},
    {"tpch-column-b7-het", "matrix-mem1e8", 0xe3bc3f344ca6055b},
    {"tpch-column-b7-het", "closed-rowa", 0xde33a9533ff868bc},
    {"tpch-column-b7-het", "closed-rowa-mem1e8-fanout", 0x09f8c5180acc50dd},
    {"tpch-column-b7-het", "closed-primary", 0x09f8c5180acc50dd},
    {"tpch-column-b7-het", "open-lazy", 0xd0c2b316d851d042},
    {"tpch-column-b7-het", "open-rowa", 0xd0c2b316d851d042},
    {"tpch-column-b7-het", "closed-fault", 0xb73282e5f982eea1},
    {"tpcapp-table-b7-het", "matrix", 0x85a9ad6da92f6d3f},
    {"tpcapp-table-b7-het", "matrix-mem1e8", 0xf03221a50b0bd358},
    {"tpcapp-table-b7-het", "closed-rowa", 0xeb01038722305d22},
    {"tpcapp-table-b7-het", "closed-rowa-mem1e8-fanout", 0x2c253f743d4cfea1},
    {"tpcapp-table-b7-het", "closed-primary", 0x80a6d5860b05f7bc},
    {"tpcapp-table-b7-het", "open-lazy", 0x64c4fa7e260bad44},
    {"tpcapp-table-b7-het", "open-rowa", 0xae1c7982f3660d3f},
    {"tpcapp-table-b7-het", "closed-fault", 0x1f7c5439334f787f},
    {"tpcapp-column-b3", "matrix", 0x21cbac39d1c15522},
    {"tpcapp-column-b3", "matrix-mem1e8", 0xff9ad29ee7c186e0},
    {"tpcapp-column-b3", "closed-rowa", 0xe6a40142f16cc5f7},
    {"tpcapp-column-b3", "closed-rowa-mem1e8-fanout", 0xa73fb9c20192db64},
    {"tpcapp-column-b3", "closed-primary", 0x3317319f595f5834},
    {"tpcapp-column-b3", "open-lazy", 0x83d3c80f3f630526},
    {"tpcapp-column-b3", "open-rowa", 0x8bd97d8861001be0},
    {"tpcapp-column-b3", "closed-fault", 0xd3e823533e9e450f},
    {"scale-s1-b5", "matrix", 0x735dc6cd03f36664},
    {"scale-s1-b5", "matrix-mem1e8", 0x9e33a3fb27844f6c},
    {"scale-s1-b5", "closed-rowa", 0x95fd2fe842368fc4},
    {"scale-s1-b5", "closed-rowa-mem1e8-fanout", 0xd1a834078f4658c5},
    {"scale-s1-b5", "closed-primary", 0x2a40c05b1e535163},
    {"scale-s1-b5", "open-lazy", 0x7856a73ad9b12acf},
    {"scale-s1-b5", "open-rowa", 0xee17813d994e2fde},
    {"scale-s1-b5", "closed-fault", 0x3da8f8ca1cd83b75},
    {"scale-s2-b7-het", "matrix", 0xe0bfc217218c784a},
    {"scale-s2-b7-het", "matrix-mem1e8", 0x0b9d42cc7cbbeb17},
    {"scale-s2-b7-het", "closed-rowa", 0xee1032fe844f5813},
    {"scale-s2-b7-het", "closed-rowa-mem1e8-fanout", 0x6bf6224677225abc},
    {"scale-s2-b7-het", "closed-primary", 0x3c3e75ff5527b634},
    {"scale-s2-b7-het", "open-lazy", 0xe52dcb1ba033655b},
    {"scale-s2-b7-het", "open-rowa", 0x3b288ef559797ebc},
    {"scale-s2-b7-het", "closed-fault", 0xbd1dabbf9977e3ee},
};

/// The cost-model and run configurations every instance is pinned under.
struct RunSpec {
  std::string name;
  SimulationConfig config;
  bool open_loop = false;
  bool fault = false;
};

std::vector<RunSpec> Runs() {
  SimulationConfig base;
  base.seed = 3;
  base.track_class_mix = true;
  std::vector<RunSpec> runs;
  runs.push_back({"closed-rowa", base});
  SimulationConfig small_memory = base;
  small_memory.cost_params.memory_bytes = 1e8;
  small_memory.rowa_fanout_overhead = 0.1;
  runs.push_back({"closed-rowa-mem1e8-fanout", small_memory});
  SimulationConfig primary = small_memory;
  primary.propagation = UpdatePropagation::kPrimaryCopy;
  runs.push_back({"closed-primary", primary});
  SimulationConfig lazy = small_memory;
  lazy.propagation = UpdatePropagation::kLazy;
  runs.push_back({"open-lazy", lazy, true});
  runs.push_back({"open-rowa", small_memory, true});
  runs.push_back({"closed-fault", small_memory, false, true});
  return runs;
}

constexpr uint64_t kRequests = 6000;

TEST(SimulatorGoldenTest, RunsMatchPinnedFingerprints) {
  size_t checked = 0;
  auto check = [&checked](const std::string& instance, const std::string& run,
                          uint64_t got) {
    const Golden* pinned = nullptr;
    for (const Golden& g : kGolden) {
      if (instance == g.instance && run == g.run) pinned = &g;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "{\"%s\", \"%s\", 0x%016" PRIx64 "},",
                  instance.c_str(), run.c_str(), got);
    if (pinned == nullptr) {
      ADD_FAILURE() << "no pinned value for " << line;
      return;
    }
    EXPECT_EQ(got, pinned->fingerprint) << "now " << line;
    ++checked;
  };
  for (const Instance& inst : Instances()) {
    const Classification cls = inst.classification();
    const size_t n = inst.backends.size();
    auto alloc = GreedyAllocator().Allocate(cls, inst.backends);
    ASSERT_TRUE(alloc.ok()) << inst.name << ": " << alloc.status().ToString();

    for (double memory : {2.0 * 1024 * 1024 * 1024, 1e8}) {
      engine::CostModelParams params;
      params.memory_bytes = memory;
      const auto matrix = engine::CostModel(params).ServiceMatrix(
          cls, alloc.value(), inst.backends);
      Fnv h;
      h.Mix(matrix.data(), matrix.size() * sizeof(double));
      check(inst.name, memory == 1e8 ? "matrix-mem1e8" : "matrix", h.value());
    }

    double closed_duration = 0.0;
    double closed_throughput = 0.0;
    for (const RunSpec& run : Runs()) {
      SimulationConfig config = run.config;
      if (run.fault) {
        // Crash the last backend a third of the way into the fault-free
        // run's duration and bring it back two thirds in; slow backend 0.
        config.fault_plan.Crash(closed_duration / 3.0, n - 1)
            .Recover(2.0 * closed_duration / 3.0, n - 1)
            .Degrade(closed_duration / 2.0, 0, 2.0);
      }
      auto sim = ClusterSimulator::Create(cls, alloc.value(), inst.backends,
                                          config);
      ASSERT_TRUE(sim.ok()) << inst.name << "/" << run.name << ": "
                            << sim.status().ToString();
      Result<SimStats> stats =
          run.open_loop
              ? sim->RunOpen(static_cast<double>(kRequests) /
                                 (0.6 * closed_throughput),
                             0.6 * closed_throughput)
              : sim->RunClosed(kRequests, 4 * n);
      ASSERT_TRUE(stats.ok()) << inst.name << "/" << run.name << ": "
                              << stats.status().ToString();
      if (run.name == "closed-rowa-mem1e8-fanout") {
        closed_duration = stats->duration_seconds;
        closed_throughput = stats->throughput;
      }
      check(inst.name, run.name, Fingerprint(stats.value()));
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

}  // namespace
}  // namespace qcap

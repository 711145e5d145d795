#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace qcap {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, BoundedOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, DoubleRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble(-5.0, 3.0);
    EXPECT_GE(d, -5.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-1.0));
    EXPECT_TRUE(rng.NextBernoulli(2.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(31);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) counts[rng.NextDiscrete(weights)]++;
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, DiscreteZeroWeightNeverChosen) {
  Rng rng(37);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.NextDiscrete(weights), 1u);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled.begin(), shuffled.end());
  EXPECT_FALSE(std::equal(v.begin(), v.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(v, shuffled);
}

/// The subtractive scan of Rng::NextDiscrete for remainder \p x.
size_t ReferenceScan(const std::vector<double>& weights, double x) {
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

/// x = 0, the total, and every left-to-right prefix value with its two
/// floating-point neighbours and a few near offsets: the draws at which
/// rounded prefix sums and the rounded scan are most likely to disagree.
std::vector<double> BoundaryDraws(const std::vector<double>& weights) {
  std::vector<double> xs = {0.0};
  double prefix = 0.0;
  for (double w : weights) {
    prefix += w;
    xs.push_back(prefix);
    xs.push_back(std::nextafter(prefix, 0.0));
    xs.push_back(std::nextafter(prefix, 2.0 * prefix + 1.0));
    for (double rel : {1e-15, 1e-13, 1e-11}) {
      xs.push_back(prefix * (1.0 - rel));
      xs.push_back(prefix * (1.0 + rel));
    }
  }
  return xs;
}

void ExpectMatchesScan(const std::vector<double>& weights,
                       const std::vector<double>& xs) {
  const DiscreteTable table(weights);
  for (double x : xs) {
    ASSERT_EQ(table.Index(x), ReferenceScan(weights, x))
        << "x=" << x << " n=" << weights.size();
  }
}

TEST(DiscreteTableTest, TotalIsLeftToRightSum) {
  const std::vector<double> weights = {0.1, 0.2, 0.3, 1e-17, 7.0};
  double total = 0.0;
  for (double w : weights) total += w;
  EXPECT_EQ(DiscreteTable(weights).total(), total);
  EXPECT_EQ(DiscreteTable(weights).size(), weights.size());
}

TEST(DiscreteTableTest, SampleMatchesNextDiscrete) {
  Rng gen(3);
  std::vector<double> weights(500);
  for (double& w : weights) w = gen.NextDouble() < 0.1 ? 0.0 : gen.NextDouble();
  const DiscreteTable table(weights);
  Rng a(11), b(11);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(table.Sample(&a), b.NextDiscrete(weights)) << "draw " << i;
  }
}

TEST(DiscreteTableTest, EdgeCaseWeights) {
  const std::vector<std::vector<double>> cases = {
      {1.0},
      {0.0, 1.0},
      {1.0, 0.0},
      {0.0, 0.0, 3.0, 0.0, 0.0},
      {0.0, 0.0, 0.0},  // All zero: the scan's tail answer, the last index.
      {2.0, 2.0, 2.0, 2.0},
      {0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
      {1e-8, 1e8, 1e-8, 1e8, 1e-8},
      {1e8, 1e-8, 1e-8, 1e-8, 1e-8},
  };
  for (const auto& weights : cases) {
    std::vector<double> xs = BoundaryDraws(weights);
    Rng rng(5);
    double total = 0.0;
    for (double w : weights) total += w;
    for (int i = 0; i < 1000; ++i) xs.push_back(rng.NextDouble() * total);
    ExpectMatchesScan(weights, xs);
  }
}

TEST(DiscreteTableTest, AdversarialWeightVectorsMatchScan) {
  // Zeros, ties and 16 decades of range, at and next to every prefix value.
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.NextBounded(300);
    std::vector<double> weights(n);
    for (double& w : weights) {
      const uint64_t kind = rng.NextBounded(5);
      if (kind == 0) {
        w = 0.0;
      } else if (kind == 1) {
        w = 1.0;  // Ties.
      } else {
        w = std::pow(10.0, rng.NextDouble(-8.0, 8.0));
      }
    }
    std::vector<double> xs = BoundaryDraws(weights);
    const double total = DiscreteTable(weights).total();
    for (int i = 0; i < 500; ++i) xs.push_back(rng.NextDouble() * total);
    ExpectMatchesScan(weights, xs);
  }
}

TEST(DiscreteTableTest, FallbackRunsWhereThePrefixCandidateIsWrong) {
  // fl(1 + 1e-16) == 1, so the prefix sums are {1, 1, 1, 2} and the
  // upper_bound candidate for x = 1 is index 3; the scan instead reaches
  // remainder 0 after class 0 and goes negative on class 1. Only the
  // guarded fallback returns the scan's answer here.
  const std::vector<double> weights = {1.0, 1e-16, 1e-16, 1.0};
  const std::vector<double> prefix = {1.0, 1.0, 1.0, 2.0};
  double sum = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    sum += weights[i];
    ASSERT_EQ(sum, prefix[i]);
  }
  const size_t candidate = static_cast<size_t>(
      std::upper_bound(prefix.begin(), prefix.end(), 1.0) - prefix.begin());
  ASSERT_EQ(candidate, 3u);
  ASSERT_EQ(ReferenceScan(weights, 1.0), 1u);
  EXPECT_EQ(DiscreteTable(weights).Index(1.0), 1u);
}

TEST(DiscreteTableTest, RandomDrawsMatchScan) {
  Rng gen(23);
  std::vector<double> weights(5000);
  for (double& w : weights) w = gen.NextDouble() * gen.NextDouble();
  const DiscreteTable table(weights);
  Rng rng(29);
  for (int i = 0; i < 40000; ++i) {
    const double x = rng.NextDouble() * table.total();
    ASSERT_EQ(table.Index(x), ReferenceScan(weights, x)) << "x=" << x;
  }
}

class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, BoundedUniformityAcrossSeeds) {
  Rng rng(GetParam());
  std::vector<int> buckets(8, 0);
  const int n = 8000;
  for (int i = 0; i < n; ++i) buckets[rng.NextBounded(8)]++;
  for (int count : buckets) {
    EXPECT_NEAR(count, n / 8, n / 20);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace qcap

// Deterministic, seedable pseudo-random number generation.
//
// All randomized components of the library (random allocation, memetic
// mutation, simulated arrival processes) draw from an explicitly seeded
// Rng so that every experiment is reproducible bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qcap {

/// \brief xoshiro256** PRNG seeded via SplitMix64.
///
/// Fast, high-quality, and fully deterministic for a given seed. Not
/// cryptographically secure (not needed here).
class Rng {
 public:
  /// Constructs a generator from a 64-bit \p seed.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // qcap-lint: hot-path begin
  /// Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  // qcap-lint: hot-path end

  /// Uniform integer in [0, bound). \p bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Exponentially distributed value with the given \p mean.
  double NextExponential(double mean);

  /// Normally distributed value (Box-Muller).
  double NextGaussian(double mean, double stddev);

  /// True with probability \p p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Samples an index from a discrete distribution given by \p weights.
  /// Weights need not be normalized; all must be >= 0 and sum > 0.
  size_t NextDiscrete(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of [first, last) index permutation helper.
  template <typename It>
  void Shuffle(It first, It last) {
    auto n = last - first;
    for (decltype(n) i = n - 1; i > 0; --i) {
      auto j = static_cast<decltype(n)>(NextBounded(static_cast<uint64_t>(i) + 1));
      std::swap(first[i], first[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  bool have_gauss_ = false;
  double gauss_cache_ = 0.0;
};

/// \brief Repeated draws from one fixed discrete distribution in O(log n).
///
/// Returns exactly the index Rng::NextDiscrete's subtractive scan would
/// return for the same uniform draw: the weight total is summed left to
/// right, and Index(x) answers what `x -= w[i]; if (x < 0) return i;` over
/// all i (falling back to the last index) would. Prefix sums are built
/// once; a draw takes the upper_bound candidate and accepts it only when x
/// lies more than a rounding guard of 4 (n + 2) eps * total from both
/// neighbouring prefix values, outside which the rounded scan and the
/// rounded prefix sums cannot disagree. (The scan's remainder never grows
/// as non-negative weights are subtracted, so a candidate the scan has
/// passed with a non-negative remainder is the scan's answer.) Inside the
/// guard it runs the scan itself. Weights must be finite and >= 0.
class DiscreteTable {
 public:
  /// Builds the table over \p weights (non-empty, finite, >= 0).
  explicit DiscreteTable(std::vector<double> weights);

  size_t size() const { return weights_.size(); }
  /// Left-to-right sum of the weights (bit-identical to NextDiscrete's).
  double total() const { return prefix_.back(); }

  // qcap-lint: hot-path begin
  /// Samples an index: one NextDouble() scaled by total(), as NextDiscrete.
  size_t Sample(Rng* rng) const { return Index(rng->NextDouble() * total()); }
  /// The subtractive scan's index for remainder \p x (see class comment).
  size_t Index(double x) const;
  // qcap-lint: hot-path end

 private:
  /// The reference subtractive scan, O(n).
  size_t Scan(double x) const;

  std::vector<double> weights_;
  /// prefix_[i] = w[0] + ... + w[i], summed left to right.
  std::vector<double> prefix_;
  double guard_ = 0.0;
};

}  // namespace qcap

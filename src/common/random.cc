#include "common/random.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace qcap {

namespace {
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextExponential(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::NextGaussian(double mean, double stddev) {
  if (have_gauss_) {
    have_gauss_ = false;
    return mean + stddev * gauss_cache_;
  }
  double u1, u2;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  gauss_cache_ = r * std::sin(theta);
  have_gauss_ = true;
  return mean + stddev * r * std::cos(theta);
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

size_t Rng::NextDiscrete(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double x = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // Floating-point tail: return last index.
}

DiscreteTable::DiscreteTable(std::vector<double> weights)
    : weights_(std::move(weights)) {
  assert(!weights_.empty());
  prefix_.reserve(weights_.size());
  double total = 0.0;
  for (double w : weights_) {
    assert(w >= 0.0 && std::isfinite(w));
    total += w;
    prefix_.push_back(total);
  }
  // A scan remainder and a prefix sum each differ from their exact values by
  // at most n + 1 roundings of at most eps * total; the guard is twice the
  // two errors combined, so outside it both land on the same side of x.
  guard_ = 4.0 * static_cast<double>(weights_.size() + 2) *
           std::numeric_limits<double>::epsilon() * total;
}

// qcap-lint: hot-path begin
size_t DiscreteTable::Index(double x) const {
  const size_t k = static_cast<size_t>(
      std::upper_bound(prefix_.begin(), prefix_.end(), x) - prefix_.begin());
  if (k < prefix_.size() && prefix_[k] - x > guard_ &&
      (k == 0 || x - prefix_[k - 1] > guard_)) {
    return k;
  }
  return Scan(x);
}

size_t DiscreteTable::Scan(double x) const {
  const size_t n = weights_.size();
  for (size_t i = 0; i < n; ++i) {
    x -= weights_[i];
    if (x < 0.0) return i;
  }
  return n - 1;  // Floating-point tail: return last index.
}
// qcap-lint: hot-path end

}  // namespace qcap

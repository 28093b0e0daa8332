// zipf.hpp — zipfian key generator following the YCSB methodology the
// paper's §8 cites [15]: ranks drawn zipf(alpha) over [1, r], scrambled
// through a random permutation so "hot" keys are spread across the key
// space (as in YCSB's scrambled zipfian).
//
// Implementation: the classic Gray et al. bounded zipfian via the
// zeta-based inverse CDF approximation; alpha = 0 degenerates to uniform.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "ds/hash.hpp"

namespace flock_workload {

using flock_ds::splitmix64;

/// xorshift-based fast PRNG, one per thread.
class rng64 {
 public:
  explicit rng64(uint64_t seed) : s_(seed ? seed : 0x853c49e6748fea9bULL) {}
  uint64_t next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return s_;
  }
  /// Uniform in [0, n): Lemire's multiply-shift reduction. Modulo
  /// reduction biases low values for ranges that don't divide 2^64
  /// (noticeably so for the large non-power-of-two key ranges the
  /// uniform-alpha workloads draw from); the multiply-shift map spreads
  /// the bias evenly across the range instead (residual bias < n/2^64).
  uint64_t next(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double next_double() {  // [0,1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t s_;
};

/// Shared, immutable zipfian tables for a (range, alpha) pair; thread-safe
/// to sample from concurrently (sampling uses a caller-provided rng).
class zipf_distribution {
 public:
  zipf_distribution(uint64_t range, double alpha, uint64_t seed = 42)
      : n_(range), alpha_(alpha) {
    if (alpha_ > 0) {
      zetan_ = zeta(n_, alpha_);
      theta_ = alpha_;
      zeta2_ = zeta(2, theta_);
      eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
             (1.0 - zeta2_ / zetan_);
    }
    // Rank -> key permutation (YCSB-style scrambling).
    perm_.resize(n_);
    std::iota(perm_.begin(), perm_.end(), uint64_t{1});
    std::mt19937_64 g(seed);
    std::shuffle(perm_.begin(), perm_.end(), g);
  }

  uint64_t range() const { return n_; }
  double alpha() const { return alpha_; }

  /// Draw a key in [1, range].
  uint64_t sample(rng64& rng) const {
    if (alpha_ <= 0.0) return perm_[rng.next(n_)];
    double u = rng.next_double();
    double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 1;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 2;
    } else {
      rank = 1 + static_cast<uint64_t>(
                     static_cast<double>(n_) *
                     std::pow(eta_ * u - eta_ + 1.0, 1.0 / (1.0 - theta_)));
      if (rank > n_) rank = n_;
    }
    return perm_[rank - 1];
  }

 private:
  static double zeta(uint64_t n, double theta) {
    // Exact for small n; for large n use the standard YCSB approximation
    // by summing a prefix and integrating the tail.
    const uint64_t kExact = 1 << 20;
    double sum = 0;
    uint64_t m = n < kExact ? n : kExact;
    for (uint64_t i = 1; i <= m; i++)
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    if (n > m) {
      // integral_{m}^{n} x^-theta dx
      sum += (std::pow(static_cast<double>(n), 1.0 - theta) -
              std::pow(static_cast<double>(m), 1.0 - theta)) /
             (1.0 - theta);
    }
    return sum;
  }

  uint64_t n_;
  double alpha_;
  double zetan_ = 0, theta_ = 0, zeta2_ = 0, eta_ = 0;
  std::vector<uint64_t> perm_;
};

}  // namespace flock_workload

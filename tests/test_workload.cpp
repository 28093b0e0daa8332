// Workload substrate tests: zipfian distribution statistics, prefill
// determinism, driver bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "workload/driver.hpp"
#include "workload/set_adapter.hpp"
#include "workload/zipf.hpp"

namespace {

using flock_workload::rng64;
using flock_workload::zipf_distribution;

TEST(Zipf, UniformCoversRange) {
  zipf_distribution d(100, 0.0);
  rng64 rng(1);
  std::vector<int> hits(101, 0);
  for (int i = 0; i < 100000; i++) {
    uint64_t k = d.sample(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 100u);
    hits[k]++;
  }
  // Every key hit; roughly uniform (within 5x of each other).
  auto [mn, mx] = std::minmax_element(hits.begin() + 1, hits.end());
  EXPECT_GT(*mn, 0);
  EXPECT_LT(*mx, 5 * *mn);
}

TEST(Zipf, SkewConcentratesMass) {
  zipf_distribution d(10000, 0.99);
  rng64 rng(2);
  std::map<uint64_t, int> hits;
  const int kSamples = 200000;
  for (int i = 0; i < kSamples; i++) hits[d.sample(rng)]++;
  // Top-10 keys should hold a large fraction of the mass at alpha=0.99.
  std::vector<int> counts;
  counts.reserve(hits.size());
  for (auto& [k, c] : hits) counts.push_back(c);
  std::sort(counts.rbegin(), counts.rend());
  long long top10 = 0;
  for (int i = 0; i < 10 && i < static_cast<int>(counts.size()); i++)
    top10 += counts[i];
  EXPECT_GT(top10, kSamples / 5);  // >20% in top 10 of 10000 keys
  // And far more distinct keys than 10 were still touched.
  EXPECT_GT(hits.size(), 1000u);
}

TEST(Zipf, HigherAlphaMoreSkew) {
  rng64 rng(3);
  auto top1_fraction = [&](double alpha) {
    zipf_distribution d(1000, alpha);
    std::map<uint64_t, int> hits;
    for (int i = 0; i < 50000; i++) hits[d.sample(rng)]++;
    int mx = 0;
    for (auto& [k, c] : hits) mx = std::max(mx, c);
    return static_cast<double>(mx) / 50000.0;
  };
  double f75 = top1_fraction(0.75);
  double f99 = top1_fraction(0.99);
  EXPECT_GT(f99, f75);
}

TEST(Zipf, ScramblingSpreadsHotKeys) {
  // The hottest keys must not be the numerically smallest ones.
  zipf_distribution d(10000, 0.99);
  rng64 rng(4);
  std::map<uint64_t, int> hits;
  for (int i = 0; i < 100000; i++) hits[d.sample(rng)]++;
  uint64_t hottest = 0;
  int best = 0;
  for (auto& [k, c] : hits)
    if (c > best) {
      best = c;
      hottest = k;
    }
  // With a random permutation the hottest key is essentially uniform on
  // [1,10000]; the probability it lands in [1,10] is 0.1%.
  EXPECT_GT(hottest, 10u);
}

TEST(Prefill, DeterministicHalf) {
  flock_workload::hashtable_try s;
  flock_workload::prefill_half(s, 2000, 4);
  std::size_t expected = 0;
  for (uint64_t k = 1; k <= 2000; k++)
    if (flock_workload::prefill_selects(k)) expected++;
  EXPECT_EQ(s.size(), expected);
  // Roughly half.
  EXPECT_GT(expected, 800u);
  EXPECT_LT(expected, 1200u);
}

TEST(Prefill, BucketOccupancyNearUniform) {
  // Regression: prefill selection used to be `splitmix64(k) & 1` — the
  // same bit as bit 0 of the hashtable's bucket index — so every
  // prefilled key landed in an odd-indexed bucket, half the table stayed
  // empty, and measured chain lengths doubled. The selection hash is now
  // decorrelated; even- and odd-indexed buckets must fill evenly.
  const uint64_t range = 1 << 15;
  flock_workload::set_adapter<flock_ds::hashtable<uint64_t, uint64_t, false>>
      s(std::size_t{range});
  flock_workload::prefill_half(s, range, 4);
  auto occ = s.underlying().bucket_occupancy();
  ASSERT_GE(occ.size(), 2u);
  std::size_t even = 0, odd = 0, empty = 0;
  for (std::size_t i = 0; i < occ.size(); i++) {
    ((i & 1) ? odd : even) += occ[i];
    if (occ[i] == 0) empty++;
  }
  ASSERT_GT(even, 0u);
  ASSERT_GT(odd, 0u);
  double parity = static_cast<double>(even) / static_cast<double>(odd);
  EXPECT_GT(parity, 0.8) << "even buckets starved";
  EXPECT_LT(parity, 1.25) << "odd buckets starved";
  // With ~n/2 keys in n buckets the empty fraction should be near
  // e^-0.5 ~ 0.607; the parity bug put it at 1/2 + e^-1/2 ~ 0.684.
  double empty_frac =
      static_cast<double>(empty) / static_cast<double>(occ.size());
  EXPECT_LT(empty_frac, 0.65);
  flock::epoch_manager::instance().flush();
}

TEST(Prefill, LeaftreeStaysShallow) {
  // Each thread inserts its stripe in a shuffled order, so an unbalanced
  // tree grows like a random BST (expected height ~4.3 ln n) instead of
  // the chain that ascending stripes build.
  flock_workload::leaftree_try s;
  flock_workload::prefill_half(s, 40000, 4);
  const std::size_t n = s.size();
  ASSERT_GT(n, 19000u);
  EXPECT_LE(static_cast<double>(s.underlying().max_depth()),
            4 * std::log2(static_cast<double>(n)));
  EXPECT_TRUE(s.check_invariants());
  flock::epoch_manager::instance().flush();
}

TEST(Driver, CountsAndRates) {
  flock_workload::leaftree_try s;
  flock_workload::prefill_half(s, 1000, 4);
  flock_workload::zipf_distribution dist(1000, 0.75);
  flock_workload::run_config cfg;
  cfg.threads = 4;
  cfg.update_percent = 50;
  cfg.millis = 150;
  auto res = flock_workload::run_mixed(s, dist, cfg);
  EXPECT_GT(res.total_ops, 1000u);
  EXPECT_EQ(res.total_ops, res.finds + res.inserts + res.removes);
  EXPECT_GT(res.mops, 0.0);
  // Update fraction within a few points of 50%.
  double updates = static_cast<double>(res.inserts + res.removes);
  double frac = updates / static_cast<double>(res.total_ops);
  EXPECT_GT(frac, 0.42);
  EXPECT_LT(frac, 0.58);
  flock::epoch_manager::instance().flush();
}

TEST(Driver, ZeroUpdatesMeansReadOnly) {
  flock_workload::leaftree_try s;
  flock_workload::prefill_half(s, 100, 2);
  std::size_t before = s.size();
  flock_workload::zipf_distribution dist(100, 0.0);
  flock_workload::run_config cfg;
  cfg.threads = 4;
  cfg.update_percent = 0;
  cfg.millis = 80;
  auto res = flock_workload::run_mixed(s, dist, cfg);
  EXPECT_EQ(res.inserts + res.removes, 0u);
  EXPECT_EQ(s.size(), before);
}

}  // namespace

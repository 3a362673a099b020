// HdrHistogram contract tests: quantiles against a sorted-vector oracle,
// the documented precision guarantee, exact/associative/commutative
// merges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace clicsim {
namespace {

std::int64_t pow10_int(int d) {
  std::int64_t p = 1;
  for (int i = 0; i < d; ++i) p *= 10;
  return p;
}

// Exact-rank oracle: the ceil(q*n)-th smallest sample.
std::int64_t oracle_quantile(std::vector<std::int64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::uint64_t>(values.size());
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::max<std::uint64_t>(1, std::min(n, rank));
  return values[static_cast<std::size_t>(rank - 1)];
}

std::vector<std::int64_t> mixed_samples(std::uint64_t seed, int count) {
  sim::Rng rng(seed, "hdr-test");
  std::vector<std::int64_t> v;
  v.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    switch (i % 3) {
      case 0:  // small linear-range values
        v.push_back(rng.uniform_int(0, 2000));
        break;
      case 1:  // mid-range, log-spread
        v.push_back(static_cast<std::int64_t>(
            std::exp(rng.uniform() * 14.0)));  // up to ~1.2M
        break;
      default:  // heavy tail
        v.push_back(rng.uniform_int(1 << 20, 1 << 28));
        break;
    }
  }
  return v;
}

TEST(HdrHistogram, QuantileMatchesSortedOracleWithinPrecision) {
  for (const int digits : {1, 2, 3}) {
    const auto values = mixed_samples(7, 4001);
    sim::HdrHistogram h(digits);
    for (const auto v : values) h.add(v);
    ASSERT_EQ(h.count(), values.size());
    for (const double q : {0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const std::int64_t oracle = oracle_quantile(values, q);
      const std::int64_t got = h.quantile(q);
      // Exact-rank semantics: never below the true sample, and above it by
      // at most one bucket width (<= max(1, v / 10^digits)).
      EXPECT_GE(got, oracle) << "q=" << q << " digits=" << digits;
      EXPECT_LE(got, oracle + std::max<std::int64_t>(
                                  1, oracle / pow10_int(digits)))
          << "q=" << q << " digits=" << digits;
    }
    // q = 1 reports the recorded max exactly.
    EXPECT_EQ(h.quantile(1.0), *std::max_element(values.begin(), values.end()));
  }
}

TEST(HdrHistogram, PrecisionGuaranteeHolds) {
  for (const int digits : {1, 3, 5}) {
    sim::HdrHistogram h(digits);
    sim::Rng rng(11, "precision");
    std::vector<std::int64_t> probes;
    for (int p = 0; p < 40; ++p) {
      const std::int64_t two = std::int64_t{1} << p;
      probes.insert(probes.end(), {two - 1, two, two + 1});
    }
    for (int i = 0; i < 2000; ++i) {
      probes.push_back(rng.uniform_int(0, h.max_trackable()));
    }
    for (const auto v : probes) {
      const std::int64_t width =
          h.highest_equivalent(v) - h.lowest_equivalent(v) + 1;
      EXPECT_LE(width, std::max<std::int64_t>(1, v / pow10_int(digits)))
          << "v=" << v << " digits=" << digits;
      EXPECT_LE(h.lowest_equivalent(v), v);
      EXPECT_GE(h.highest_equivalent(v), v);
    }
  }
}

TEST(HdrHistogram, MergeIsExactAssociativeAndCommutative) {
  const auto a_vals = mixed_samples(1, 1500);
  const auto b_vals = mixed_samples(2, 900);
  const auto c_vals = mixed_samples(3, 300);
  sim::HdrHistogram a(3), b(3), c(3), all(3);
  for (const auto v : a_vals) a.add(v);
  for (const auto v : b_vals) b.add(v);
  for (const auto v : c_vals) c.add(v);
  for (const auto v : a_vals) all.add(v);
  for (const auto v : b_vals) all.add(v);
  for (const auto v : c_vals) all.add(v);

  // (a + b) + c
  sim::HdrHistogram left(3);
  left.merge(a);
  left.merge(b);
  left.merge(c);
  // a + (b + c)
  sim::HdrHistogram bc(3);
  bc.merge(b);
  bc.merge(c);
  sim::HdrHistogram right(3);
  right.merge(a);
  right.merge(bc);
  // c + b + a
  sim::HdrHistogram rev(3);
  rev.merge(c);
  rev.merge(b);
  rev.merge(a);

  // Merging is exact: any grouping/order equals recording every value
  // into one histogram, bucket for bucket.
  EXPECT_EQ(left, all);
  EXPECT_EQ(right, all);
  EXPECT_EQ(rev, all);
  EXPECT_EQ(left.count(), a_vals.size() + b_vals.size() + c_vals.size());
  EXPECT_EQ(left.quantile(0.99), all.quantile(0.99));
  EXPECT_DOUBLE_EQ(left.mean(), all.mean());
}

TEST(HdrHistogram, MergeRejectsConfigurationMismatch) {
  sim::HdrHistogram d2(2), d3(3);
  EXPECT_THROW(d2.merge(d3), std::invalid_argument);
  sim::HdrHistogram small(3, 1 << 20), big(3, 1 << 30);
  EXPECT_THROW(small.merge(big), std::invalid_argument);
}

TEST(HdrHistogram, EdgeCases) {
  sim::HdrHistogram h(3);
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);

  h.add(-5);  // clamps to zero
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.quantile(1.0), 0);

  h.add(7, 10);  // weighted add
  EXPECT_EQ(h.count(), 11u);
  EXPECT_EQ(h.quantile(0.5), 7);

  EXPECT_THROW(sim::HdrHistogram(0), std::invalid_argument);
  EXPECT_THROW(sim::HdrHistogram(6), std::invalid_argument);
  EXPECT_THROW(sim::HdrHistogram(3, 1), std::invalid_argument);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0);
}

TEST(HdrHistogram, SaturatesAboveMaxTrackable) {
  sim::HdrHistogram h(3, 1 << 16);
  h.add(1000);
  h.add((1 << 16) + 5000);
  h.add(std::int64_t{1} << 40);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.saturated(), 2u);
  EXPECT_EQ(h.max(), 1 << 16);
  EXPECT_LE(h.quantile(1.0), 1 << 16);
}

TEST(HdrHistogram, ExactMeanOfClampedValues) {
  sim::HdrHistogram h(3);
  std::int64_t sum = 0;
  const auto values = mixed_samples(5, 777);
  for (const auto v : values) {
    h.add(v);
    sum += v;
  }
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(sum) /
                                 static_cast<double>(values.size()));
}

}  // namespace
}  // namespace clicsim

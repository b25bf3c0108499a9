// Pins the nearest-rank percentile semantics shared by tools/report and the
// serving tier (util/percentile.hpp): rank = ceil(q*n) clamped to [1, n],
// value = sorted[rank-1]. Distinct from util/stats.hpp's interpolated
// percentile_sorted — nearest-rank always returns an observed sample.
#include "util/percentile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace stellaris {
namespace {

TEST(NearestRank, EmptySampleIsZero) {
  EXPECT_EQ(nearest_rank_sorted({}, 0.50), 0.0);
  EXPECT_EQ(nearest_rank_sorted({}, 0.99), 0.0);
}

TEST(NearestRank, SingleElementIsThatElement) {
  const std::vector<double> one = {7.5};
  EXPECT_EQ(nearest_rank_sorted(one, 0.0), 7.5);
  EXPECT_EQ(nearest_rank_sorted(one, 0.50), 7.5);
  EXPECT_EQ(nearest_rank_sorted(one, 1.0), 7.5);
}

TEST(NearestRank, QuantileZeroClampsToMin) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  // ceil(0*4) = 0 clamps to rank 1: the minimum, never an out-of-range read.
  EXPECT_EQ(nearest_rank_sorted(xs, 0.0), 1.0);
  EXPECT_EQ(nearest_rank_sorted(xs, -0.5), 1.0);
}

TEST(NearestRank, QuantileOneIsMax) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(nearest_rank_sorted(xs, 1.0), 4.0);
}

TEST(NearestRank, MedianOfEvenCountIsLowerMiddle) {
  // Nearest-rank does NOT average: ceil(0.5*4) = 2 -> second element.
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(nearest_rank_sorted(xs, 0.50), 2.0);
}

TEST(NearestRank, MedianOfOddCountIsMiddle) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_EQ(nearest_rank_sorted(xs, 0.50), 2.0);
}

TEST(NearestRank, P99OfHundredIsRank99) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  // ceil(0.99*100) = 99 -> the 99th smallest, not the max.
  EXPECT_EQ(nearest_rank_sorted(xs, 0.99), 99.0);
  EXPECT_EQ(nearest_rank_sorted(xs, 0.999), 100.0);
  EXPECT_EQ(nearest_rank_sorted(xs, 0.50), 50.0);
}

TEST(NearestRank, SmallSampleP99IsMax) {
  // With n < 100, p99 rank ceil(0.99*n) = n: the maximum.
  const std::vector<double> xs = {1.0, 5.0, 9.0};
  EXPECT_EQ(nearest_rank_sorted(xs, 0.99), 9.0);
}

TEST(NearestRank, UnsortedConvenienceOverloadSorts) {
  EXPECT_EQ(nearest_rank({3.0, 1.0, 2.0}, 0.50), 2.0);
  EXPECT_EQ(nearest_rank({3.0, 1.0, 2.0}, 1.0), 3.0);
}

TEST(NearestRank, SelectionEqualsSortedForEverySizeAndQuantile) {
  Rng rng(23);
  for (const std::size_t n : {1u, 2u, 3u, 1000u}) {
    std::vector<double> xs;
    // Draws from 50 values, so the larger samples hold many duplicates.
    for (std::size_t i = 0; i < n; ++i)
      xs.push_back(static_cast<double>(rng.uniform_int(50)) * 0.25);
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 1e-9, 0.5, 0.99, 0.999, 1.0}) {
      std::vector<double> scratch = xs;
      EXPECT_EQ(nearest_rank_select(scratch, q), nearest_rank_sorted(sorted, q))
          << "n=" << n << " q=" << q;
    }
    // Successive selections on one reordered vector, as ServeEngine::run
    // takes p50, p99 and p999.
    for (const double q : {0.5, 0.99, 0.999})
      EXPECT_EQ(nearest_rank_select(xs, q), nearest_rank_sorted(sorted, q));
  }
  std::vector<double> empty;
  EXPECT_EQ(nearest_rank_select(empty, 0.5), 0.0);
}

}  // namespace
}  // namespace stellaris

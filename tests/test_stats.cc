/**
 * @file
 * Tests for the statistics helpers: exact nearest-rank quantiles and the
 * Pearson helper used by the performance-estimator validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "common/stats.h"

namespace hilos {
namespace {

/** Nearest-rank quantile by the definition: sort, take rank ceil(q n). */
double
sortedNearestRank(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    const auto n = static_cast<double>(xs.size());
    const auto rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(q * n)), 1, xs.size());
    return xs[rank - 1];
}

/** One quantile, selected by exactQuantiles on a copy of `xs`. */
double
exactQuantile(std::vector<double> xs, double q)
{
    const double qs[] = {q};
    double out[1];
    exactQuantiles(xs, qs, out);
    return out[0];
}

TEST(ExactQuantile, NearestRankOnKnownSamples)
{
    const std::vector<double> xs = {9.0, 1.0, 5.0, 3.0, 7.0};
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.2), 1.0);   // rank ceil(1)=1
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.5), 5.0);   // rank ceil(2.5)=3
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.99), 9.0);  // rank ceil(4.95)=5
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 1.0), 9.0);
}

TEST(ExactQuantile, SingleSampleIsEveryQuantile)
{
    const std::vector<double> xs = {4.2};
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.0), 4.2);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.5), 4.2);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 1.0), 4.2);
}

TEST(ExactQuantile, MonotoneAndAlwaysAnObservedSample)
{
    Rng rng(23);
    std::vector<double> xs;
    for (int i = 0; i < 333; i++)
        xs.push_back(rng.uniform(-10.0, 10.0));
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    double prev = exactQuantile(xs, 0.0);
    for (double q = 0.0; q <= 1.0; q += 0.01) {
        const double v = exactQuantile(xs, q);
        EXPECT_GE(v, prev);
        EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), v));
        EXPECT_EQ(v, sortedNearestRank(xs, q));
        prev = v;
    }
}

TEST(ExactQuantile, SelectionEqualsTheSortedRankWithDuplicates)
{
    // exactQuantile selects the rank in place (nth_element); it must
    // return the very value a full sort puts at that rank, on sets
    // with many ties and at sizes from 1 to 260.
    Rng rng(5);
    for (std::size_t n = 1; n <= 260; n += 7) {
        std::vector<double> xs;
        for (std::size_t i = 0; i < n; i++)
            xs.push_back(static_cast<double>(rng.uniformInt(0, 9)) * 0.5);
        for (const double q : {0.0, 1e-9, 0.5, 0.99, 0.999, 1.0})
            EXPECT_EQ(exactQuantile(xs, q), sortedNearestRank(xs, q))
                << "n " << n << " q " << q;
    }
}

TEST(ExactQuantile, EmptySampleSetDies)
{
    EXPECT_DEATH(exactQuantile({}, 0.5), "empty");
}

TEST(ExactQuantiles, MatchEachSingleQuantileWithTies)
{
    // The nested selections over one buffer must return, for every q,
    // the value a one-quantile selection returns, on tied random
    // samples around the p999 rank boundaries (n = 999, 1000, 1001).
    Rng rng(11);
    const std::vector<double> qs = {0.0, 0.5, 0.5, 0.99, 0.999, 1.0};
    for (const std::size_t n : {1, 2, 999, 1000, 1001}) {
        std::vector<double> xs;
        for (std::size_t i = 0; i < n; i++)
            xs.push_back(static_cast<double>(rng.uniformInt(0, 40)) * 0.25);
        std::vector<double> buffer = xs;
        std::vector<double> out(qs.size());
        exactQuantiles(buffer, qs, out);
        for (std::size_t i = 0; i < qs.size(); i++)
            EXPECT_EQ(out[i], exactQuantile(xs, qs[i]))
                << "n " << n << " q " << qs[i];
    }
}

TEST(ExactQuantiles, DecreasingQuantilesDie)
{
    std::vector<double> xs = {1.0, 2.0};
    const double down[] = {0.9, 0.1};
    double out[2];
    EXPECT_DEATH(exactQuantiles(xs, down, out), "must not decrease");
}

TEST(Pearson, PerfectPositiveCorrelation)
{
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegativeCorrelation)
{
    const std::vector<double> x = {1, 2, 3, 4};
    const std::vector<double> y = {8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, NoVarianceYieldsZero)
{
    const std::vector<double> x = {1, 1, 1};
    const std::vector<double> y = {1, 2, 3};
    EXPECT_EQ(pearson(x, y), 0.0);
}

TEST(Pearson, NoisyLinearSeriesNearOne)
{
    Rng rng(3);
    std::vector<double> x, y;
    for (int i = 0; i < 200; i++) {
        x.push_back(i);
        y.push_back(3.0 * i + rng.normal(0.0, 5.0));
    }
    EXPECT_GT(pearson(x, y), 0.98);
}

}  // namespace
}  // namespace hilos

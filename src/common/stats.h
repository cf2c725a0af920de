/**
 * @file
 * Sample statistics over whole result series: exact nearest-rank
 * quantiles (serving TTFT/latency percentiles) and Pearson correlation
 * (cross-validation benches).
 */

#ifndef HILOS_COMMON_STATS_H_
#define HILOS_COMMON_STATS_H_

#include <span>
#include <vector>

namespace hilos {

/** Pearson correlation coefficient of two equal-length series. */
double pearson(const std::vector<double> &x, const std::vector<double> &y);

/**
 * Exact nearest-rank quantiles of a sample set: for each q of `qs`
 * (non-decreasing), the smallest value v such that at least
 * ceil(q * n) samples are <= v, written to `out` (as long as `qs`).
 * They never interpolate, so tail percentiles (p99/p999) are actual
 * observed samples. Each rank is selected with std::nth_element on the
 * tail the previous selection left above its rank, so the whole set
 * costs about one O(n) selection and no copy. Reorders `samples`;
 * asserts on an empty set.
 */
void exactQuantiles(std::span<double> samples, std::span<const double> qs,
                    std::span<double> out);

}  // namespace hilos

#endif  // HILOS_COMMON_STATS_H_

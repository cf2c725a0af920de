/**
 * @file
 * Sample statistics over whole result series: exact nearest-rank
 * quantiles (serving TTFT/latency percentiles) and Pearson correlation
 * (cross-validation benches).
 */

#ifndef HILOS_COMMON_STATS_H_
#define HILOS_COMMON_STATS_H_

#include <vector>

namespace hilos {

/** Pearson correlation coefficient of two equal-length series. */
double pearson(const std::vector<double> &x, const std::vector<double> &y);

/**
 * Exact nearest-rank quantile of a sample set: the smallest value v such
 * that at least ceil(q * n) samples are <= v. It never interpolates,
 * so tail percentiles (p99/p999) are actual observed samples. Selects
 * the rank with std::nth_element on the copy it takes, so a call is
 * O(n) on average; pass an rvalue to skip the copy. Asserts on an
 * empty set.
 */
double exactQuantile(std::vector<double> samples, double q);

}  // namespace hilos

#endif  // HILOS_COMMON_STATS_H_

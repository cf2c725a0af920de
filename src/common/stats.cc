#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace hilos {

void
exactQuantiles(std::span<double> samples, std::span<const double> qs,
               std::span<double> out)
{
    HILOS_ASSERT(!samples.empty(), "exact quantiles of an empty sample set");
    HILOS_ASSERT(qs.size() == out.size(), "quantile count ", qs.size(),
                 " != output count ", out.size());
    const std::size_t n = samples.size();
    // Everything from a selected rank up is >= its value, so the next
    // (higher) rank is the same order statistic of that tail.
    auto from = samples.begin();
    for (std::size_t i = 0; i < qs.size(); i++) {
        const double q = qs[i];
        HILOS_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range: ", q);
        HILOS_ASSERT(i == 0 || qs[i - 1] <= q,
                     "quantiles must not decrease: ", q);
        // Nearest-rank: rank = ceil(q * n), clamped to [1, n].
        auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(n)));
        rank = std::min(std::max<std::size_t>(rank, 1), n);
        const auto nth =
            samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
        std::nth_element(from, nth, samples.end());
        out[i] = *nth;
        from = nth;
    }
}

double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    HILOS_ASSERT(x.size() == y.size() && x.size() >= 2,
                 "pearson needs two equal-length series, got ", x.size(),
                 " and ", y.size());
    const auto n = static_cast<double>(x.size());
    double sx = 0, sy = 0;
    for (std::size_t i = 0; i < x.size(); i++) {
        sx += x[i];
        sy += y[i];
    }
    const double mx = sx / n, my = sy / n;
    double sxy = 0, sxx = 0, syy = 0;
    for (std::size_t i = 0; i < x.size(); i++) {
        const double dx = x[i] - mx, dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

}  // namespace hilos

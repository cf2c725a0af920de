#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace hilos {

double
exactQuantile(std::vector<double> samples, double q)
{
    HILOS_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range: ", q);
    HILOS_ASSERT(!samples.empty(), "exact quantile of an empty sample set");
    const auto n = samples.size();
    // Nearest-rank: rank = ceil(q * n), clamped to [1, n].
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::max<std::size_t>(rank, 1);
    rank = std::min(rank, n);
    const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
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

#include "runtime/xcache.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace hilos {

Seconds
XCacheTimes::effective() const
{
    return std::max({t_pci, t_gpu, t_ssd});
}

XCacheScheduler::XCacheScheduler(Bandwidth ssd_bw, Bandwidth pci_bw,
                                 FlopRate gpu_flops)
    : ssd_bw_(ssd_bw), pci_bw_(pci_bw), gpu_flops_(gpu_flops)
{
    HILOS_ASSERT(ssd_bw_ > 0.0 && pci_bw_ > 0.0 && gpu_flops_ > 0.0,
                 "invalid X-cache scheduler bandwidths");
}

double
XCacheScheduler::analyticAlpha() const
{
    return 2.0 * pci_bw_ / (ssd_bw_ + pci_bw_);
}

const std::vector<double> &
XCacheScheduler::candidateAlphas()
{
    // Power-of-two fractions (plus their complements) keep the
    // batch/head partition even across devices.
    static const std::vector<double> kCandidates = {0.0,  0.125, 0.25,
                                                    0.5,  0.75,  1.0};
    return kCandidates;
}

double
XCacheScheduler::selectAlpha() const
{
    const double target = std::min(1.0, analyticAlpha());
    double best = 0.0;
    double best_dist = 2.0;
    for (double c : candidateAlphas()) {
        const double dist = std::fabs(c - target);
        if (dist < best_dist || (dist == best_dist && c > best)) {
            best_dist = dist;
            best = c;
        }
    }
    return best;
}

double
XCacheScheduler::bestAlpha(std::uint64_t batch, std::uint64_t s,
                           std::uint64_t h, std::uint64_t kv) const
{
    double best = 0.0;
    Seconds best_time = times(0.0, batch, s, h, kv).effective();
    for (double c : candidateAlphas()) {
        const Seconds t = times(c, batch, s, h, kv).effective();
        if (t < best_time) {
            best_time = t;
            best = c;
        }
    }
    return best;
}

XCacheTimes
XCacheScheduler::times(double alpha, std::uint64_t batch, std::uint64_t s,
                       std::uint64_t h, std::uint64_t kv) const
{
    HILOS_ASSERT(alpha >= 0.0 && alpha <= 1.0, "alpha out of range: ",
                 alpha);
    const double b = static_cast<double>(batch);
    const double ss = static_cast<double>(s);
    const double hh = static_cast<double>(h);
    const double kvw = static_cast<double>(kv);

    XCacheTimes t;
    // X transfer: alpha portion of the batch, s x h halves each.
    t.t_pci = Bytes(alpha * b * ss * hh * 2.0) / pci_bw_;
    // K and V regeneration: X (s x h) times W_K and W_V (h x kv). The
    // paper's first-order model (§4.2) counts 2 s h^2 operations per
    // block; tensor cores retire the MACs at near-peak rate.
    t.t_gpu = Flops(alpha * b * 2.0 * ss * hh * kvw) / gpu_flops_;
    // Internal storage reads: X for the alpha portion (s x h halves),
    // K+V for the rest (2 x s x kv halves). With MHA (kv == h) this is
    // exactly the paper's alpha*S_X + (1-alpha)*2*S_X expression.
    t.t_ssd = Bytes(b *
                    (alpha * ss * hh * 2.0 +
                     (1.0 - alpha) * 2.0 * ss * kvw * 2.0)) /
              ssd_bw_;
    return t;
}

}  // namespace hilos

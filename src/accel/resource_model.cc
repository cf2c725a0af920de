#include "accel/resource_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace hilos {

namespace {

// Calibration anchors from Table 3 (d_group = 1, 4, 5):
// {LUT%, FF%, BRAM%, URAM%, DSP%, power W}.
struct Anchor {
    double lut, ff, bram, uram, dsp, power;
};
constexpr Anchor kAnchor1{38.76, 28.57, 51.02, 9.38, 10.06, 11.25};
constexpr Anchor kAnchor4{56.60, 39.70, 59.30, 9.38, 20.27, 15.39};
constexpr Anchor kAnchor5{67.40, 46.15, 58.49, 9.38, 27.79, 16.08};

}  // namespace

bool
ResourceUtilization::fits() const
{
    return lut_pct < 100.0 && ff_pct < 100.0 && bram_pct < 100.0 &&
           uram_pct < 100.0 && dsp_pct < 100.0;
}

ResourceModel::ResourceModel(const FpgaBudget &budget) : budget_(budget) {}

double
ResourceModel::interpolate(std::size_t d_group, double v1, double v4,
                           double v5) const
{
    HILOS_ASSERT(d_group >= 1, "d_group must be >= 1");
    const double d = static_cast<double>(d_group);
    if (d_group <= 4) {
        // Between the d=1 and d=4 anchors (exact at both).
        return v1 + (v4 - v1) * (d - 1.0) / 3.0;
    }
    // At or beyond d=4: extend along the d=4 -> d=5 slope.
    return v4 + (v5 - v4) * (d - 4.0);
}

ResourceUtilization
ResourceModel::utilization(std::size_t d_group) const
{
    ResourceUtilization u;
    u.lut_pct = interpolate(d_group, kAnchor1.lut, kAnchor4.lut,
                            kAnchor5.lut);
    u.ff_pct = interpolate(d_group, kAnchor1.ff, kAnchor4.ff, kAnchor5.ff);
    u.bram_pct = interpolate(d_group, kAnchor1.bram, kAnchor4.bram,
                             kAnchor5.bram);
    u.uram_pct = kAnchor1.uram;  // URAM partitioning is d_group-invariant
    u.dsp_pct = interpolate(d_group, kAnchor1.dsp, kAnchor4.dsp,
                            kAnchor5.dsp);
    return u;
}

Watts
ResourceModel::powerWatts(std::size_t d_group) const
{
    return interpolate(d_group, kAnchor1.power, kAnchor4.power,
                       kAnchor5.power);
}

std::uint64_t
ResourceModel::dspCount(std::size_t d_group) const
{
    return static_cast<std::uint64_t>(
        std::llround(utilization(d_group).dsp_pct / 100.0 *
                     static_cast<double>(budget_.dsps)));
}

double
ResourceModel::softmaxDspShare(std::size_t d_group) const
{
    // The GEMV MAC datapath is DSP-light (LUT-based control dominates;
    // §6.2); the exponential pipelines account for the growth in DSPs
    // with d_group. Base design: ~55% of DSPs in softmax at d_group=1,
    // rising as exp lanes multiply.
    const double base = 0.55;
    const double grown =
        base + 0.06 * static_cast<double>(std::min<std::size_t>(d_group, 8) -
                                          1);
    return std::min(0.9, grown);
}

std::uint64_t
ResourceModel::dspsForThroughputScale(std::size_t d_group,
                                      double factor) const
{
    HILOS_ASSERT(factor >= 1.0, "scale factor must be >= 1");
    // Throughput scaling by parallelisation replicates the DSP-bound
    // datapaths `factor` times.
    return static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(dspCount(d_group)) * factor));
}

}  // namespace hilos

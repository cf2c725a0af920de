/**
 * @file
 * FPGA resource and power model for the attention accelerator on the
 * Kintex UltraScale+ KU15P inside a SmartSSD (Table 3, §5.4, §7.2).
 *
 * The model decomposes the design into the shell/infrastructure, the
 * softmax units (DSP-heavy exponentials), and the GEMV units (LUT-heavy
 * transposition and MAC control), calibrated against the three published
 * utilisation rows (d_group = 1, 4, 5). Utilisation for other group
 * sizes interpolates between the calibration anchors; the model also
 * answers the §7.2 scaling question (DSPs needed for a 4x-throughput
 * PCIe 5.0 design exceed the chip's capacity).
 */

#ifndef HILOS_ACCEL_RESOURCE_MODEL_H_
#define HILOS_ACCEL_RESOURCE_MODEL_H_

#include <cstdint>
#include <string>

#include "common/units.h"

namespace hilos {

/** Resource capacity of the KU15P FPGA. */
struct FpgaBudget {
    std::uint64_t luts = 522720;
    std::uint64_t ffs = 1045440;
    std::uint64_t bram36 = 984;
    std::uint64_t uram = 128;
    std::uint64_t dsps = 1968;
};

/** Utilisation of one configuration, in percent of each budget. */
struct ResourceUtilization {
    double lut_pct = 0;
    double ff_pct = 0;
    double bram_pct = 0;
    double uram_pct = 0;
    double dsp_pct = 0;

    /** True if everything fits (all < 100%). */
    bool fits() const;
};

/**
 * Resource/power/performance accounting for one kernel configuration.
 */
class ResourceModel
{
  public:
    explicit ResourceModel(const FpgaBudget &budget = FpgaBudget{});

    /**
     * Utilisation for a given GQA group size. Exact at the calibration
     * anchors d_group = 1, 4, 5; linear interpolation/extrapolation
     * elsewhere (d_group >= 1).
     */
    ResourceUtilization utilization(std::size_t d_group) const;

    /** Total on-chip power (static + dynamic + transceivers), watts. */
    Watts powerWatts(std::size_t d_group) const;

    /** Achieved clock frequency, Hz. */
    Hertz clockHz() const { return 296.05e6; }

    /** Absolute DSP count used. */
    std::uint64_t dspCount(std::size_t d_group) const;

    /**
     * Fraction of the design's DSPs consumed by the softmax exponential
     * pipelines; grows with d_group (§7.2: softmax dominates DSPs).
     */
    double softmaxDspShare(std::size_t d_group) const;

    /**
     * DSPs required to scale kernel throughput by `factor` via DSP
     * parallelisation (the §7.2 PCIe 5.0 thought experiment). A result
     * above the budget means the chip cannot host the design.
     */
    std::uint64_t dspsForThroughputScale(std::size_t d_group,
                                         double factor) const;

    const FpgaBudget &budget() const { return budget_; }

  private:
    double interpolate(std::size_t d_group, double v1, double v4,
                       double v5) const;

    FpgaBudget budget_;
};

}  // namespace hilos

#endif  // HILOS_ACCEL_RESOURCE_MODEL_H_

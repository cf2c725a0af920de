/**
 * @file
 * Table 3 + §5.1: accelerator resource utilisation, peak performance
 * and power per d_group configuration; performance-estimator validation
 * (Pearson correlation vs a detailed block-level event simulation over
 * 4K-32K sequence lengths); and the two-pass vs three-pass softmax
 * off-chip traffic comparison plus the §7.2 PCIe 5.0 DSP-scaling
 * analysis.
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "accel/cycle_model.h"
#include "accel/kernel_sim.h"
#include "accel/resource_model.h"
#include "accel/softmax.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/table.h"
#include "sim/bandwidth.h"

using namespace hilos;

namespace {

/**
 * "Measured" kernel time: the library's block-level simulator with the
 * deterministic 10% measurement-noise model enabled.
 */
Seconds
simulateKernel(std::size_t s, std::size_t d, std::size_t d_group)
{
    KernelSimConfig cfg;
    cfg.measurement_noise = 0.10;
    return KernelSimulator(cfg).simulate(s, d, d_group);
}

}  // namespace

int
main()
{
    const ResourceModel rm;
    const CycleModel cm{CycleModelConfig{}};

    printBanner(std::cout,
                "Table 3: resource utilisation and achieved performance "
                "(KU15P, 296.05 MHz)");
    TextTable rt({"config", "LUT %", "FF %", "BRAM %", "URAM %", "DSP %",
                  "peak perf", "power W", "fits?"});
    for (std::size_t dg : {1ul, 4ul, 5ul}) {
        const ResourceUtilization u = rm.utilization(dg);
        char perf[32];
        std::snprintf(perf, sizeof(perf), "%.1f GFLOPS",
                      cm.gflops(1u << 20, 128, dg));
        rt.row()
            .cell("d_group=" + std::to_string(dg))
            .num(u.lut_pct, 2)
            .num(u.ff_pct, 2)
            .num(u.bram_pct, 2)
            .num(u.uram_pct, 2)
            .num(u.dsp_pct, 2)
            .cell(perf)
            .num(rm.powerWatts(dg), 2)
            .cell(u.fits() ? "yes" : "NO");
    }
    rt.print(std::cout);

    printBanner(std::cout,
                "Performance estimator validation (Pearson r vs "
                "block-level simulation, s = 4K..32K)");
    TextTable pt({"kernel", "pearson r", ">= 0.9?"});
    for (std::size_t dg : {1ul, 4ul, 5ul}) {
        std::vector<double> est, meas;
        for (std::size_t s = 4096; s <= 32768; s += 2048) {
            est.push_back(cm.kernelTime(s, 128, dg));
            meas.push_back(simulateKernel(s, 128, dg));
        }
        const double r = pearson(est, meas);
        pt.row()
            .cell("d_group=" + std::to_string(dg))
            .num(r, 4)
            .cell(r >= 0.9 ? "yes" : "NO");
    }
    pt.print(std::cout);

    printBanner(std::cout,
                "Two-pass vs three-pass softmax off-chip traffic");
    TextTable st({"sequence", "3-pass elems", "2-pass elems", "saving"});
    for (std::uint64_t s : {4096ull, 32768ull, 131072ull}) {
        st.row()
            .cell(std::to_string(s / 1024) + "K")
            .cell(std::to_string(TwoPassSoftmax::threePassTrafficElements(s)))
            .cell(std::to_string(TwoPassSoftmax::trafficElements(s)))
            .ratio(static_cast<double>(
                       TwoPassSoftmax::threePassTrafficElements(s)) /
                   static_cast<double>(TwoPassSoftmax::trafficElements(s)));
    }
    st.print(std::cout);

    printBanner(std::cout,
                "Section 7.2: DSPs needed for a 4x (PCIe 5.0) "
                "throughput scale-up");
    TextTable dt({"config", "DSPs now", "DSPs at 4x", "budget",
                  "feasible?"});
    for (std::size_t dg : {1ul, 4ul, 5ul}) {
        const std::uint64_t now = rm.dspCount(dg);
        const std::uint64_t scaled = rm.dspsForThroughputScale(dg, 4.0);
        dt.row()
            .cell("d_group=" + std::to_string(dg))
            .cell(std::to_string(now))
            .cell(std::to_string(scaled))
            .cell(std::to_string(rm.budget().dsps))
            .cell(scaled <= rm.budget().dsps ? "yes" : "NO (exceeds chip)");
    }
    dt.print(std::cout);
    std::cout << "\nShape checks: utilisation/power reproduce Table 3; "
                 "estimator r >= 0.93-level correlation; two-pass "
                 "softmax saves 1.33x traffic; 4x DSP scaling exceeds "
                 "the KU15P at d_group >= 4 (paper §7.2: >2,000 DSPs).\n";
    return 0;
}

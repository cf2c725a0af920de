#include "accel/kernel_sim.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "sim/bandwidth.h"

namespace hilos {

KernelSimulator::KernelSimulator(const KernelSimConfig &cfg) : cfg_(cfg)
{
    HILOS_ASSERT(cfg_.hw.clock_hz > 0.0, "invalid clock");
}

Seconds
KernelSimulator::simulate(std::size_t s, std::size_t d,
                          std::size_t d_group) const
{
    const CycleModelConfig &hw = cfg_.hw;
    const double clk = hw.clock_hz;
    BandwidthResource dram("fpga-dram",
                           hw.dram_bandwidth * hw.dram_efficiency,
                           cfg_.dram_command_latency);

    const std::size_t s_pad =
        roundUp(std::max<std::size_t>(s, 1),
                static_cast<std::uint64_t>(hw.burst_elems));
    const std::size_t blocks = ceilDiv(s_pad, hw.block_tokens);

    Seconds ready = cfg_.launch_overhead;
    for (std::size_t blk = 0; blk < blocks; blk++) {
        const std::size_t tokens = std::min<std::size_t>(
            hw.block_tokens, s_pad - blk * hw.block_tokens);
        // K + V burst transfers for the block (whole bursts only).
        const std::uint64_t bytes =
            roundUp(2ull * tokens * d * 2, hw.burst_elems * 2);
        const Seconds io_done = dram.transfer(ready, bytes);
        // Unit compute: integer cycles per block, bottleneck unit.
        const double qk = std::ceil(
            static_cast<double>(tokens) * static_cast<double>(d) *
            static_cast<double>(d_group) /
            static_cast<double>(hw.mac_units));
        const double sm = std::ceil(
            static_cast<double>(tokens) * static_cast<double>(d_group) /
            static_cast<double>(hw.exp_unroll));
        const double unit_cycles =
            std::max(qk, sm) + cfg_.pipeline_fill_cycles;
        const Seconds compute_done = ready + unit_cycles / clk;
        ready = std::max(io_done, compute_done);
        // DDR refresh: a stall per tREFI window of activity.
        ready += cfg_.refresh_stall *
                 ((unit_cycles / clk) / cfg_.refresh_interval);
    }

    if (cfg_.measurement_noise > 0.0) {
        Rng noise(s * 31 + d_group * 7919);
        ready *= 1.0 + cfg_.measurement_noise * noise.normal();
        ready = std::max(ready, cfg_.launch_overhead);
    }
    return ready;
}

}  // namespace hilos

#include "accel/cycle_model.h"

#include <algorithm>

#include "common/logging.h"

namespace hilos {

Cycles
CycleBreakdown::bottleneckCycles() const
{
    return std::max({qk_gemv_cycles, softmax_stats_cycles,
                     softmax_norm_cycles, sv_gemv_cycles, dram_cycles});
}

CycleModel::CycleModel(const CycleModelConfig &cfg) : cfg_(cfg)
{
    HILOS_ASSERT(cfg_.clock_hz > 0.0 && cfg_.dram_bandwidth > 0.0,
                 "invalid cycle-model config");
    HILOS_ASSERT(cfg_.mac_units > 0 && cfg_.exp_unroll > 0,
                 "invalid unit counts");
}

std::size_t
CycleModel::paddedLen(std::size_t s) const
{
    return static_cast<std::size_t>(
        roundUp(static_cast<std::uint64_t>(std::max<std::size_t>(s, 1)),
                static_cast<std::uint64_t>(cfg_.burst_elems)));
}

Bytes
CycleModel::dramTrafficBytes(std::size_t s, std::size_t d,
                             std::size_t d_group) const
{
    const double s_pad = static_cast<double>(paddedLen(s));
    const double dd = static_cast<double>(d);
    const double dg = static_cast<double>(d_group);
    // K and V stream once each (FP16); scores are written once after
    // pass one and re-read by the normalisation and SV units (FP16).
    const double kv = 2.0 * s_pad * dd * 2.0;
    const double scores = s_pad * dg * 2.0 * 3.0;
    return kv + scores;
}

CycleBreakdown
CycleModel::breakdown(std::size_t s, std::size_t d,
                      std::size_t d_group) const
{
    const double s_pad = static_cast<double>(paddedLen(s));
    const double dd = static_cast<double>(d);
    const double dg = static_cast<double>(d_group);

    CycleBreakdown b;
    // Each GEMV unit retires mac_units MACs per cycle; per token it
    // needs d * d_group MACs.
    b.qk_gemv_cycles = s_pad * dd * dg / static_cast<double>(cfg_.mac_units);
    b.sv_gemv_cycles = b.qk_gemv_cycles;
    // The exponential pipeline retires exp_unroll values per cycle; each
    // pass touches d_group scores per token.
    b.softmax_stats_cycles = s_pad * dg / static_cast<double>(cfg_.exp_unroll);
    b.softmax_norm_cycles = b.softmax_stats_cycles;
    // DRAM-traffic bound expressed in kernel cycles.
    const Bandwidth eff_bw = cfg_.dram_bandwidth * cfg_.dram_efficiency;
    b.dram_cycles = dramTrafficBytes(s, d, d_group) / eff_bw * cfg_.clock_hz;
    return b;
}

Seconds
CycleModel::kernelTime(std::size_t s, std::size_t d,
                       std::size_t d_group) const
{
    const CycleBreakdown b = breakdown(s, d, d_group);
    // Task-level (DATAFLOW) pipelining: the bottleneck unit sets the
    // steady-state rate; fill/drain adds one block per extra stage.
    const Cycles fill_cycles =
        static_cast<double>(cfg_.pipeline_stages - 1) *
        static_cast<double>(cfg_.block_tokens) *
        static_cast<double>(d) / static_cast<double>(cfg_.mac_units);
    return (b.bottleneckCycles() + fill_cycles) / cfg_.clock_hz;
}

Flops
CycleModel::kernelFlops(std::size_t s, std::size_t d,
                        std::size_t d_group) const
{
    const double ss = static_cast<double>(s);
    const double dd = static_cast<double>(d);
    const double dg = static_cast<double>(d_group);
    // QK and SV each: 2 flops per (token, dim, query); softmax ~5 flops
    // per score.
    return 2.0 * ss * dd * dg * 2.0 + 5.0 * ss * dg;
}

double
CycleModel::gflops(std::size_t s, std::size_t d, std::size_t d_group) const
{
    return kernelFlops(s, d, d_group) / kernelTime(s, d, d_group) / 1e9;
}

Bandwidth
CycleModel::kvBytesPerSec(std::size_t s, std::size_t d,
                          std::size_t d_group) const
{
    const double kv_bytes =
        2.0 * static_cast<double>(paddedLen(s)) * static_cast<double>(d) *
        2.0;
    return Bytes(kv_bytes) / kernelTime(s, d, d_group);
}

}  // namespace hilos

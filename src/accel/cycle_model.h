/**
 * @file
 * Accelerator performance estimator (§5.1).
 *
 * The paper ships a cycle-count/clock-frequency performance estimator
 * for the attention kernel that achieves a 0.93 Pearson correlation
 * against hardware across 4K-32K sequence lengths. This module is that
 * estimator: per-unit cycle counts for the four pipelined units plus a
 * DRAM-traffic bound, calibrated so the d_group = 1/4/5 kernels land on
 * the published 11.9 / 46.8 / 56.3 GFLOPS peaks (Table 3).
 */

#ifndef HILOS_ACCEL_CYCLE_MODEL_H_
#define HILOS_ACCEL_CYCLE_MODEL_H_

#include <cstdint>

#include "common/units.h"

namespace hilos {

/** Hardware parameters of the synthesised kernel. */
struct CycleModelConfig {
    Hertz clock_hz = 296.05e6;         ///< achieved kernel clock (§6.2)
    Bandwidth dram_bandwidth = gbps(19.2);  ///< 1ch DDR4-2400 on the FPGA
    double dram_efficiency = 0.62;     ///< achieved fraction (calibrated)
    std::size_t mac_units = 128;       ///< per GEMV unit
    std::size_t exp_unroll = 2;        ///< exponential-unit unroll (§5.4)
    std::size_t block_tokens = 128;
    std::size_t burst_elems = 32;      ///< AXI burst width in halves
    std::size_t pipeline_stages = 4;   ///< dataflow depth (fill/drain)
};

/** Per-unit cycle breakdown for one kernel invocation. */
struct CycleBreakdown {
    Cycles qk_gemv_cycles = 0;
    Cycles softmax_stats_cycles = 0;
    Cycles softmax_norm_cycles = 0;
    Cycles sv_gemv_cycles = 0;
    Cycles dram_cycles = 0;  ///< traffic bound expressed in cycles

    /** The binding constraint in cycles per invocation. */
    Cycles bottleneckCycles() const;
};

/**
 * Analytic kernel-time estimator.
 */
class CycleModel
{
  public:
    explicit CycleModel(const CycleModelConfig &cfg);

    /**
     * Cycle breakdown for attention over `s` context tokens with head
     * dimension `d` and `d_group` grouped queries.
     */
    CycleBreakdown breakdown(std::size_t s, std::size_t d,
                             std::size_t d_group) const;

    /** Estimated kernel execution time. */
    Seconds kernelTime(std::size_t s, std::size_t d,
                       std::size_t d_group) const;

    /** Floating-point operations for the invocation. */
    Flops kernelFlops(std::size_t s, std::size_t d,
                      std::size_t d_group) const;

    /** Achieved GFLOPS at steady state (long s). */
    double gflops(std::size_t s, std::size_t d, std::size_t d_group) const;

    /** KV-cache consumption rate in bytes/second (Fig. 12a). */
    Bandwidth kvBytesPerSec(std::size_t s, std::size_t d,
                            std::size_t d_group) const;

    /** DRAM traffic in bytes for one invocation (incl. score traffic). */
    Bytes dramTrafficBytes(std::size_t s, std::size_t d,
                           std::size_t d_group) const;

    const CycleModelConfig &config() const { return cfg_; }

  private:
    std::size_t paddedLen(std::size_t s) const;

    CycleModelConfig cfg_;
};

}  // namespace hilos

#endif  // HILOS_ACCEL_CYCLE_MODEL_H_

/**
 * @file
 * Roofline GPU model.
 *
 * LLM decoding is memory-bound (§1), so a roofline — time is the max of
 * compute time at peak FLOPS and data time at memory bandwidth —
 * reproduces every GPU-side effect the paper measures. Presets cover the
 * testbed GPUs: A100 40 GB, H100 80 GB, and the RTX A6000 nodes used in
 * the multi-GPU comparison (Fig. 17b).
 */

#ifndef HILOS_DEVICE_GPU_H_
#define HILOS_DEVICE_GPU_H_

#include <cstdint>
#include <string>

#include "common/units.h"

namespace hilos {

/** Datasheet-style GPU parameters. */
struct GpuConfig {
    std::string name = "a100-40g";
    std::uint64_t memory_capacity = 40ull * GiB;
    Bandwidth memory_bandwidth = gbps(1555);
    FlopRate fp16_peak = tflops(312);  ///< dense FP16 tensor-core peak
    double gemm_efficiency = 0.6;   ///< achieved fraction of peak on GEMM
    double gemv_efficiency = 0.8;   ///< achieved fraction of mem-bw on GEMV
    Watts tdp = 300.0;
    Watts idle_power = 60.0;
    double price_usd = 7000.0;
};

/**
 * Roofline execution-time oracle for one GPU.
 */
class Gpu
{
  public:
    explicit Gpu(const GpuConfig &cfg);

    /**
     * Time of a compute kernel touching `bytes` of device memory and
     * executing `flops` floating-point operations: the roofline max of
     * the compute and memory times.
     */
    Seconds kernelTime(Flops flops, Bytes bytes) const;

    /** Memory-bound operation (GEMV / attention during decode). */
    Seconds memoryTime(Bytes bytes) const;

    /** Compute-bound operation at GEMM efficiency. */
    Seconds computeTime(Flops flops) const;

    const GpuConfig &config() const { return cfg_; }

  private:
    GpuConfig cfg_;
};

/** NVIDIA A100 40 GB (PCIe). */
GpuConfig a100Config();
/** NVIDIA H100 80 GB (PCIe). */
GpuConfig h100Config();
/** NVIDIA RTX A6000 48 GB. */
GpuConfig a6000Config();

}  // namespace hilos

#endif  // HILOS_DEVICE_GPU_H_

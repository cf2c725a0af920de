#include "device/gpu.h"

#include <algorithm>

#include "common/logging.h"

namespace hilos {

Gpu::Gpu(const GpuConfig &cfg) : cfg_(cfg)
{
    HILOS_ASSERT(cfg_.memory_bandwidth > 0.0 && cfg_.fp16_peak > 0.0,
                 "invalid GPU config");
    HILOS_ASSERT(cfg_.gemm_efficiency > 0 && cfg_.gemm_efficiency <= 1.0,
                 "invalid gemm efficiency");
    HILOS_ASSERT(cfg_.gemv_efficiency > 0 && cfg_.gemv_efficiency <= 1.0,
                 "invalid gemv efficiency");
}

Seconds
Gpu::kernelTime(Flops flops, Bytes bytes) const
{
    return std::max(computeTime(flops), memoryTime(bytes));
}

Seconds
Gpu::memoryTime(Bytes bytes) const
{
    HILOS_ASSERT(bytes >= 0.0, "negative bytes");
    return bytes / (cfg_.memory_bandwidth * cfg_.gemv_efficiency);
}

Seconds
Gpu::computeTime(Flops flops) const
{
    HILOS_ASSERT(flops >= 0.0, "negative flops");
    return flops / (cfg_.fp16_peak * cfg_.gemm_efficiency);
}

GpuConfig
a100Config()
{
    GpuConfig cfg;
    cfg.name = "a100-40g";
    cfg.memory_capacity = 40ull * GiB;
    cfg.memory_bandwidth = gbps(1555);
    cfg.fp16_peak = tflops(312);
    cfg.tdp = 300.0;
    cfg.idle_power = 60.0;
    cfg.price_usd = 7000.0;
    return cfg;
}

GpuConfig
h100Config()
{
    GpuConfig cfg;
    cfg.name = "h100-80g";
    cfg.memory_capacity = 80ull * GiB;
    cfg.memory_bandwidth = gbps(2000);
    cfg.fp16_peak = tflops(756);
    cfg.tdp = 350.0;
    cfg.idle_power = 70.0;
    cfg.price_usd = 30000.0;
    return cfg;
}

GpuConfig
a6000Config()
{
    GpuConfig cfg;
    cfg.name = "rtx-a6000";
    cfg.memory_capacity = 48ull * GiB;
    cfg.memory_bandwidth = gbps(768);
    cfg.fp16_peak = tflops(155);
    cfg.tdp = 300.0;
    cfg.idle_power = 55.0;
    cfg.price_usd = 4500.0;
    return cfg;
}

}  // namespace hilos

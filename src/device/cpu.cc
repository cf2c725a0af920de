#include "device/cpu.h"

#include <algorithm>

#include "common/logging.h"

namespace hilos {

Cpu::Cpu(const CpuConfig &cfg) : cfg_(cfg)
{
    HILOS_ASSERT(cfg_.fp32_peak > 0.0 && cfg_.dram_bandwidth > 0.0,
                 "invalid CPU config");
}

Seconds
Cpu::kernelTime(Flops flops, Bytes bytes) const
{
    return std::max(computeTime(flops), memoryTime(bytes));
}

Seconds
Cpu::memoryTime(Bytes bytes) const
{
    HILOS_ASSERT(bytes >= 0.0, "negative bytes");
    return bytes / (cfg_.dram_bandwidth * cfg_.attention_efficiency);
}

Seconds
Cpu::computeTime(Flops flops) const
{
    HILOS_ASSERT(flops >= 0.0, "negative flops");
    return flops / (cfg_.fp32_peak * cfg_.attention_efficiency);
}

CpuConfig
xeon6342Config()
{
    return CpuConfig{};
}

}  // namespace hilos

#include "runtime/energy.h"

#include <algorithm>

#include "common/logging.h"

namespace hilos {

namespace {

Joules
componentEnergy(Watts active, Watts idle, Seconds busy, Seconds wall)
{
    const Seconds clamped = std::min(busy, wall);
    return active * clamped + idle * (wall - clamped);
}

}  // namespace

PowerSpec
powerSpecOf(const SystemConfig &sys)
{
    PowerSpec p;
    p.gpu_tdp = sys.gpu.tdp;
    p.gpu_idle = sys.gpu.idle_power;
    p.cpu_tdp = sys.cpu.tdp;
    p.cpu_idle = sys.cpu.idle_power;
    p.dram_active = sys.dram.active_power;
    p.dram_idle = sys.dram.idle_power;
    p.ssd_active = sys.baseline_ssd.active_power;
    p.ssd_idle = sys.baseline_ssd.idle_power;
    p.nand_active = sys.smartssd.nand.active_power;
    p.nand_idle = sys.smartssd.nand.idle_power;
    p.fpga_idle = sys.smartssd.fpga_idle_power;
    return p;
}

EnergyBreakdown
computeEnergy(const PowerSpec &p, StorageKind kind, unsigned devices,
              Seconds wall, const ComponentBusy &busy, Watts fpga_power)
{
    HILOS_ASSERT(wall >= 0.0, "negative wall time");
    EnergyBreakdown e;
    e.gpu = componentEnergy(p.gpu_tdp, p.gpu_idle, busy.gpu, wall);
    e.cpu = componentEnergy(p.cpu_tdp, p.cpu_idle, busy.cpu, wall);
    e.dram = componentEnergy(p.dram_active, p.dram_idle, busy.dram, wall);

    switch (kind) {
      case StorageKind::None:
        e.storage = 0.0;
        break;
      case StorageKind::BaselineSsds:
        e.storage = static_cast<double>(devices) *
                    componentEnergy(p.ssd_active, p.ssd_idle,
                                    busy.storage, wall);
        break;
      case StorageKind::SmartSsds: {
        const Joules ssd_part = componentEnergy(
            p.nand_active, p.nand_idle, busy.storage, wall);
        const Joules fpga_part =
            componentEnergy(std::max(fpga_power, p.fpga_idle), p.fpga_idle,
                            busy.fpga, wall);
        e.storage = static_cast<double>(devices) * (ssd_part + fpga_part);
        break;
      }
    }
    return e;
}

double
systemPriceUsd(const SystemConfig &sys, StorageKind kind, unsigned devices)
{
    double price = sys.prices.host_server_usd + sys.gpu.price_usd;
    switch (kind) {
      case StorageKind::None:
        break;
      case StorageKind::BaselineSsds:
        price += devices * sys.prices.pcie4_ssd_usd;
        break;
      case StorageKind::SmartSsds:
        price += sys.prices.pcie_expansion_usd +
                 devices * sys.prices.smartssd_usd;
        break;
    }
    return price;
}

double
costEffectiveness(double tokens_per_sec, double price_usd)
{
    HILOS_ASSERT(price_usd > 0.0, "non-positive system price");
    return tokens_per_sec / price_usd;
}

double
serviceableRequests(const EnduranceInputs &in)
{
    HILOS_ASSERT(in.bytes_per_request > 0.0,
                 "per-request write volume must be positive");
    HILOS_ASSERT(in.write_amplification >= 1.0, "WA below 1");
    const double fleet_endurance =
        static_cast<double>(in.devices) * in.per_device_endurance_bytes;
    return fleet_endurance /
           (in.bytes_per_request * in.write_amplification);
}

}  // namespace hilos

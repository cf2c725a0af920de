#include "device/smartssd.h"

namespace hilos {

SmartSsdConfig
smartSsdConfig()
{
    return SmartSsdConfig{};
}

SmartSsdConfig
ispDeviceConfig()
{
    SmartSsdConfig cfg;
    cfg.nand.capacity = 16ull * 1000 * 1000 * 1000 * 1000;  // 16 TB
    // Eight 2,000 MT/s flash channels: 16 GB/s internal read path.
    cfg.nand.seq_read_bw = gbps(16.0);
    cfg.nand.seq_write_bw = gbps(6.0);
    cfg.p2p_read_bw = gbps(16.0);
    cfg.p2p_write_bw = gbps(6.0);
    // Single-package LPDDR5X, four 16-bit channels: 68 GB/s.
    cfg.fpga_dram_bandwidth = gbps(68.0);
    cfg.fpga_idle_power = 0.5;
    return cfg;
}

}  // namespace hilos

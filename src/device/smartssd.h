/**
 * @file
 * SmartSSD presets: a 3.84 TB NVMe SSD, a Kintex UltraScale+ KU15P FPGA
 * with DDR4-2400, and an internal PCIe 3.0 x4 P2P path between them
 * (§2.3, §5.3). The engines read these rates through SystemConfig; the
 * FPGA's attention-kernel throughput and clock come from the
 * accelerator cycle model.
 */

#ifndef HILOS_DEVICE_SMARTSSD_H_
#define HILOS_DEVICE_SMARTSSD_H_

#include "common/units.h"
#include "storage/ssd.h"

namespace hilos {

/** SmartSSD-specific parameters beyond the embedded SSD config. */
struct SmartSsdConfig {
    SsdConfig nand;                      ///< the internal NVMe SSD
    Bandwidth fpga_dram_bandwidth = gbps(19.2);  ///< 1ch DDR4-2400
    Bandwidth p2p_read_bw = gbps(3.0);   ///< NAND -> FPGA DRAM, internal
    Bandwidth p2p_write_bw = gbps(2.1);  ///< FPGA DRAM -> NAND, internal
    Watts fpga_idle_power = 6.0;

    SmartSsdConfig() { nand = smartSsdNandConfig(); }
};

/** Default SmartSSD preset (Table 1). */
SmartSsdConfig smartSsdConfig();

/**
 * Envisioned ISP device (§7.1): 16 TB NAND over eight 2,000 MT/s flash
 * channels (16 GB/s internal), LPDDR5X at 68 GB/s, one PCIe 4.0 x4 host
 * link. The paper argues one such device matches four SmartSSDs.
 */
SmartSsdConfig ispDeviceConfig();

}  // namespace hilos

#endif  // HILOS_DEVICE_SMARTSSD_H_

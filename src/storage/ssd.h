/**
 * @file
 * NVMe SSD datasheet presets. The engines price KV I/O from these
 * rates (and the SystemConfig links), not from a device model. Presets
 * describe the two devices in the paper's testbed: the Samsung PM9A3
 * (baseline PCIe 4.0 SSD) and the NVMe SSD inside a SmartSSD (PCIe 3.0
 * x4 internal P2P path).
 */

#ifndef HILOS_STORAGE_SSD_H_
#define HILOS_STORAGE_SSD_H_

#include <cstdint>

#include "common/units.h"

namespace hilos {

/** Datasheet-style SSD parameters. */
struct SsdConfig {
    std::uint64_t capacity = 3840ull * 1000 * 1000 * 1000;  ///< 3.84 TB
    std::uint64_t page_bytes = 4 * KiB;  ///< host-visible write granularity
    Bandwidth seq_read_bw = mbps(6900);
    Bandwidth seq_write_bw = mbps(4100);
    double rand_write_iops = 180e3;  ///< 4 KiB random write IOPS
    Seconds write_latency = usec(20);  ///< to device cache
    Watts active_power = 13.0;
    Watts idle_power = 5.0;

    /**
     * Time for `count` random writes of `bytes` each. Writes smaller
     * than a page are padded to page granularity (RMW), so a 256 B KV
     * entry write costs a full 4 KiB program slot.
     */
    Seconds randomWriteTime(std::uint64_t count, std::uint64_t bytes) const;
};

/** Samsung PM9A3 3.84 TB (baseline PCIe 4.0 x4 SSD). */
SsdConfig pm9a3Config();

/**
 * The NVMe SSD inside a Samsung SmartSSD: 3.84 TB behind an internal
 * PCIe 3.0 x4 P2P path (~3.2 GB/s raw, ~3.0 GB/s effective).
 */
SsdConfig smartSsdNandConfig();

}  // namespace hilos

#endif  // HILOS_STORAGE_SSD_H_

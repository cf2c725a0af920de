/**
 * @file
 * Host DRAM parameters: capacity and bandwidth of the server's main memory
 * (16 x 32 GB DDR4-3200 in the paper's testbed), used both as the
 * FLEX(DRAM) KV-cache tier and as the staging buffer for delayed KV
 * writeback.
 */

#ifndef HILOS_DEVICE_DRAM_H_
#define HILOS_DEVICE_DRAM_H_

#include <cstdint>
#include <string>

#include "common/units.h"

namespace hilos {

/** Host memory parameters. */
struct DramConfig {
    std::string name = "ddr4-3200x16";
    std::uint64_t capacity = 512ull * GiB;
    Bandwidth bandwidth = gbps(160);  ///< effective, 8 channels
    Watts active_power = 40.0;
    Watts idle_power = 15.0;
    double price_per_gb_usd = 3.0;  ///< DRAM $/GB (§8.2)
};

/** Testbed host memory: 16 x 32 GB DDR4-3200 (Table 1). */
DramConfig hostDramConfig();

}  // namespace hilos

#endif  // HILOS_DEVICE_DRAM_H_

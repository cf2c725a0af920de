#include "storage/ssd.h"

#include <algorithm>

namespace hilos {

Seconds
SsdConfig::randomWriteTime(std::uint64_t count, std::uint64_t bytes) const
{
    if (count == 0)
        return 0.0;
    const std::uint64_t padded = roundUp(std::max<std::uint64_t>(bytes, 1),
                                         page_bytes);
    const Seconds iops_time =
        static_cast<double>(count) / rand_write_iops;
    const Seconds bw_time =
        Bytes(static_cast<double>(count * padded)) / seq_write_bw;
    return write_latency + std::max(iops_time, bw_time);
}

SsdConfig
pm9a3Config()
{
    SsdConfig cfg;
    cfg.capacity = static_cast<std::uint64_t>(3.84 * TB);
    cfg.seq_read_bw = mbps(6900);
    cfg.seq_write_bw = mbps(4100);
    cfg.rand_write_iops = 200e3;
    cfg.active_power = 13.0;
    cfg.idle_power = 5.0;
    return cfg;
}

SsdConfig
smartSsdNandConfig()
{
    SsdConfig cfg;
    cfg.capacity = static_cast<std::uint64_t>(3.84 * TB);
    // Internal PCIe 3.0 x4 P2P path bounds the usable bandwidth.
    cfg.seq_read_bw = mbps(3000);
    cfg.seq_write_bw = mbps(2100);
    cfg.rand_write_iops = 150e3;
    cfg.active_power = 9.0;  // SSD portion; FPGA power modelled apart
    cfg.idle_power = 3.0;
    return cfg;
}

}  // namespace hilos

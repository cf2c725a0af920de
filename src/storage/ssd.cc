#include "storage/ssd.h"

#include <algorithm>

#include "common/logging.h"

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

Ssd::Ssd(const SsdConfig &cfg, std::uint64_t capacity_scale)
    : cfg_(cfg), scale_(std::max<std::uint64_t>(1, capacity_scale))
{
    HILOS_ASSERT(cfg_.capacity > 0 && cfg_.page_bytes > 0,
                 "invalid SSD geometry");
    FtlConfig fcfg;
    fcfg.logical_page_bytes = cfg_.page_bytes;
    fcfg.pages_per_block = 256;
    const std::uint64_t scaled_capacity =
        std::max<std::uint64_t>(cfg_.capacity / scale_,
                                64 * fcfg.pages_per_block *
                                    fcfg.logical_page_bytes);
    fcfg.blocks = ceilDiv(scaled_capacity,
                          fcfg.pages_per_block * fcfg.logical_page_bytes);
    // Keep ~7% OP like the real device.
    fcfg.blocks = static_cast<std::uint64_t>(
        static_cast<double>(fcfg.blocks) * 1.07) + 8;
    ftl_ = std::make_unique<Ftl>(fcfg);
}

Seconds
Ssd::readTime(std::uint64_t bytes) const
{
    HILOS_ASSERT(health_ != SsdHealth::Failed,
                 "read from failed SSD '", cfg_.name, "'");
    if (bytes == 0)
        return 0.0;
    return read_slowdown_ *
           (cfg_.read_latency +
            Bytes(static_cast<double>(bytes)) / cfg_.seq_read_bw);
}

Seconds
Ssd::writeTime(std::uint64_t bytes) const
{
    HILOS_ASSERT(health_ != SsdHealth::Failed,
                 "write to failed SSD '", cfg_.name, "'");
    if (bytes == 0)
        return 0.0;
    return cfg_.write_latency +
           Bytes(static_cast<double>(bytes)) / cfg_.seq_write_bw;
}

Seconds
Ssd::randomReadTime(std::uint64_t count, std::uint64_t bytes) const
{
    HILOS_ASSERT(health_ != SsdHealth::Failed,
                 "read from failed SSD '", cfg_.name, "'");
    if (count == 0)
        return 0.0;
    // IOPS-limited command overhead plus data movement, whichever binds.
    const Seconds iops_time =
        static_cast<double>(count) / cfg_.rand_read_iops;
    const Seconds bw_time =
        Bytes(static_cast<double>(count * roundUp(bytes, cfg_.page_bytes))) /
        cfg_.seq_read_bw;
    return read_slowdown_ *
           (cfg_.read_latency + std::max(iops_time, bw_time));
}

void
Ssd::degrade(double read_slowdown)
{
    HILOS_ASSERT(read_slowdown >= 1.0,
                 "read slowdown must be >= 1: ", read_slowdown);
    HILOS_ASSERT(health_ != SsdHealth::Failed,
                 "cannot degrade a failed SSD");
    health_ = SsdHealth::Degraded;
    read_slowdown_ *= read_slowdown;
}

void
Ssd::recordWrite(std::uint64_t bytes, bool sequential)
{
    host_bytes_written_ += static_cast<double>(bytes);

    if (sequential) {
        padded_bytes_written_ +=
            static_cast<double>(roundUp(bytes, cfg_.page_bytes));
        // Stream through the scaled FTL to exercise GC/wear.
        const std::uint64_t scaled =
            std::max<std::uint64_t>(bytes / scale_, cfg_.page_bytes);
        const std::uint64_t logical_bytes =
            ftl_->config().logicalPages() * cfg_.page_bytes;
        if (seq_cursor_ + scaled > logical_bytes)
            seq_cursor_ = 0;  // wrap: overwrite oldest data
        ftl_->write(seq_cursor_, scaled);
        seq_cursor_ += roundUp(scaled, cfg_.page_bytes);
    } else {
        // Each small write consumes a whole page program.
        const std::uint64_t writes = std::max<std::uint64_t>(
            1, ceilDiv(bytes, cfg_.page_bytes));
        padded_bytes_written_ +=
            static_cast<double>(writes * cfg_.page_bytes);
    }
}

double
Ssd::nandBytesWritten() const
{
    // Padding overhead is exact; FTL GC amplification comes from the
    // scaled simulation's observed WA factor.
    const double ftl_wa = ftl_->stats().writeAmplification();
    return padded_bytes_written_ * std::max(1.0, ftl_wa);
}

double
Ssd::writeAmplification() const
{
    if (host_bytes_written_ == 0.0)
        return 1.0;
    return nandBytesWritten() / host_bytes_written_;
}

double
Ssd::enduranceConsumed() const
{
    return nandBytesWritten() / cfg_.enduranceBytes();
}

SsdConfig
pm9a3Config()
{
    SsdConfig cfg;
    cfg.name = "pm9a3";
    cfg.capacity = static_cast<std::uint64_t>(3.84 * TB);
    cfg.seq_read_bw = mbps(6900);
    cfg.seq_write_bw = mbps(4100);
    cfg.rand_read_iops = 1.1e6;
    cfg.rand_write_iops = 200e3;
    cfg.active_power = 13.0;
    cfg.idle_power = 5.0;
    cfg.endurance_pbw = 7.008;
    return cfg;
}

SsdConfig
smartSsdNandConfig()
{
    SsdConfig cfg;
    cfg.name = "smartssd-nand";
    cfg.capacity = static_cast<std::uint64_t>(3.84 * TB);
    // Internal PCIe 3.0 x4 P2P path bounds the usable bandwidth.
    cfg.seq_read_bw = mbps(3000);
    cfg.seq_write_bw = mbps(2100);
    cfg.rand_read_iops = 800e3;
    cfg.rand_write_iops = 150e3;
    cfg.active_power = 9.0;  // SSD portion; FPGA power modelled apart
    cfg.idle_power = 3.0;
    cfg.endurance_pbw = 7.008;
    return cfg;
}

}  // namespace hilos

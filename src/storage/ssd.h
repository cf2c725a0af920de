/**
 * @file
 * NVMe SSD device model.
 *
 * Combines datasheet-style analytic timing (sequential bandwidth,
 * random IOPS, sub-page write penalty) with a functional FTL for wear
 * and write-amplification accounting. Presets model the two devices in
 * the paper's testbed: the Samsung PM9A3 (baseline PCIe 4.0 SSD) and the
 * NVMe SSD inside a SmartSSD (PCIe 3.0 x4 internal P2P path).
 */

#ifndef HILOS_STORAGE_SSD_H_
#define HILOS_STORAGE_SSD_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/units.h"
#include "storage/ftl.h"

namespace hilos {

/** Datasheet-style SSD parameters. */
struct SsdConfig {
    std::string name = "generic-ssd";
    std::uint64_t capacity = 3840ull * 1000 * 1000 * 1000;  ///< 3.84 TB
    std::uint64_t page_bytes = 4 * KiB;  ///< host-visible write granularity
    Bandwidth seq_read_bw = mbps(6900);
    Bandwidth seq_write_bw = mbps(4100);
    double rand_read_iops = 1.0e6;   ///< 4 KiB random read IOPS
    double rand_write_iops = 180e3;  ///< 4 KiB random write IOPS
    Seconds read_latency = usec(80);
    Seconds write_latency = usec(20);  ///< to device cache
    Watts active_power = 13.0;
    Watts idle_power = 5.0;
    /** Endurance: total petabytes written the device is rated for. */
    double endurance_pbw = 7.008;

    /** Rated endurance in bytes. */
    double enduranceBytes() const { return endurance_pbw * 1e15; }

    /**
     * Time for `count` random writes of `bytes` each. Writes smaller
     * than a page are padded to page granularity (RMW), so a 256 B KV
     * entry write costs a full 4 KiB program slot.
     */
    Seconds randomWriteTime(std::uint64_t count, std::uint64_t bytes) const;
};

/** Device health for degraded-mode execution. */
enum class SsdHealth {
    Healthy,
    Degraded,  ///< readable, but reads pay a slowdown factor
    Failed,    ///< unreadable; accesses are a caller error
};

/**
 * An NVMe SSD: analytic timing plus FTL-backed wear accounting.
 *
 * Timing model:
 *  - sequential reads/writes stream at the datasheet bandwidth with a
 *    fixed command latency,
 *  - random (page-granular) accesses pay the IOPS limit,
 *  - sub-page writes cost a full page program (read-modify-write),
 *    which is the inefficiency delayed KV writeback removes. Random
 *    writes are priced by SsdConfig::randomWriteTime, pure arithmetic
 *    on the datasheet, so callers that only need that cost (the
 *    FlexGen engines) never build the FTL.
 *
 * Wear accounting runs through a scaled FTL: the FTL geometry is
 * reduced (capacity_scale) so multi-terabyte devices don't need
 * billion-entry maps, while write amplification factors remain
 * representative; byte totals are tracked at full scale.
 */
class Ssd
{
  public:
    /**
     * @param cfg datasheet parameters
     * @param capacity_scale divide the FTL-backed capacity by this
     *        factor for wear simulation (timing is unaffected)
     */
    explicit Ssd(const SsdConfig &cfg, std::uint64_t capacity_scale = 4096);

    /** Time to read `bytes` sequentially. */
    Seconds readTime(std::uint64_t bytes) const;
    /** Time to write `bytes` sequentially. */
    Seconds writeTime(std::uint64_t bytes) const;
    /** Time for `count` random reads of `bytes` each. */
    Seconds randomReadTime(std::uint64_t count, std::uint64_t bytes) const;

    /**
     * Record a host write for endurance accounting (does not advance
     * any clock). Sub-page writes inflate NAND traffic per the page
     * granularity.
     * @param sequential whether the write is sequential (page-aligned
     *        streaming) or small/random
     */
    void recordWrite(std::uint64_t bytes, bool sequential);

    /** Total NAND bytes programmed so far (endurance consumption). */
    double nandBytesWritten() const;

    /** Total host bytes written. */
    double hostBytesWritten() const { return host_bytes_written_; }

    /** Effective write amplification observed so far. */
    double writeAmplification() const;

    /** Fraction of rated endurance consumed. */
    double enduranceConsumed() const;

    /** Current health state (Healthy on construction). */
    SsdHealth health() const { return health_; }

    /**
     * Mark the device degraded: reads slow down by `read_slowdown`
     * (>= 1; ECC stress, media retention issues). Repeated calls
     * compound.
     */
    void degrade(double read_slowdown);

    /** Mark the device failed; further reads/writes are a panic. */
    void fail() { health_ = SsdHealth::Failed; }

    /** Current read slowdown factor (1 when healthy). */
    double readSlowdown() const { return read_slowdown_; }

    const SsdConfig &config() const { return cfg_; }
    const Ftl &ftl() const { return *ftl_; }

  private:
    SsdConfig cfg_;
    std::unique_ptr<Ftl> ftl_;
    std::uint64_t scale_;
    double host_bytes_written_ = 0.0;
    /** Sub-page padding overhead counted analytically (full scale). */
    double padded_bytes_written_ = 0.0;
    /** Next sequential-write cursor in scaled FTL space. */
    std::uint64_t seq_cursor_ = 0;
    SsdHealth health_ = SsdHealth::Healthy;
    double read_slowdown_ = 1.0;
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

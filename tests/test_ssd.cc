/**
 * @file
 * Tests for the SSD datasheet presets and the sub-page write penalty
 * FlexGen prices its KV commit with.
 */

#include <gtest/gtest.h>

#include "storage/ssd.h"

namespace hilos {
namespace {

TEST(SsdConfig, Pm9a3PresetMatchesDatasheet)
{
    const SsdConfig cfg = pm9a3Config();
    EXPECT_DOUBLE_EQ(cfg.seq_read_bw, mbps(6900));
    EXPECT_DOUBLE_EQ(cfg.seq_write_bw, mbps(4100));
    EXPECT_NEAR(static_cast<double>(cfg.capacity), 3.84e12, 1e9);
    EXPECT_DOUBLE_EQ(cfg.active_power, 13.0);
}

TEST(SsdConfig, SmartSsdNandIsP2pLimited)
{
    const SsdConfig cfg = smartSsdNandConfig();
    EXPECT_LE(cfg.seq_read_bw, mbps(3300));  // PCIe 3.0 x4 internal path
    EXPECT_LT(cfg.seq_read_bw, pm9a3Config().seq_read_bw);
}

TEST(Ssd, SequentialReadTime)
{
    // 6.9 GB at the PM9A3's 6,900 MB/s sequential read rate is 1 s.
    const Seconds t = Bytes(6.9e9) / pm9a3Config().seq_read_bw;
    EXPECT_NEAR(t, 1.0, 0.01);
}

TEST(Ssd, SequentialWriteSlowerThanRead)
{
    for (const SsdConfig &cfg : {pm9a3Config(), smartSsdNandConfig()}) {
        EXPECT_LT(cfg.seq_write_bw, cfg.seq_read_bw);
    }
}

TEST(Ssd, SubPageRandomWritePaysFullPage)
{
    // A 256 B write costs the same as a full 4 KiB write slot, on both
    // the baseline drive and the SmartSSD's internal NAND.
    for (const SsdConfig &cfg : {pm9a3Config(), smartSsdNandConfig()}) {
        EXPECT_DOUBLE_EQ(cfg.randomWriteTime(1000, 256),
                         cfg.randomWriteTime(1000, 4096));
    }
}

}  // namespace
}  // namespace hilos

/**
 * @file
 * Tests for the NVMe SSD device model: timing formulas, sub-page write
 * penalties, endurance accounting, and the PM9A3 / SmartSSD presets.
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
    EXPECT_DOUBLE_EQ(cfg.endurance_pbw, 7.008);
    EXPECT_DOUBLE_EQ(cfg.enduranceBytes(), 7.008e15);
}

TEST(SsdConfig, SmartSsdNandIsP2pLimited)
{
    const SsdConfig cfg = smartSsdNandConfig();
    EXPECT_LE(cfg.seq_read_bw, mbps(3300));  // PCIe 3.0 x4 internal path
    EXPECT_LT(cfg.seq_read_bw, pm9a3Config().seq_read_bw);
}

TEST(Ssd, SequentialReadTime)
{
    const Ssd ssd(pm9a3Config());
    const Seconds t = ssd.readTime(static_cast<std::uint64_t>(6.9e9));
    EXPECT_NEAR(t, 1.0, 0.01);
    EXPECT_EQ(ssd.readTime(0), 0.0);
}

TEST(Ssd, SequentialWriteSlowerThanRead)
{
    const Ssd ssd(pm9a3Config());
    const std::uint64_t bytes = 1ull << 30;
    EXPECT_GT(ssd.writeTime(bytes), ssd.readTime(bytes));
}

TEST(Ssd, RandomReadIopsLimit)
{
    const Ssd ssd(pm9a3Config());
    // 1.1M commands at 1.1M IOPS -> ~1 second when IOPS-bound.
    const Seconds t = ssd.randomReadTime(1'100'000, 512);
    EXPECT_NEAR(t, 1.0, 0.2);
}

TEST(Ssd, SubPageRandomWritePaysFullPage)
{
    // A 256 B write costs the same as a full 4 KiB write slot, on both
    // the baseline drive and the SmartSSD's internal NAND.
    for (const SsdConfig &cfg : {pm9a3Config(), smartSsdNandConfig()}) {
        SCOPED_TRACE(cfg.name);
        EXPECT_DOUBLE_EQ(cfg.randomWriteTime(1000, 256),
                         cfg.randomWriteTime(1000, 4096));
    }
}

TEST(Ssd, SequentialWritesHaveUnitAmplification)
{
    Ssd ssd(pm9a3Config());
    ssd.recordWrite(1ull << 30, /*sequential=*/true);
    EXPECT_NEAR(ssd.writeAmplification(), 1.0, 0.05);
}

TEST(Ssd, SubPageWritesAmplify)
{
    Ssd ssd(pm9a3Config());
    for (int i = 0; i < 1000; i++)
        ssd.recordWrite(256, /*sequential=*/false);
    EXPECT_NEAR(ssd.writeAmplification(), 16.0, 0.5);
}

TEST(Ssd, EnduranceConsumptionGrowsWithWrites)
{
    Ssd ssd(pm9a3Config());
    EXPECT_EQ(ssd.enduranceConsumed(), 0.0);
    ssd.recordWrite(70ull << 30, true);  // 70 GiB
    const double one = ssd.enduranceConsumed();
    EXPECT_GT(one, 0.0);
    ssd.recordWrite(70ull << 30, true);
    EXPECT_NEAR(ssd.enduranceConsumed(), 2.0 * one, one * 0.2);
}

TEST(Ssd, ReadsDoNotConsumeEndurance)
{
    Ssd ssd(pm9a3Config());
    EXPECT_GT(ssd.readTime(1ull << 40), 0.0);
    EXPECT_GT(ssd.randomReadTime(1000, 4096), 0.0);
    EXPECT_EQ(ssd.enduranceConsumed(), 0.0);
}

}  // namespace
}  // namespace hilos

/**
 * @file
 * Tests for the accelerator performance estimator: calibration against
 * Table 3's published peaks, memory-boundedness, monotonicity, and the
 * KV-consumption rate that must exceed the 3 GB/s P2P feed (Fig 12a).
 */

#include <gtest/gtest.h>

#include "accel/cycle_model.h"

namespace hilos {
namespace {

TEST(CycleModel, CalibratedPeakGflops)
{
    const CycleModel cm{CycleModelConfig{}};
    // Table 3: 11.9 / 46.8 / 56.3 GFLOPS at d_group = 1 / 4 / 5.
    EXPECT_NEAR(cm.gflops(1 << 20, 128, 1), 11.9, 0.6);
    EXPECT_NEAR(cm.gflops(1 << 20, 128, 4), 46.8, 2.4);
    EXPECT_NEAR(cm.gflops(1 << 20, 128, 5), 56.3, 2.9);
}

TEST(CycleModel, KvRateExceedsP2pFeed)
{
    const CycleModel cm{CycleModelConfig{}};
    for (std::size_t dg : {1ul, 4ul, 5ul}) {
        EXPECT_GT(cm.kvBytesPerSec(32768, 128, dg), 3.0e9)
            << "d_group " << dg;
    }
}

TEST(CycleModel, GqaSlightlyLowerKvRate)
{
    const CycleModel cm{CycleModelConfig{}};
    // Fig 12(a): GQA kernels have slightly lower byte throughput due to
    // higher arithmetic intensity (score traffic per KV byte).
    EXPECT_LT(cm.kvBytesPerSec(32768, 128, 5),
              cm.kvBytesPerSec(32768, 128, 1));
    EXPECT_GT(cm.kvBytesPerSec(32768, 128, 5),
              0.9 * cm.kvBytesPerSec(32768, 128, 1));
}

TEST(CycleModel, DramBoundAtOperatingPoint)
{
    const CycleModel cm{CycleModelConfig{}};
    for (std::size_t dg : {1ul, 4ul, 5ul}) {
        const CycleBreakdown b = cm.breakdown(16384, 128, dg);
        EXPECT_EQ(b.bottleneckCycles(), b.dram_cycles) << "d_group " << dg;
    }
}

TEST(CycleModel, TimeMonotonicInSequenceLength)
{
    const CycleModel cm{CycleModelConfig{}};
    Seconds prev = 0;
    for (std::size_t s = 1024; s <= 65536; s *= 2) {
        const Seconds t = cm.kernelTime(s, 128, 1);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(CycleModel, TimeScalesLinearlyForLongSequences)
{
    const CycleModel cm{CycleModelConfig{}};
    const Seconds t32 = cm.kernelTime(32768, 128, 1);
    const Seconds t64 = cm.kernelTime(65536, 128, 1);
    EXPECT_NEAR(t64 / t32, 2.0, 0.05);
}

TEST(CycleModel, FlopsCountMatchesFormula)
{
    const CycleModel cm{CycleModelConfig{}};
    // 4 s d g MAC-flops + 5 s g softmax flops.
    EXPECT_DOUBLE_EQ(cm.kernelFlops(100, 64, 2),
                     4.0 * 100 * 64 * 2 + 5.0 * 100 * 2);
}

TEST(CycleModel, TrafficIncludesScores)
{
    const CycleModel cm{CycleModelConfig{}};
    const double base = cm.dramTrafficBytes(1024, 128, 1);
    const double gqa = cm.dramTrafficBytes(1024, 128, 5);
    EXPECT_GT(gqa, base);  // extra score traffic per group lane
    EXPECT_NEAR(base, 2.0 * 1024 * 128 * 2 + 1024 * 1 * 6, 1.0);
}

TEST(CycleModel, PaddingAffectsShortSequences)
{
    const CycleModel cm{CycleModelConfig{}};
    // 1-token and 32-token invocations move the same padded burst.
    EXPECT_DOUBLE_EQ(cm.dramTrafficBytes(1, 128, 1),
                     cm.dramTrafficBytes(32, 128, 1));
}

TEST(CycleModel, ComputeBoundWhenDramIsFast)
{
    CycleModelConfig cfg;
    cfg.dram_bandwidth = gbps(10000);  // effectively infinite
    const CycleModel cm(cfg);
    const CycleBreakdown b = cm.breakdown(16384, 128, 4);
    EXPECT_GT(b.bottleneckCycles(), b.dram_cycles);
}

}  // namespace
}  // namespace hilos

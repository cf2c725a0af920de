/**
 * @file
 * Tests for delayed KV cache writeback: the functional staging buffer
 * (spill at interval, partial-score precompute feeding the kernel) and
 * the analytic cost model (page alignment, XRT sync scaling, naive
 * commit penalty).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "llm/tensor.h"
#include "runtime/writeback.h"

namespace hilos {
namespace {

std::vector<Half>
row(std::size_t d, float base)
{
    std::vector<Half> r(d);
    for (std::size_t i = 0; i < d; i++)
        r[i] = Half(base + static_cast<float>(i) * 0.01f);
    return r;
}

TEST(WritebackBuffer, AppendsUntilSpillInterval)
{
    WritebackBuffer buf(2, 8, 4);
    const auto k = row(8, 1.0f), v = row(8, 2.0f);
    for (int i = 0; i < 3; i++)
        EXPECT_FALSE(buf.append(0, k.data(), v.data()));
    EXPECT_EQ(buf.buffered(0), 3u);
    EXPECT_TRUE(buf.append(0, k.data(), v.data()));  // 4th spills
    EXPECT_EQ(buf.buffered(0), 0u);
    EXPECT_EQ(buf.totalSpills(), 1u);
}

TEST(WritebackBuffer, SpillChunksCarryAllBytes)
{
    WritebackBuffer buf(1, 16, 2);
    const auto k = row(16, 0.0f), v = row(16, 1.0f);
    buf.append(0, k.data(), v.data());
    buf.append(0, k.data(), v.data());
    const auto spills = buf.takeSpills();
    ASSERT_EQ(spills.size(), 1u);
    EXPECT_EQ(spills[0].slice, 0u);
    EXPECT_EQ(spills[0].entries, 2u);
    EXPECT_EQ(spills[0].bytes, 2u * 2 * 16 * sizeof(Half));
    EXPECT_TRUE(buf.takeSpills().empty());  // drained
}

TEST(WritebackBuffer, SlicesAreIndependent)
{
    WritebackBuffer buf(3, 4, 16);
    const auto k = row(4, 0.0f), v = row(4, 0.0f);
    buf.append(0, k.data(), v.data());
    buf.append(2, k.data(), v.data());
    buf.append(2, k.data(), v.data());
    EXPECT_EQ(buf.buffered(0), 1u);
    EXPECT_EQ(buf.buffered(1), 0u);
    EXPECT_EQ(buf.buffered(2), 2u);
}

TEST(WritebackBuffer, PartialScoresMatchDirectDotProducts)
{
    const std::size_t d = 16, g = 2;
    WritebackBuffer buf(1, d, 8);
    Rng rng(5);
    const Matrix keys = Matrix::random(3, d, rng);
    const Matrix vals = Matrix::random(3, d, rng);
    for (std::size_t i = 0; i < 3; i++) {
        const auto kh = toHalf(Matrix(keys));  // full matrix each time
        std::vector<Half> krow(d), vrow(d);
        for (std::size_t c = 0; c < d; c++) {
            krow[c] = Half(keys.at(i, c));
            vrow[c] = Half(vals.at(i, c));
        }
        buf.append(0, krow.data(), vrow.data());
    }

    std::vector<float> q(g * d);
    Rng rng2(6);
    for (auto &x : q)
        x = static_cast<float>(rng2.normal());
    const float scale = 0.25f;
    const auto scores = buf.partialScores(0, q, g, scale);
    ASSERT_EQ(scores.size(), g * 3);
    for (std::size_t gi = 0; gi < g; gi++) {
        for (std::size_t i = 0; i < 3; i++) {
            float acc = 0;
            for (std::size_t c = 0; c < d; c++)
                acc += q[gi * d + c] * Half(keys.at(i, c)).toFloat();
            EXPECT_NEAR(scores[gi * 3 + i], acc * scale, 1e-5f);
        }
    }
}

TEST(WritebackCosts, SpillInterval16IsPageAligned)
{
    WritebackCostInputs in;
    in.slices = 1536;
    in.head_dim = 128;  // one K+V entry = 512 B; 16 entries = 8 KiB
    in.spill_interval = 16;
    in.devices = 8;
    const WritebackCosts c = writebackCosts(in);
    EXPECT_DOUBLE_EQ(c.write_amplification, 1.0);
}

TEST(WritebackCosts, SmallIntervalPaysPadding)
{
    WritebackCostInputs in;
    in.slices = 1536;
    in.head_dim = 128;
    in.spill_interval = 4;  // 2 KiB chunk < 4 KiB page
    const WritebackCosts c = writebackCosts(in);
    EXPECT_DOUBLE_EQ(c.write_amplification, 2.0);
}

TEST(WritebackCosts, SyncScalesWithChunkGranules)
{
    WritebackCostInputs in;
    in.slices = 1536;
    in.head_dim = 128;
    in.devices = 8;
    in.spill_interval = 16;
    const Seconds sync16 = writebackCosts(in).sync_time;
    in.spill_interval = 64;  // 32 KiB chunk: 8 granules
    const Seconds sync64 = writebackCosts(in).sync_time;
    EXPECT_GT(sync64, 3.0 * sync16);
}

TEST(WritebackCosts, DefaultIntervalIsBestOfSweep)
{
    // The Fig. 13 claim at the cost-model level: c = 16 minimises the
    // critical-path overhead among {4, 16, 64}.
    WritebackCostInputs in;
    in.slices = 1152;  // OPT-66B bs 16
    in.head_dim = 128;
    in.devices = 8;
    auto crit = [&](unsigned c) {
        in.spill_interval = c;
        return writebackCosts(in).criticalPath();
    };
    EXPECT_LT(crit(16), crit(4));
    EXPECT_LT(crit(16), crit(64));
}

TEST(WritebackCosts, TransferGrowsWithInterval)
{
    WritebackCostInputs in;
    in.slices = 1000;
    in.head_dim = 128;
    in.spill_interval = 8;
    const Seconds t8 = writebackCosts(in).transfer_time;
    in.spill_interval = 32;
    const Seconds t32 = writebackCosts(in).transfer_time;
    EXPECT_NEAR(t32 / t8, 4.0, 0.01);  // avg buffered entries scale
}

TEST(NaiveWriteback, SerialisesPerDevice)
{
    const Seconds one_dev =
        naiveWritebackTime(128, 1, 512, usec(20), usec(230));
    const Seconds eight_dev =
        naiveWritebackTime(128, 8, 512, usec(20), usec(230));
    EXPECT_NEAR(one_dev / eight_dev, 8.0, 0.01);
    EXPECT_NEAR(one_dev, 128.0 * usec(250), 1e-9);
}

TEST(NaiveWriteback, ExceedsDelayedCriticalPath)
{
    // The headline §4.3 claim: naive per-entry commits cost far more
    // than the delayed scheme's transfer+sync overhead.
    WritebackCostInputs in;
    in.slices = 1536;
    in.head_dim = 128;
    in.devices = 8;
    in.spill_interval = 16;
    const Seconds delayed = writebackCosts(in).criticalPath();
    const Seconds naive =
        naiveWritebackTime(1536, 8, 512, usec(20), usec(230));
    EXPECT_GT(naive, 3.0 * delayed);
}

}  // namespace
}  // namespace hilos

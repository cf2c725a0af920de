/**
 * @file
 * Tests for the FPGA resource/power model: exactness at the Table 3
 * calibration anchors, interpolation sanity, and the §7.2 DSP-scaling
 * conclusion.
 */

#include <gtest/gtest.h>

#include "accel/resource_model.h"

namespace hilos {
namespace {

TEST(ResourceModel, AnchorRowsMatchTable3)
{
    const ResourceModel rm;
    const ResourceUtilization u1 = rm.utilization(1);
    EXPECT_DOUBLE_EQ(u1.lut_pct, 38.76);
    EXPECT_DOUBLE_EQ(u1.ff_pct, 28.57);
    EXPECT_DOUBLE_EQ(u1.bram_pct, 51.02);
    EXPECT_DOUBLE_EQ(u1.uram_pct, 9.38);
    EXPECT_DOUBLE_EQ(u1.dsp_pct, 10.06);

    const ResourceUtilization u4 = rm.utilization(4);
    EXPECT_DOUBLE_EQ(u4.lut_pct, 56.60);
    EXPECT_DOUBLE_EQ(u4.dsp_pct, 20.27);

    const ResourceUtilization u5 = rm.utilization(5);
    EXPECT_DOUBLE_EQ(u5.lut_pct, 67.40);
    EXPECT_DOUBLE_EQ(u5.ff_pct, 46.15);
    EXPECT_DOUBLE_EQ(u5.dsp_pct, 27.79);
}

TEST(ResourceModel, PowerMatchesTable3)
{
    const ResourceModel rm;
    EXPECT_DOUBLE_EQ(rm.powerWatts(1), 11.25);
    EXPECT_DOUBLE_EQ(rm.powerWatts(4), 15.39);
    EXPECT_DOUBLE_EQ(rm.powerWatts(5), 16.08);
}

TEST(ResourceModel, InterpolationIsMonotonicBetweenAnchors)
{
    const ResourceModel rm;
    double prev = rm.utilization(1).lut_pct;
    for (std::size_t dg = 2; dg <= 5; dg++) {
        const double cur = rm.utilization(dg).lut_pct;
        EXPECT_GT(cur, prev) << "d_group " << dg;
        prev = cur;
    }
}

TEST(ResourceModel, UramInvariantAcrossGroups)
{
    const ResourceModel rm;
    for (std::size_t dg = 1; dg <= 6; dg++)
        EXPECT_DOUBLE_EQ(rm.utilization(dg).uram_pct, 9.38);
}

TEST(ResourceModel, AllPublishedConfigsFit)
{
    const ResourceModel rm;
    for (std::size_t dg : {1ul, 4ul, 5ul})
        EXPECT_TRUE(rm.utilization(dg).fits());
}

TEST(ResourceModel, ClockMatchesAchievedFrequency)
{
    EXPECT_DOUBLE_EQ(ResourceModel{}.clockHz(), 296.05e6);
}

TEST(ResourceModel, DspCountsReasonable)
{
    const ResourceModel rm;
    EXPECT_NEAR(static_cast<double>(rm.dspCount(1)), 0.1006 * 1968, 2);
    EXPECT_NEAR(static_cast<double>(rm.dspCount(5)), 0.2779 * 1968, 2);
}

TEST(ResourceModel, SoftmaxDominatesDspsAndGrows)
{
    const ResourceModel rm;
    EXPECT_GT(rm.softmaxDspShare(1), 0.5);
    EXPECT_GT(rm.softmaxDspShare(5), rm.softmaxDspShare(1));
    EXPECT_LE(rm.softmaxDspShare(16), 0.9);
}

TEST(ResourceModel, FourXScaleExceedsChipAtHighGroups)
{
    const ResourceModel rm;
    // §7.2: a 4x throughput scale-up needs >2,000 DSPs at d_group 5.
    EXPECT_GT(rm.dspsForThroughputScale(5, 4.0), 2000u);
    EXPECT_GT(rm.dspsForThroughputScale(5, 4.0), rm.budget().dsps);
    // The small d_group 1 design would still fit.
    EXPECT_LT(rm.dspsForThroughputScale(1, 4.0), rm.budget().dsps);
}

TEST(ResourceModel, InvalidGroupDies)
{
    const ResourceModel rm;
    EXPECT_DEATH(rm.utilization(0), "d_group");
}

}  // namespace
}  // namespace hilos

/**
 * @file
 * Tests for the shared-channel bandwidth resource: idle service,
 * FIFO queueing, contention and utilisation.
 */

#include <gtest/gtest.h>

#include "sim/bandwidth.h"

namespace hilos {
namespace {

TEST(Bandwidth, IdleServiceTime)
{
    BandwidthResource ch("ch", 1e9, 1e-6);
    EXPECT_DOUBLE_EQ(ch.serviceTime(1000), 1e-6 + 1e-6);
    EXPECT_DOUBLE_EQ(ch.serviceTime(0), 1e-6);
}

TEST(Bandwidth, SingleTransferCompletes)
{
    BandwidthResource ch("ch", 1e9);
    const Seconds done = ch.transfer(0.0, 1'000'000);
    EXPECT_DOUBLE_EQ(done, 1e-3);
}

TEST(Bandwidth, BackToBackTransfersQueue)
{
    BandwidthResource ch("ch", 1e9);
    const Seconds first = ch.transfer(0.0, 1'000'000);
    const Seconds second = ch.transfer(0.0, 1'000'000);
    EXPECT_DOUBLE_EQ(first, 1e-3);
    EXPECT_DOUBLE_EQ(second, 2e-3);  // waits behind the first
}

TEST(Bandwidth, LateArrivalDoesNotQueue)
{
    BandwidthResource ch("ch", 1e9);
    ch.transfer(0.0, 1'000'000);          // busy until 1 ms
    const Seconds done = ch.transfer(5e-3, 1'000'000);
    EXPECT_DOUBLE_EQ(done, 6e-3);  // starts at its own arrival
}

TEST(Bandwidth, BusyTimeAccumulates)
{
    BandwidthResource ch("ch", 1e9);
    ch.transfer(0.0, 500'000);
    ch.transfer(0.0, 500'000);
    EXPECT_DOUBLE_EQ(ch.busyTime(), 1e-3);
    EXPECT_DOUBLE_EQ(ch.utilization(2e-3), 0.5);
    EXPECT_DOUBLE_EQ(ch.utilization(1e-3), 1.0);  // exactly saturated
}

TEST(Bandwidth, UtilizationOverHorizonDies)
{
    // Querying with a horizon short of the busy span used to clamp
    // silently to 1.0, hiding accounting bugs; now it asserts.
    BandwidthResource ch("ch", 1e9);
    ch.transfer(0.0, 1'000'000);  // busy for 1 ms
    EXPECT_DEATH(ch.utilization(0.5e-3), "utilization");
}

TEST(Bandwidth, InvalidRateDies)
{
    EXPECT_DEATH(BandwidthResource("bad", 0.0), "positive");
}

}  // namespace
}  // namespace hilos

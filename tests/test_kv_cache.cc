/**
 * @file
 * Tests for the KV-cache / X-cache containers and the batch-head slice
 * partitioning across NSP devices.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "llm/kv_cache.h"
#include "llm/tensor.h"

namespace hilos {
namespace {

std::vector<Half>
halfRow(std::size_t d, float base)
{
    std::vector<Half> row(d);
    for (std::size_t i = 0; i < d; i++)
        row[i] = Half(base + static_cast<float>(i));
    return row;
}

TEST(KvCache, AppendGrowsSlices)
{
    KvCache cache(2, 3, 4);
    const SliceId id{1, 2};
    EXPECT_EQ(cache.length(id), 0u);
    const auto k = halfRow(4, 1.0f), v = halfRow(4, 10.0f);
    cache.append(id, k.data(), v.data());
    cache.append(id, k.data(), v.data());
    EXPECT_EQ(cache.length(id), 2u);
    EXPECT_EQ(cache.length(SliceId{0, 0}), 0u);
}

TEST(KvCache, ViewsExposeRowWiseLayout)
{
    KvCache cache(1, 1, 4);
    const SliceId id{0, 0};
    cache.append(id, halfRow(4, 1.0f).data(), halfRow(4, 5.0f).data());
    cache.append(id, halfRow(4, 2.0f).data(), halfRow(4, 6.0f).data());
    const HalfMatrixView keys = cache.keys(id);
    EXPECT_EQ(keys.rows, 2u);
    EXPECT_EQ(keys.cols, 4u);
    EXPECT_FLOAT_EQ(keys.at(0, 0).toFloat(), 1.0f);
    EXPECT_FLOAT_EQ(keys.at(1, 0).toFloat(), 2.0f);
    EXPECT_FLOAT_EQ(cache.values(id).at(1, 3).toFloat(), 9.0f);
}

TEST(KvCache, OutOfRangeSliceDies)
{
    KvCache cache(2, 2, 4);
    const auto k = halfRow(4, 0.0f);
    EXPECT_DEATH(cache.append(SliceId{2, 0}, k.data(), k.data()),
                 "range");
}

TEST(XCacheStore, HoldsHalfTheKvBytes)
{
    // X (s x h) is half of K+V (2 x s x h) for MHA widths.
    const std::size_t hidden = 16;
    XCacheStore xcache(1, hidden);
    KvCache kv(1, 1, hidden);
    const auto row = halfRow(hidden, 1.0f);
    for (int i = 0; i < 10; i++) {
        xcache.append(0, row.data());
        kv.append(SliceId{0, 0}, row.data(), row.data());
    }
    const HalfMatrixView x = xcache.activations(0);
    const HalfMatrixView k = kv.keys(SliceId{0, 0});
    const HalfMatrixView v = kv.values(SliceId{0, 0});
    EXPECT_EQ(2 * x.rows * x.cols, k.rows * k.cols + v.rows * v.cols);
}

TEST(XCacheStore, ActivationViewHasHiddenColumns)
{
    XCacheStore xcache(2, 8);
    const auto row = halfRow(8, 3.0f);
    xcache.append(1, row.data());
    const HalfMatrixView view = xcache.activations(1);
    EXPECT_EQ(view.rows, 1u);
    EXPECT_EQ(view.cols, 8u);
    EXPECT_EQ(xcache.activations(0).rows, 0u);
}

TEST(SlicePartition, CoversAllSlicesExactlyOnce)
{
    // Every slice has one owner among the devices, and every device
    // owns some slice while slices outnumber devices.
    const std::size_t devices = 5;
    const SlicePartition part(4, 6, devices);
    std::vector<std::size_t> owned(devices, 0);
    for (std::uint32_t b = 0; b < 4; b++) {
        for (std::uint32_t h = 0; h < 6; h++) {
            const std::size_t dev = part.deviceOf(SliceId{b, h});
            ASSERT_LT(dev, devices);
            owned[dev]++;
        }
    }
    for (std::size_t n : owned)
        EXPECT_GT(n, 0u);
}

TEST(SlicePartition, BalancedWithinOne)
{
    const SlicePartition part(16, 96, 7);
    std::vector<std::size_t> owned(7, 0);
    for (std::uint32_t b = 0; b < 16; b++)
        for (std::uint32_t h = 0; h < 96; h++)
            owned.at(part.deviceOf(SliceId{b, h}))++;
    const auto [lo, hi] = std::minmax_element(owned.begin(), owned.end());
    EXPECT_LE(*hi - *lo, 1u);
}

TEST(SlicePartition, SingleDeviceOwnsEverything)
{
    const SlicePartition part(3, 4, 1);
    for (std::uint32_t b = 0; b < 3; b++)
        for (std::uint32_t h = 0; h < 4; h++)
            EXPECT_EQ(part.deviceOf(SliceId{b, h}), 0u);
}

}  // namespace
}  // namespace hilos

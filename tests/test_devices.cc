/**
 * @file
 * Tests for the roofline device models (GPU, CPU, host DRAM) and the
 * SmartSSD presets.
 */

#include <gtest/gtest.h>

#include "device/cpu.h"
#include "device/dram.h"
#include "device/gpu.h"
#include "device/smartssd.h"

namespace hilos {
namespace {

TEST(Gpu, RooflineTakesMaxOfComputeAndMemory)
{
    const Gpu gpu(a100Config());
    const double flops = 1e12;
    const double bytes = 1e9;
    EXPECT_DOUBLE_EQ(gpu.kernelTime(flops, bytes),
                     std::max(gpu.computeTime(flops),
                              gpu.memoryTime(bytes)));
}

TEST(Gpu, MemoryBoundForLowIntensity)
{
    const Gpu gpu(a100Config());
    // 1 flop/byte is far below the A100 ridge point.
    EXPECT_DOUBLE_EQ(gpu.kernelTime(1e9, 1e9), gpu.memoryTime(1e9));
}

TEST(Gpu, ComputeBoundForHighIntensity)
{
    const Gpu gpu(a100Config());
    EXPECT_DOUBLE_EQ(gpu.kernelTime(1e15, 1e6), gpu.computeTime(1e15));
}

TEST(Gpu, H100FasterThanA100)
{
    const Gpu a100(a100Config()), h100(h100Config());
    EXPECT_LT(h100.computeTime(1e14), a100.computeTime(1e14));
    EXPECT_LT(h100.memoryTime(1e12), a100.memoryTime(1e12));
    EXPECT_GT(h100Config().price_usd, a100Config().price_usd);
}

TEST(Cpu, MemoryBoundAttention)
{
    const Cpu cpu(xeon6342Config());
    // Attention at ~1 flop/byte is memory-bound on the CPU roofline.
    EXPECT_DOUBLE_EQ(cpu.kernelTime(1e9, 1e9), cpu.memoryTime(1e9));
    EXPECT_GT(cpu.memoryTime(1e9), 0.0);
}

TEST(Cpu, SlowerThanGpuAtAttention)
{
    const Cpu cpu(xeon6342Config());
    const Gpu gpu(a100Config());
    EXPECT_GT(cpu.memoryTime(1e9), gpu.memoryTime(1e9));
}

TEST(Dram, TestbedCapacityIs512GiB)
{
    EXPECT_EQ(hostDramConfig().capacity, 512ull * GiB);
}

TEST(SmartSsd, P2pPathIsAbout3GBps)
{
    EXPECT_DOUBLE_EQ(smartSsdConfig().p2p_read_bw, gbps(3.0));
}

TEST(SmartSsd, P2pWriteSlowerThanRead)
{
    const SmartSsdConfig cfg = smartSsdConfig();
    EXPECT_LT(cfg.p2p_write_bw, cfg.p2p_read_bw);
}

TEST(SmartSsd, OnBoardDramFasterThanP2p)
{
    const SmartSsdConfig cfg = smartSsdConfig();
    EXPECT_GT(cfg.fpga_dram_bandwidth, cfg.p2p_read_bw);
}

TEST(SmartSsd, IspDeviceMatchesFourSmartSsds)
{
    const SmartSsdConfig isp = ispDeviceConfig();
    const SmartSsdConfig sdev = smartSsdConfig();
    // §7.1: one ISP unit ~ four SmartSSDs in internal bandwidth.
    EXPECT_NEAR(isp.p2p_read_bw / (4.0 * sdev.p2p_read_bw), 1.33, 0.35);
    EXPECT_NEAR(isp.fpga_dram_bandwidth /
                    (4.0 * sdev.fpga_dram_bandwidth),
                0.89, 0.2);
    EXPECT_EQ(isp.nand.capacity, 16ull * 1000 * 1000 * 1000 * 1000);
}

}  // namespace
}  // namespace hilos

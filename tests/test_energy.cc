/**
 * @file
 * Tests for the energy / cost / endurance models.
 */

#include <gtest/gtest.h>

#include "runtime/energy.h"

namespace hilos {
namespace {

TEST(Energy, IdleSystemDrawsIdlePower)
{
    const SystemConfig sys = defaultSystem();
    const PowerSpec power = powerSpecOf(sys);
    ComponentBusy busy;  // all zero
    const EnergyBreakdown e =
        computeEnergy(power, StorageKind::None, 0, 100.0, busy);
    EXPECT_DOUBLE_EQ(e.gpu, sys.gpu.idle_power * 100.0);
    EXPECT_DOUBLE_EQ(e.cpu, sys.cpu.idle_power * 100.0);
    EXPECT_DOUBLE_EQ(e.storage, 0.0);
}

TEST(Energy, BusyTimeDrawsActivePower)
{
    const SystemConfig sys = defaultSystem();
    const PowerSpec power = powerSpecOf(sys);
    ComponentBusy busy;
    busy.gpu = 60.0;
    const EnergyBreakdown e =
        computeEnergy(power, StorageKind::None, 0, 100.0, busy);
    EXPECT_DOUBLE_EQ(e.gpu, sys.gpu.tdp * 60.0 +
                                sys.gpu.idle_power * 40.0);
}

TEST(Energy, BusyClampsToWall)
{
    const SystemConfig sys = defaultSystem();
    const PowerSpec power = powerSpecOf(sys);
    ComponentBusy busy;
    busy.gpu = 500.0;  // more than wall
    const EnergyBreakdown e =
        computeEnergy(power, StorageKind::None, 0, 100.0, busy);
    EXPECT_DOUBLE_EQ(e.gpu, sys.gpu.tdp * 100.0);
}

TEST(Energy, BaselineSsdFleetScalesWithDevices)
{
    const SystemConfig sys = defaultSystem();
    const PowerSpec power = powerSpecOf(sys);
    ComponentBusy busy;
    busy.storage = 50.0;
    const EnergyBreakdown e4 =
        computeEnergy(power, StorageKind::BaselineSsds, 4, 100.0, busy);
    const EnergyBreakdown e8 =
        computeEnergy(power, StorageKind::BaselineSsds, 8, 100.0, busy);
    EXPECT_DOUBLE_EQ(e8.storage, 2.0 * e4.storage);
}

TEST(Energy, SmartSsdsIncludeFpgaPower)
{
    const SystemConfig sys = defaultSystem();
    const PowerSpec power = powerSpecOf(sys);
    ComponentBusy busy;
    busy.storage = 50.0;
    busy.fpga = 50.0;
    const EnergyBreakdown with_fpga = computeEnergy(
        power, StorageKind::SmartSsds, 8, 100.0, busy, 16.08);
    busy.fpga = 0.0;
    const EnergyBreakdown without = computeEnergy(
        power, StorageKind::SmartSsds, 8, 100.0, busy, 16.08);
    EXPECT_GT(with_fpga.storage, without.storage);
}

TEST(Energy, TotalSumsComponents)
{
    EnergyBreakdown e;
    e.gpu = 1;
    e.cpu = 2;
    e.dram = 3;
    e.storage = 4;
    EXPECT_DOUBLE_EQ(e.total(), 10.0);
}

TEST(Cost, PaperPriceList)
{
    const SystemConfig sys = defaultSystem();
    // Baseline: $15K server + $7K A100 + 4 x $400 SSD.
    EXPECT_DOUBLE_EQ(
        systemPriceUsd(sys, StorageKind::BaselineSsds, 4), 23600.0);
    // HILOS: + $10K chassis + 16 x $2,400 SmartSSDs (no PCIe4 SSDs).
    EXPECT_DOUBLE_EQ(systemPriceUsd(sys, StorageKind::SmartSsds, 16),
                     15000.0 + 7000.0 + 10000.0 + 16 * 2400.0);
}

TEST(Cost, H100SwapAddsPriceDelta)
{
    const SystemConfig h = h100System();
    EXPECT_DOUBLE_EQ(systemPriceUsd(h, StorageKind::BaselineSsds, 4),
                     15000.0 + 30000.0 + 1600.0);
}

TEST(Cost, EffectivenessIsThroughputPerDollar)
{
    EXPECT_DOUBLE_EQ(costEffectiveness(10.0, 20000.0), 10.0 / 20000.0);
    EXPECT_DEATH(costEffectiveness(1.0, 0.0), "price");
}

TEST(Endurance, FleetPbwDividedByRequestVolume)
{
    EnduranceInputs in;
    in.devices = 16;
    in.per_device_endurance_bytes = 7.008e15;
    in.bytes_per_request = 1e9;
    in.write_amplification = 1.0;
    EXPECT_NEAR(serviceableRequests(in), 16 * 7.008e15 / 1e9, 1.0);
}

TEST(Endurance, AmplificationReducesRequests)
{
    EnduranceInputs in;
    in.bytes_per_request = 1e9;
    in.write_amplification = 2.0;
    const double r2 = serviceableRequests(in);
    in.write_amplification = 1.0;
    EXPECT_NEAR(serviceableRequests(in), 2.0 * r2, 1.0);
}

}  // namespace
}  // namespace hilos

/**
 * @file
 * Unit tests for the fault-injection subsystem: retry-policy math, the
 * plan parser, the condition timeline, the slice oracle's sampled
 * draws, and the BandwidthResource fault hooks.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/bandwidth.h"
#include "sim/fault.h"
#include "support/fault_sampler.h"

namespace hilos {
namespace {

using test::FaultInjector;

// --- RetryPolicy ---

TEST(RetryPolicy, BackoffGrowsExponentiallyToCap)
{
    RetryPolicy rp;
    rp.backoff_base = usec(100);
    rp.backoff_multiplier = 2.0;
    rp.backoff_cap = usec(500);
    EXPECT_DOUBLE_EQ(rp.backoffDelay(1), usec(100));
    EXPECT_DOUBLE_EQ(rp.backoffDelay(2), usec(200));
    EXPECT_DOUBLE_EQ(rp.backoffDelay(3), usec(400));
    EXPECT_DOUBLE_EQ(rp.backoffDelay(4), usec(500));  // capped
    EXPECT_DOUBLE_EQ(rp.backoffDelay(10), usec(500));
}

TEST(RetryPolicy, ExpectedNvmePenaltyZeroAtZeroProbability)
{
    const RetryPolicy rp;
    EXPECT_EQ(rp.expectedNvmePenalty(0.0), 0.0);
    EXPECT_EQ(rp.expectedEccPenalty(0.0), 0.0);
}

TEST(RetryPolicy, ExpectedPenaltiesMonotonicInProbability)
{
    const RetryPolicy rp;
    Seconds prev_nvme = 0.0;
    Seconds prev_ecc = 0.0;
    for (double p : {1e-4, 1e-3, 1e-2, 1e-1}) {
        EXPECT_GT(rp.expectedNvmePenalty(p), prev_nvme);
        EXPECT_GT(rp.expectedEccPenalty(p), prev_ecc);
        prev_nvme = rp.expectedNvmePenalty(p);
        prev_ecc = rp.expectedEccPenalty(p);
    }
}

TEST(RetryPolicy, EccPenaltyIsMeanLadderDepth)
{
    RetryPolicy rp;
    rp.ecc_max_steps = 8;
    rp.ecc_step_latency = usec(70);
    // Uniform ladder depth in [1, 8] has mean 4.5.
    EXPECT_DOUBLE_EQ(rp.expectedEccPenalty(1.0), 4.5 * usec(70));
    EXPECT_DOUBLE_EQ(rp.expectedEccPenalty(0.5), 0.5 * 4.5 * usec(70));
}

// --- Plan parsing ---

TEST(FaultPlanParse, ParsesEveryClauseKind)
{
    const FaultPlan plan = parseFaultPlan(
        "seed=42; nand-err=1e-3:2; nvme-timeout=5e-4; "
        "degrade@1.5=0.5:3; uplink@2.0=0.8; fail@9=1; fail@12=all");
    EXPECT_EQ(plan.seed, 42u);
    ASSERT_EQ(plan.events.size(), 6u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::NandReadError);
    EXPECT_EQ(plan.events[0].device, 2u);
    EXPECT_DOUBLE_EQ(plan.events[0].probability, 1e-3);
    EXPECT_EQ(plan.events[1].kind, FaultKind::NvmeTimeout);
    EXPECT_EQ(plan.events[1].device, kAllDevices);
    EXPECT_EQ(plan.events[2].kind, FaultKind::LinkDegrade);
    EXPECT_EQ(plan.events[2].device, 3u);
    EXPECT_DOUBLE_EQ(plan.events[2].at, 1.5);
    EXPECT_DOUBLE_EQ(plan.events[2].bw_multiplier, 0.5);
    EXPECT_EQ(plan.events[3].device, kUplinkTarget);
    EXPECT_EQ(plan.events[4].kind, FaultKind::DeviceFail);
    EXPECT_EQ(plan.events[4].device, 1u);
    EXPECT_EQ(plan.events[5].device, kAllDevices);
}

TEST(FaultPlanParse, EmptySpecYieldsEmptyPlan)
{
    EXPECT_TRUE(parseFaultPlan("").empty());
    EXPECT_TRUE(parseFaultPlan(" ; , ").empty());
}

TEST(FaultPlanParse, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseFaultPlan("bogus"), std::runtime_error);
    EXPECT_THROW(parseFaultPlan("nand-err=notanumber"),
                 std::runtime_error);
    EXPECT_THROW(parseFaultPlan("frobnicate=1"), std::runtime_error);
    EXPECT_THROW(parseFaultPlan("fail@2=devX"), std::runtime_error);
}

// --- FaultInjector ---

TEST(FaultInjector, EmptyPlanIsInactive)
{
    FaultInjector inj(FaultPlan{}, 8);
    EXPECT_FALSE(inj.active());
    EXPECT_EQ(inj.nandReadPenalty(0), 0.0);
    EXPECT_EQ(inj.nvmeCommand(0).retries, 0u);
    EXPECT_EQ(inj.stats().retry_time, 0.0);
}

TEST(FaultInjector, SameSeedSamePlanReproducesDraws)
{
    const FaultPlan plan =
        FaultPlan{}.addNandReadError(0.3).addNvmeTimeout(0.2);
    FaultInjector a(plan, 4);
    FaultInjector b(plan, 4);
    for (int i = 0; i < 200; i++) {
        for (unsigned dev = 0; dev < 4; dev++) {
            EXPECT_EQ(a.nandReadPenalty(dev), b.nandReadPenalty(dev));
            const auto oa = a.nvmeCommand(dev);
            const auto ob = b.nvmeCommand(dev);
            EXPECT_EQ(oa.extra_latency, ob.extra_latency);
            EXPECT_EQ(oa.retries, ob.retries);
            EXPECT_EQ(oa.failed, ob.failed);
        }
    }
    EXPECT_EQ(a.stats().nand_read_errors, b.stats().nand_read_errors);
    EXPECT_EQ(a.stats().nvme_timeouts, b.stats().nvme_timeouts);
    EXPECT_EQ(a.stats().retry_time, b.stats().retry_time);
    EXPECT_GT(a.stats().nand_read_errors, 0u);  // p=0.3 over 800 draws
}

TEST(FaultInjector, PerDeviceStreamsAreIndependent)
{
    const FaultPlan plan = FaultPlan{}.addNandReadError(0.5);
    FaultInjector a(plan, 2);
    FaultInjector b(plan, 2);
    // Interleave extra draws on device 0 of `a` only: device 1's
    // sequence must be unaffected.
    for (int i = 0; i < 50; i++)
        a.nandReadPenalty(0);
    for (int i = 0; i < 50; i++)
        EXPECT_EQ(a.nandReadPenalty(1), b.nandReadPenalty(1));
}

TEST(FaultInjector, ZeroProbabilityDrawsNothing)
{
    // A plan whose only event targets device 1 must leave device 0's
    // stream untouched (no RNG consumption, no stats).
    const FaultPlan plan = FaultPlan{}.addNandReadError(0.9, 1);
    FaultInjector inj(plan, 2);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(inj.nandReadPenalty(0), 0.0);
    EXPECT_EQ(inj.nvmeCommand(0).retries, 0u);
    EXPECT_EQ(inj.stats().nvme_timeouts, 0u);
}

// --- ConditionTimeline ---

TEST(ConditionTimeline, EmptyTimelineNeverChanges)
{
    const ConditionTimeline null_timeline;
    EXPECT_TRUE(null_timeline.empty());
    EXPECT_TRUE(null_timeline.changeTimes().empty());
    FaultPlan seeded;
    seeded.seed = 42;
    const ConditionTimeline tl(seeded, 8, 4);
    EXPECT_TRUE(tl.empty());
    EXPECT_EQ(tl.survivingDevices(1e9), 8u);
    EXPECT_FALSE(tl.deviceFailed(0, 1e9));
    EXPECT_DOUBLE_EQ(tl.linkDerate(0, 1e9), 1.0);
    EXPECT_DOUBLE_EQ(tl.uplinkDerate(1e9), 1.0);
    EXPECT_EQ(tl.servingHosts(1e9), 4u);
    EXPECT_EQ(tl.interHostDerate(1e9), 1.0);
    EXPECT_TRUE(std::isinf(tl.nextChangeAfter(0.0)));
}

TEST(ConditionTimeline, DeviceFailureTimeline)
{
    const FaultPlan plan = FaultPlan{}
                               .addDeviceFailure(2.0, 1)
                               .addDeviceFailure(5.0, 3);
    const ConditionTimeline tl(plan, 4);
    EXPECT_FALSE(tl.empty());
    EXPECT_EQ(tl.survivingDevices(0.0), 4u);
    EXPECT_FALSE(tl.deviceFailed(1, 1.99));
    EXPECT_TRUE(tl.deviceFailed(1, 2.0));
    EXPECT_EQ(tl.survivingDevices(2.0), 3u);
    EXPECT_EQ(tl.survivingDevices(5.0), 2u);
    EXPECT_DOUBLE_EQ(tl.deviceFailTime(1), 2.0);
    EXPECT_TRUE(std::isinf(tl.deviceFailTime(0)));
    const auto &times = tl.changeTimes();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(times[0], 2.0);
    EXPECT_DOUBLE_EQ(times[1], 5.0);
    EXPECT_DOUBLE_EQ(tl.nextChangeAfter(2.0), 5.0);
}

TEST(ConditionTimeline, DeratesCompoundAndActivateOnTime)
{
    const FaultPlan plan = FaultPlan{}
                               .addLinkDegrade(1.0, 0.5, 2)
                               .addLinkDegrade(3.0, 0.5, 2)
                               .addUplinkDegrade(2.0, 0.8);
    const ConditionTimeline tl(plan, 4);
    EXPECT_DOUBLE_EQ(tl.linkDerate(2, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(tl.linkDerate(2, 1.0), 0.5);
    EXPECT_DOUBLE_EQ(tl.linkDerate(2, 3.0), 0.25);
    EXPECT_DOUBLE_EQ(tl.linkDerate(0, 10.0), 1.0);  // other device
    EXPECT_DOUBLE_EQ(tl.uplinkDerate(1.0), 1.0);
    EXPECT_DOUBLE_EQ(tl.uplinkDerate(2.0), 0.8);
}

TEST(ConditionTimeline, FleetFailureKillsEveryDevice)
{
    const FaultPlan plan = FaultPlan{}.addFleetFailure(4.0);
    const ConditionTimeline tl(plan, 8);
    EXPECT_EQ(tl.survivingDevices(3.9), 8u);
    EXPECT_EQ(tl.survivingDevices(4.0), 0u);
}

TEST(ConditionTimeline, ProbabilitiesAccumulatePerDevice)
{
    const FaultPlan plan = FaultPlan{}
                               .addNandReadError(1e-3)
                               .addNandReadError(2e-3, 1)
                               .addNvmeTimeout(0.7, 0)
                               .addNvmeTimeout(0.7, 0);
    const ConditionTimeline tl(plan, 2);
    EXPECT_FALSE(tl.empty());
    EXPECT_TRUE(tl.changeTimes().empty());  // nothing timed
    EXPECT_DOUBLE_EQ(tl.nandErrorProbability(0), 1e-3);
    EXPECT_DOUBLE_EQ(tl.nandErrorProbability(1), 3e-3);
    EXPECT_DOUBLE_EQ(tl.nvmeTimeoutProbability(0), 1.0);  // capped
    EXPECT_DOUBLE_EQ(tl.nvmeTimeoutProbability(1), 0.0);
}

// --- BandwidthResource fault hooks ---

TEST(BandwidthFaults, OccupyAdvancesTheBusyHorizon)
{
    BandwidthResource res("link", 1.0 * GB, 0.0);
    const Seconds stall_end = res.occupy(0.0, 0.5);
    EXPECT_DOUBLE_EQ(stall_end, 0.5);
    // A transfer arriving during the stall waits for it.
    const Seconds done = res.transfer(0.0, 1 << 30);
    EXPECT_GE(done, 0.5 + res.serviceTime(1 << 30));
}

TEST(BandwidthFaults, ZeroDurationOccupyIsANoOp)
{
    BandwidthResource res("link", 1.0 * GB, 0.0);
    const Seconds t1 = res.transfer(0.0, 1 << 20);
    EXPECT_DOUBLE_EQ(res.occupy(0.0, 0.0), t1);
    EXPECT_DOUBLE_EQ(res.busyUntil(), t1);
}

// --- FaultPlan::validate ---

TEST(FaultPlanValidate, EmptyAndWellFormedPlansPass)
{
    EXPECT_TRUE(FaultPlan{}.validate().empty());
    const FaultPlan plan = FaultPlan{}
                               .addNandReadError(1e-3)
                               .addNvmeTimeout(1e-4, 2)
                               .addLinkDegrade(1.0, 0.5, 3)
                               .addUplinkDegrade(2.0, 0.8)
                               .addDeviceFailure(3.0, 1)
                               .addHostFailure(4.0, 0)
                               .addHostLinkDegrade(5.0, 0.6)
                               .addHostStall(6.0, 0.02, 1);
    EXPECT_TRUE(plan.validate().empty());
}

TEST(FaultPlanValidate, OneNamedDiagnosticPerViolation)
{
    FaultPlan plan;
    plan.addNandReadError(1.5);             // probability > 1
    plan.addNvmeTimeout(-0.1);              // probability < 0
    plan.addLinkDegrade(0.0, 0.0, 1);       // multiplier not in (0, 1]
    plan.addLinkDegrade(0.0, 1.5, 1);       // multiplier > 1
    plan.addDeviceFailure(-2.0, 1);         // negative activation time
    plan.addHostStall(1.0, -1.0, 0);        // negative duration
    const std::vector<std::string> diags = plan.validate();
    ASSERT_EQ(diags.size(), 6u);
    EXPECT_NE(diags[0].find("event[0] nand-read-error"), std::string::npos);
    EXPECT_NE(diags[0].find("outside [0, 1]"), std::string::npos);
    EXPECT_NE(diags[1].find("event[1] nvme-timeout"), std::string::npos);
    EXPECT_NE(diags[2].find("outside (0, 1]"), std::string::npos);
    EXPECT_NE(diags[3].find("outside (0, 1]"), std::string::npos);
    EXPECT_NE(diags[4].find("activation time"), std::string::npos);
    EXPECT_NE(diags[5].find("stall duration"), std::string::npos);
}

TEST(FaultPlanValidate, RejectsNonFiniteTimes)
{
    FaultPlan plan;
    plan.addDeviceFailure(std::numeric_limits<double>::quiet_NaN(), 0);
    plan.addHostStall(1.0, std::numeric_limits<double>::infinity(), 0);
    EXPECT_EQ(plan.validate().size(), 2u);
}

TEST(FaultPlanValidate, RejectsReservedSentinelGapTargets)
{
    FaultPlan plan;
    plan.addDeviceFailure(1.0, kMaxRealTarget);      // first gap index
    plan.addDeviceFailure(1.0, kUplinkTarget - 1);   // last gap index
    const std::vector<std::string> diags = plan.validate();
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_NE(diags[0].find("reserved sentinel gap"), std::string::npos);
    // The sentinels themselves stay valid.
    EXPECT_TRUE(FaultPlan{}
                    .addDeviceFailure(1.0, kAllDevices)
                    .validate()
                    .empty());
    EXPECT_TRUE(FaultPlan{}.addUplinkDegrade(1.0, 0.5).validate().empty());
}

TEST(FaultPlanValidate, CompoundDerateFloorPerLink)
{
    // Degrades on one link multiply. A plan may take each link down to
    // kMinCompoundDerate; one more event on that link drops it below.
    const struct {
        const char *diag;
        FaultPlan at_floor;
        FaultPlan below;
    } links[] = {
        {"compound chassis-uplink derate",
         FaultPlan{}.addUplinkDegrade(0.0, kMinCompoundDerate),
         FaultPlan{}
             .addUplinkDegrade(0.0, kMinCompoundDerate)
             .addUplinkDegrade(1.0, 0.999)},
        {"compound device-link derate",
         FaultPlan{}.addLinkDegrade(0.0, kMinCompoundDerate, 2),
         FaultPlan{}
             .addLinkDegrade(0.0, kMinCompoundDerate, 2)
             .addLinkDegrade(1.0, 0.999)},
        {"compound inter-host derate",
         FaultPlan{}.addHostLinkDegrade(0.0, kMinCompoundDerate),
         FaultPlan{}
             .addHostLinkDegrade(0.0, kMinCompoundDerate)
             .addHostLinkDegrade(1.0, 0.999)},
    };
    for (const auto &l : links) {
        EXPECT_TRUE(l.at_floor.validate().empty()) << l.diag;
        const std::vector<std::string> diags = l.below.validate();
        ASSERT_EQ(diags.size(), 1u) << l.diag;
        EXPECT_NE(diags[0].find(l.diag), std::string::npos) << diags[0];
    }
    // Derates on two different devices do not compound.
    EXPECT_TRUE(FaultPlan{}
                    .addLinkDegrade(0.0, kMinCompoundDerate, 1)
                    .addLinkDegrade(0.0, kMinCompoundDerate, 2)
                    .validate()
                    .empty());
    // 1,000 in-range halvings of the uplink: one diagnostic, for the
    // product.
    FaultPlan halved;
    for (int i = 0; i < 1000; ++i)
        halved.addUplinkDegrade(0.5, 0.5);
    EXPECT_EQ(halved.validate().size(), 1u);
}

TEST(FaultPlanValidate, RejectsUplinkSentinelAsHostTarget)
{
    FaultPlan plan;
    plan.addHostFailure(1.0, kUplinkTarget);
    const std::vector<std::string> diags = plan.validate();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].find("not a valid host target"), std::string::npos);
}

TEST(FaultPlanValidate, RejectsPerHostInterconnectDegrade)
{
    FaultPlan plan;
    plan.events.push_back(FaultEvent{FaultKind::HostLinkDegrade, 2u,
                                     1.0, 0.0, 0.5, 0.0});
    const std::vector<std::string> diags = plan.validate();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].find("shared"), std::string::npos);
}

TEST(FaultPlanValidate, GatesInjectorConstruction)
{
    FaultPlan bad;
    bad.addNandReadError(2.0);
    EXPECT_THROW(FaultInjector(bad, 4), std::runtime_error);
    EXPECT_THROW(ConditionTimeline(bad, 4), std::runtime_error);
    FaultPlan bad_host;
    bad_host.addHostStall(1.0, -5.0, 0);
    EXPECT_THROW(ConditionTimeline(bad_host, 8, 4), std::runtime_error);
}

// --- Host-scope plan surface ---

TEST(FaultPlanParse, ParsesHostScopeClauses)
{
    const FaultPlan plan = parseFaultPlan(
        "host-fail@2.5=1; host-degrade@3.0=0.6; host-stall@4.0=0.02:2; "
        "host-fail@9=all");
    ASSERT_EQ(plan.events.size(), 4u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::HostFail);
    EXPECT_EQ(plan.events[0].device, 1u);
    EXPECT_DOUBLE_EQ(plan.events[0].at, 2.5);
    EXPECT_EQ(plan.events[1].kind, FaultKind::HostLinkDegrade);
    EXPECT_DOUBLE_EQ(plan.events[1].bw_multiplier, 0.6);
    EXPECT_EQ(plan.events[2].kind, FaultKind::HostStall);
    EXPECT_EQ(plan.events[2].device, 2u);
    EXPECT_DOUBLE_EQ(plan.events[2].duration, 0.02);
    EXPECT_EQ(plan.events[3].device, kAllDevices);
}

TEST(ConditionTimeline, ChassisTimelineDropsHostEvents)
{
    FaultPlan plan;
    plan.addHostFailure(2.0, 1).addHostStall(3.0, 0.02, 0);
    // Without a host layer the host events are out of scope: they
    // neither change conditions nor cut epochs.
    const ConditionTimeline chassis(plan, 4);
    EXPECT_TRUE(chassis.empty());
    EXPECT_TRUE(chassis.changeTimes().empty());
    EXPECT_FALSE(chassis.allHostsStalled(3.0));
    const ConditionTimeline fleet(plan, 4, 2);
    EXPECT_EQ(fleet.changeTimes().size(), 3u);  // 2.0, 3.0, stall end
}

TEST(ConditionTimeline, HostEventsNeverFailDevices)
{
    FaultPlan plan;
    plan.addHostFailure(0.0, 0).addHostStall(0.0, 5.0, 1);
    const ConditionTimeline tl(plan, 4, 2);
    EXPECT_EQ(tl.survivingDevices(100.0), 4u);
    EXPECT_FALSE(tl.deviceFailed(0, 100.0));
    EXPECT_TRUE(tl.hostFailed(0, 100.0));
}

TEST(ConditionTimeline, DeviceAndHostEventsShareOneClock)
{
    FaultPlan plan;
    plan.addDeviceFailure(800.0, 3).addHostFailure(400.0, 1);
    const ConditionTimeline tl(plan, 8, 2);
    const std::vector<Seconds> expect = {400.0, 800.0};
    EXPECT_EQ(tl.changeTimes(), expect);
    EXPECT_EQ(tl.survivingDevices(800.0), 7u);
    EXPECT_EQ(tl.servingHosts(800.0), 1u);
}

TEST(ConditionTimeline, NoHostLeftIsNotAStall)
{
    FaultPlan plan;
    plan.addHostStall(10.0, 0.015, 0).addHostFailure(5.0, 1);
    const ConditionTimeline tl(plan, 8, 2);
    EXPECT_TRUE(tl.allHostsStalled(10.001));
    EXPECT_FALSE(tl.allHostsStalled(9.0));
    FaultPlan dead;
    dead.addHostFailure(1.0, kAllDevices);
    EXPECT_FALSE(ConditionTimeline(dead, 8, 2).allHostsStalled(2.0));
}

TEST(ConditionTimeline, HostFailureTimeline)
{
    FaultPlan plan;
    plan.addHostFailure(5.0, 1).addHostFailure(8.0, 3);
    const ConditionTimeline tl(plan, 8, 4);
    EXPECT_EQ(tl.servingHosts(0.0), 4u);
    EXPECT_FALSE(tl.hostFailed(1, 4.999));
    EXPECT_TRUE(tl.hostFailed(1, 5.0));
    EXPECT_EQ(tl.servingHosts(6.0), 3u);
    EXPECT_EQ(tl.servingHosts(9.0), 2u);
    EXPECT_EQ(tl.failedHosts(9.0), 2u);
    EXPECT_DOUBLE_EQ(tl.hostFailTime(1), 5.0);
    EXPECT_TRUE(std::isinf(tl.hostFailTime(0)));
}

TEST(ConditionTimeline, ShortStallRecoversAtProbeBoundary)
{
    FaultPlan plan;
    plan.addHostStall(10.0, 0.015, 2);  // 15 ms, inside the ladder
    const ConditionTimeline tl(plan, 8, 4);
    ASSERT_EQ(tl.stalls().size(), 1u);
    const StallWindow &w = tl.stalls().front();
    EXPECT_FALSE(w.escalated);
    EXPECT_DOUBLE_EQ(w.begin, 10.0);
    // Recovery is observed at the first timeout+backoff probe at or
    // after the stall's end, so the window outlasts the raw duration.
    EXPECT_GE(w.end, 10.015);
    EXPECT_LE(w.end - 10.0, plan.retry.ladderBudget() + 1e-12);
    EXPECT_TRUE(tl.hostStalled(2, 10.001));
    EXPECT_FALSE(tl.hostStalled(2, w.end + 1e-9));
    EXPECT_FALSE(tl.hostFailed(2, 1e9));
    EXPECT_EQ(tl.servingHosts(10.001), 3u);
    EXPECT_EQ(tl.stalledHosts(10.001), 1u);
    const ConditionTimeline::StallTally tally =
        tl.recoveredStallsBefore(1e9);
    EXPECT_EQ(tally.stalls, 1u);
    EXPECT_DOUBLE_EQ(tally.time, w.end - w.begin);
    EXPECT_EQ(tl.recoveredStallsBefore(10.0).stalls, 0u);
}

TEST(ConditionTimeline, LongStallEscalatesToFailure)
{
    FaultPlan plan;
    plan.addHostStall(10.0, 60.0, 2);  // far past the retry ladder
    const ConditionTimeline tl(plan, 8, 4);
    const Seconds budget = plan.retry.ladderBudget();
    EXPECT_LT(budget, 60.0);
    ASSERT_EQ(tl.stalls().size(), 1u);
    EXPECT_TRUE(tl.stalls().front().escalated);
    EXPECT_FALSE(tl.hostFailed(2, 10.0 + budget - 1e-9));
    EXPECT_TRUE(tl.hostFailed(2, 10.0 + budget + 1e-9));
    // Failed hosts are not additionally counted as stalled.
    EXPECT_EQ(tl.stalledHosts(10.0 + budget + 1e-9), 0u);
    EXPECT_EQ(tl.recoveredStallsBefore(1e9).stalls, 0u);
}

TEST(RetryPolicy, LadderBudgetIsTimeoutPlusBackoffSum)
{
    RetryPolicy rp;
    rp.nvme_max_attempts = 3;
    rp.nvme_timeout = msec(10);
    rp.backoff_base = msec(1);
    rp.backoff_multiplier = 2.0;
    rp.backoff_cap = msec(50);
    // Two retries: (10 + 1) + (10 + 2) ms.
    EXPECT_DOUBLE_EQ(rp.ladderBudget(), msec(23));
    EXPECT_DOUBLE_EQ(rp.probeRecovery(msec(5)), msec(11));
    EXPECT_DOUBLE_EQ(rp.probeRecovery(msec(100)), msec(23));
}

TEST(ConditionTimeline, InterHostDeratesCompound)
{
    FaultPlan plan;
    plan.addHostLinkDegrade(2.0, 0.5).addHostLinkDegrade(4.0, 0.8);
    const ConditionTimeline tl(plan, 8, 2);
    EXPECT_DOUBLE_EQ(tl.interHostDerate(1.0), 1.0);
    EXPECT_DOUBLE_EQ(tl.interHostDerate(3.0), 0.5);
    EXPECT_DOUBLE_EQ(tl.interHostDerate(5.0), 0.4);
}

TEST(ConditionTimeline, ChangeTimesSortedAndUnique)
{
    FaultPlan plan;
    plan.addHostFailure(8.0, 1)
        .addHostLinkDegrade(2.0, 0.5)
        .addHostStall(4.0, 0.01, 0)
        .addHostLinkDegrade(2.0, 0.9);
    const ConditionTimeline tl(plan, 8, 4);
    const std::vector<Seconds> &times = tl.changeTimes();
    ASSERT_GE(times.size(), 4u);  // 2.0, 4.0, stall end, 8.0
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_GT(times[i], times[i - 1]);
    EXPECT_DOUBLE_EQ(times.front(), 2.0);
}

TEST(ConditionTimeline, DeviceTargetBeyondTheFleetIsAUserError)
{
    // Nothing upstream checks a device index against the engine's
    // device count, so the plan's author hears of it, not a panic.
    FaultPlan plan;
    plan.addDeviceFailure(1.0, 8);
    EXPECT_THROW(ConditionTimeline(plan, 8, 0), std::runtime_error);
    EXPECT_NO_THROW(ConditionTimeline(plan, 9, 0));
}

TEST(ConditionTimeline, RejectsHostTargetBeyondFleet)
{
    FaultPlan plan;
    plan.addHostFailure(1.0, 7);
    EXPECT_DEATH(ConditionTimeline(plan, 8, 4), "host");
}

}  // namespace
}  // namespace hilos

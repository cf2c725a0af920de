/**
 * @file
 * Integration tests for fault injection through the runtime: the
 * zero-fault regression invariant, degraded-mode analytic execution,
 * the decode plan priced at a point of a faulted run, slice-oracle
 * determinism under faults, and report surfacing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/hilos.h"
#include "runtime/report.h"
#include "runtime/step_plan.h"
#include "support/serialize.h"
#include "support/slice_sim.h"

namespace hilos {
namespace {

using test::HilosEventSimulator;
using test::EventSimResult;

RunConfig
makeRun(std::uint64_t context = 32768)
{
    RunConfig run;
    run.model = opt66b();
    run.batch = 16;
    run.context_len = context;
    run.output_len = 64;
    return run;
}

HilosOptions
makeOpts(unsigned devices, const FaultPlan &plan = FaultPlan{})
{
    HilosOptions opts;
    opts.num_devices = devices;
    opts.fault_plan = plan;
    return opts;
}

// --- Invariant: a zero-fault plan reproduces today's results exactly ---

TEST(FaultIntegration, ZeroFaultPlanMatchesSeedEngineExactly)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    const HilosEngine plain(sys, makeOpts(8));
    FaultPlan empty_plan;
    empty_plan.seed = 987654321;  // a seed alone must change nothing
    const HilosEngine with_plan(sys, makeOpts(8, empty_plan));

    const RunResult a = plain.run(run);
    const RunResult b = with_plan.run(run);
    EXPECT_EQ(a.decode_step_time, b.decode_step_time);
    EXPECT_EQ(a.prefill_time, b.prefill_time);
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.breakdown.sum(), b.breakdown.sum());
    EXPECT_EQ(a.traffic.host_read_bytes, b.traffic.host_read_bytes);
    EXPECT_EQ(a.traffic.internal_bytes, b.traffic.internal_bytes);
    EXPECT_EQ(a.busy.storage, b.busy.storage);
    EXPECT_EQ(a.energy.total(), b.energy.total());
    EXPECT_FALSE(b.faults.any());
    EXPECT_EQ(b.breakdown.get("fault_retry"), 0.0);
}

TEST(FaultIntegration, ZeroFaultPlanEventSimByteIdentical)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    const HilosEventSimulator plain(sys, makeOpts(8));
    const HilosEventSimulator with_plan(sys, makeOpts(8, FaultPlan{}));
    const EventSimResult a = plain.simulateDecodeStep(run);
    const EventSimResult b = with_plan.simulateDecodeStep(run);
    EXPECT_EQ(a.decode_step_time, b.decode_step_time);
    EXPECT_EQ(a.uplink_utilization, b.uplink_utilization);
    EXPECT_EQ(a.internal_utilization, b.internal_utilization);
    EXPECT_EQ(a.layer_times, b.layer_times);
    EXPECT_TRUE(b.completed);
    EXPECT_EQ(b.redispatched_slices, 0u);
}

// --- Determinism ---

TEST(FaultIntegration, EventSimDeterministicUnderFaults)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    FaultPlan plan =
        FaultPlan{}.addNandReadError(5e-3).addNvmeTimeout(1e-3);
    plan.seed = 2024;
    const HilosEventSimulator sim(sys, makeOpts(8, plan));
    const EventSimResult a = sim.simulateDecodeStep(run);
    const EventSimResult b = sim.simulateDecodeStep(run);
    EXPECT_EQ(a.decode_step_time, b.decode_step_time);
    EXPECT_EQ(a.layer_times, b.layer_times);
    EXPECT_EQ(a.nand_read_errors, b.nand_read_errors);
    EXPECT_EQ(a.nvme_timeouts, b.nvme_timeouts);
    EXPECT_EQ(a.nvme_retries, b.nvme_retries);
    EXPECT_EQ(a.retry_time, b.retry_time);
    EXPECT_GT(a.nand_read_errors, 0u);
}

TEST(FaultIntegration, AnalyticEngineDeterministicUnderFaults)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    const FaultPlan plan = FaultPlan{}
                               .addNandReadError(1e-3)
                               .addDeviceFailure(100.0, 3);
    const HilosEngine engine(sys, makeOpts(8, plan));
    const RunResult a = engine.run(run);
    const RunResult b = engine.run(run);
    EXPECT_EQ(a.decode_step_time, b.decode_step_time);
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.faults.retry_time, b.faults.retry_time);
    EXPECT_EQ(a.faults.rebuild_time, b.faults.rebuild_time);
}

// --- Probabilistic faults slow things down, availability stays 1 ---

TEST(FaultIntegration, NandErrorsSlowTheEventSim)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    // Force alpha = 0 so every KV slice streams from the SmartSSDs and
    // the NSP read path (where ECC retries land) binds the step.
    HilosOptions clean_opts = makeOpts(8);
    clean_opts.alpha_override = 0.0;
    HilosOptions faulty_opts =
        makeOpts(8, FaultPlan{}.addNandReadError(5e-2));
    faulty_opts.alpha_override = 0.0;
    const HilosEventSimulator clean(sys, clean_opts);
    const HilosEventSimulator faulty(sys, faulty_opts);
    const EventSimResult a = clean.simulateDecodeStep(run);
    const EventSimResult b = faulty.simulateDecodeStep(run);
    EXPECT_GT(b.decode_step_time, a.decode_step_time);
    EXPECT_GT(b.retry_time, 0.0);
    EXPECT_EQ(b.devices_failed, 0u);
}

TEST(FaultIntegration, RetryFaultsReportedByAnalyticEngine)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    const HilosEngine engine(
        sys, makeOpts(8, FaultPlan{}.addNandReadError(1e-3)));
    const RunResult r = engine.run(run);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(r.faults.any());
    EXPECT_GT(r.faults.retry_time, 0.0);
    EXPECT_GT(r.faults.nand_read_errors, 0u);
    EXPECT_GE(r.faults.slowdown, 1.0);
    EXPECT_DOUBLE_EQ(r.faults.availability, 1.0);
    EXPECT_GT(r.breakdown.get("fault_retry"), 0.0);
}

// --- Mid-run device failure: graceful degradation ---

TEST(FaultIntegration, MidRunFailureMatchesSurvivingFleetModel)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    const HilosEngine clean(sys, makeOpts(8));
    const RunResult base = clean.run(run);
    ASSERT_TRUE(base.feasible);

    // Fail device 3 a third of the way through decode.
    const Seconds fail_at =
        base.prefill_time + 20.0 * base.decode_step_time;
    const HilosEngine faulty(
        sys, makeOpts(8, FaultPlan{}.addDeviceFailure(fail_at, 3)));
    const RunResult r = faulty.run(run);
    ASSERT_TRUE(r.feasible) << r.note;
    EXPECT_EQ(r.faults.devices_failed, 1u);
    EXPECT_EQ(r.faults.devices_surviving, 7u);
    EXPECT_GT(r.faults.rebuild_time, 0.0);
    EXPECT_GT(r.faults.slowdown, 1.0);
    EXPECT_LT(r.faults.availability, 1.0);
    EXPECT_GT(r.faults.availability, 7.0 / 8.0 - 1e-9);
    EXPECT_GT(r.total_time, base.total_time);

    // The degraded step must match the analytic model of the surviving
    // 7-device fleet within the cross-validation tolerance band.
    const HilosEngine seven(sys, makeOpts(7));
    const RunResult s = seven.run(run);
    const double ratio = r.faults.degraded_step_time / s.decode_step_time;
    EXPECT_GT(ratio, 0.95);
    EXPECT_LT(ratio, 1.05);
}

// --- The epoch fold ---

TEST(FaultIntegration, EventsAfterTheMakespanLeaveTheRunUnchanged)
{
    // Every timed event falls after the run ends: the fold walks one
    // epoch under healthy conditions and serves exactly the fault-free
    // result, apart from the fault bookkeeping.
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    const RunResult clean = HilosEngine(sys, makeOpts(8)).run(run);
    ASSERT_TRUE(clean.feasible);
    const Seconds late = 2.0 * clean.total_time;
    const FaultPlan plan = FaultPlan{}
                               .addDeviceFailure(late, 3)
                               .addUplinkDegrade(late, 0.5)
                               .addLinkDegrade(late, 0.5, 1);
    RunResult r = HilosEngine(sys, makeOpts(8, plan)).run(run);
    ASSERT_TRUE(r.feasible) << r.note;
    EXPECT_EQ(r.faults.devices_surviving, 8u);
    EXPECT_EQ(r.faults.slowdown, 1.0);
    r.faults = clean.faults;
    EXPECT_EQ(test::serialize(r), test::serialize(clean));
}

TEST(FaultIntegration, EarlyDeviceLossLengthensTheRun)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    const RunResult clean = HilosEngine(sys, makeOpts(8)).run(run);
    // Device 0 dies during prefill: decode runs on seven after a rebuild.
    const RunResult r =
        HilosEngine(sys, makeOpts(8, FaultPlan{}.addDeviceFailure(1.0, 0)))
            .run(run);
    ASSERT_TRUE(r.feasible) << r.note;
    EXPECT_EQ(r.faults.devices_surviving, 7u);
    EXPECT_GT(r.faults.rebuild_time, 0.0);
    EXPECT_GT(r.total_time, clean.total_time);
    EXPECT_GT(r.total_time, clean.prefill_time +
                                static_cast<double>(run.output_len) *
                                    clean.decode_step_time +
                                r.faults.rebuild_time - 1e-9);
}

TEST(FaultIntegration, EventSimRedispatchesSlicesOffFailedDevice)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    const HilosEventSimulator sim(
        sys, makeOpts(8, FaultPlan{}.addDeviceFailure(0.0, 2)));
    const EventSimResult r = sim.simulateDecodeStep(run);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.devices_failed, 1u);
    EXPECT_GT(r.redispatched_slices, 0u);
    EXPECT_GT(r.decode_step_time, 0.0);
}

// --- The decode plan a faulted engine prices at a given time ---

TEST(FaultIntegration, DecodeStepPlanAtWithoutFaultsIsTheIdealPlan)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    FaultPlan empty_plan;
    empty_plan.seed = 987654321;
    const HilosEngine engine(sys, makeOpts(8, empty_plan));
    const std::string ideal = test::serialize(engine.decodeStepPlan(run));
    EXPECT_EQ(test::serialize(engine.decodeStepPlanAt(run, 0.0)), ideal);
    EXPECT_EQ(test::serialize(engine.decodeStepPlanAt(run, 1e6)), ideal);
}

TEST(FaultIntegration, DecodeStepPlanAtPricesTheSurvivingFleet)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    const Seconds mid = HilosEngine(sys, makeOpts(8)).run(run).prefill_time +
                        1.0;
    const HilosEngine engine(
        sys, makeOpts(8, FaultPlan{}.addDeviceFailure(mid, 3)));

    const StepPlan before = engine.decodeStepPlanAt(run, 0.0);
    ASSERT_TRUE(before.feasible) << before.note;
    EXPECT_EQ(before.instancesOf(PlanResource::Storage), 8u);

    const RunResult r = engine.run(run);
    ASSERT_TRUE(r.feasible) << r.note;
    const StepPlan after = engine.decodeStepPlanAt(run, r.total_time);
    ASSERT_TRUE(after.feasible) << after.note;
    EXPECT_EQ(after.instancesOf(PlanResource::Storage), 7u);
    // The plan is the one the epoch fold priced for the last epoch.
    EXPECT_EQ(evaluatePlan(after).decode_step_time,
              r.faults.degraded_step_time);
}

TEST(FaultIntegration, DecodeStepPlanAtWithNoSurvivorIsInfeasible)
{
    const SystemConfig sys = defaultSystem();
    const HilosEngine engine(
        sys, makeOpts(8, FaultPlan{}.addFleetFailure(2.0)));
    EXPECT_TRUE(engine.decodeStepPlanAt(makeRun(), 1.0).feasible);
    const StepPlan dead = engine.decodeStepPlanAt(makeRun(), 2.0);
    EXPECT_FALSE(dead.feasible);
    EXPECT_NE(dead.note.find("no surviving"), std::string::npos);
}

// --- Degenerate plan: every device failed ---

TEST(FaultIntegration, AllDevicesFailedYieldsClearError)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();

    // Failure before the run starts.
    const HilosEngine at_start(
        sys, makeOpts(8, FaultPlan{}.addFleetFailure(0.0)));
    const RunResult r0 = at_start.run(run);
    EXPECT_FALSE(r0.feasible);
    EXPECT_NE(r0.note.find("no surviving"), std::string::npos);
    EXPECT_FALSE(std::isnan(r0.decode_step_time));
    EXPECT_FALSE(std::isnan(r0.total_time));
    EXPECT_EQ(r0.faults.devices_surviving, 0u);

    // Failure mid-run.
    const HilosEngine clean(sys, makeOpts(8));
    const Seconds mid = clean.run(run).prefill_time + 1.0;
    const HilosEngine mid_fail(
        sys, makeOpts(8, FaultPlan{}.addFleetFailure(mid)));
    const RunResult r1 = mid_fail.run(run);
    EXPECT_FALSE(r1.feasible);
    EXPECT_NE(r1.note.find("all SmartSSDs failed"), std::string::npos);
    EXPECT_FALSE(std::isnan(r1.total_time));

    // The event simulator reports rather than dividing by zero.
    const HilosEventSimulator sim(
        sys, makeOpts(8, FaultPlan{}.addFleetFailure(0.0)));
    const EventSimResult es = sim.simulateDecodeStep(run);
    EXPECT_FALSE(es.completed);
    EXPECT_FALSE(es.note.empty());
}

// --- Degradation events ---

TEST(FaultIntegration, LinkDegradeSlowsTheRunWithoutFailures)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun();
    const RunResult base = HilosEngine(sys, makeOpts(8)).run(run);
    const RunResult r =
        HilosEngine(sys,
                    makeOpts(8, FaultPlan{}.addLinkDegrade(0.0, 0.5)))
            .run(run);
    ASSERT_TRUE(r.feasible);
    EXPECT_GT(r.decode_step_time, base.decode_step_time);
    EXPECT_EQ(r.faults.devices_failed, 0u);
    EXPECT_DOUBLE_EQ(r.faults.availability, 1.0);
    EXPECT_GT(r.faults.slowdown, 1.0);
}

// --- Report surfacing ---

TEST(FaultIntegration, ReportSurfacesFaultColumns)
{
    const SystemConfig sys = defaultSystem();
    ReportConfig rc;
    rc.models = {"OPT-66B"};
    rc.contexts = {16384};
    rc.device_counts = {8};

    const std::string clean_md = runEvaluation(sys, rc).toMarkdown();
    EXPECT_EQ(clean_md.find("Fault resilience"), std::string::npos);

    rc.fault_plan = FaultPlan{}.addNandReadError(1e-3);
    const EvaluationReport faulted = runEvaluation(sys, rc);
    const std::string md = faulted.toMarkdown();
    EXPECT_NE(md.find("Fault resilience"), std::string::npos);
    bool saw_faulted_entry = false;
    for (const ReportEntry &e : faulted.entries)
        saw_faulted_entry = saw_faulted_entry || e.faulted;
    EXPECT_TRUE(saw_faulted_entry);
}

}  // namespace
}  // namespace hilos

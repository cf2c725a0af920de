/**
 * @file
 * Fleet subsystem tests: FleetConfig validation, scheduler placement
 * policies, the identity invariants (one healthy host == HilosEngine,
 * empty plan == byte-identical serialization), the fleet's StepPlans
 * against its analytic model, node-loss recovery
 * (graceful degradation, cascades, stalls), and analytic-vs-event-sim
 * agreement at fleet scope.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/hilos.h"
#include "runtime/fleet_engine.h"
#include "runtime/plan_cache.h"
#include "support/oracles.h"
#include "support/serialize.h"

namespace hilos {
namespace {

RunConfig
smallRun()
{
    RunConfig run;
    run.model = opt66b();
    run.batch = 16;
    run.context_len = 16384;
    run.output_len = 32;
    return run;
}

FleetConfig
fleetOf(unsigned hosts, unsigned devices = 8)
{
    FleetConfig fc;
    fc.hosts = hosts;
    fc.devices_per_host = devices;
    return fc;
}

/** Fail host `h` at a time that is mid-decode for this workload. */
Seconds
midDecode(const SystemConfig &sys, const FleetConfig &fc,
          const RunConfig &run)
{
    const RunResult healthy = FleetEngine(sys, fc).run(run);
    return healthy.prefill_time +
           (static_cast<double>(run.output_len) / 2.0) *
               healthy.decode_step_time;
}

// --- FleetConfig validation ---

TEST(FleetConfig, DefaultIsValid)
{
    EXPECT_TRUE(FleetConfig{}.validate().empty());
}

TEST(FleetConfig, RejectsOutOfRangeShape)
{
    FleetConfig fc;
    fc.hosts = 0;
    EXPECT_EQ(fc.validate().size(), 1u);
    fc.hosts = 65;
    EXPECT_EQ(fc.validate().size(), 1u);
    fc = FleetConfig{};
    fc.devices_per_host = 0;
    EXPECT_EQ(fc.validate().size(), 1u);
    fc.devices_per_host = 17;
    EXPECT_EQ(fc.validate().size(), 1u);
}

TEST(FleetConfig, RejectsAllSpareFaultAwareFleet)
{
    FleetConfig fc;
    fc.hosts = 2;
    fc.policy = PlacementPolicy::FaultAware;
    fc.spare_hosts = 2;
    const std::vector<std::string> diags = fc.validate();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].find("spare"), std::string::npos);
    // Other policies ignore the spare count entirely.
    fc.policy = PlacementPolicy::Spread;
    EXPECT_TRUE(fc.validate().empty());
}

TEST(FleetConfig, RejectsBadInterconnectNumbers)
{
    FleetConfig fc;
    fc.inter_host_bw = 0.0;
    EXPECT_EQ(fc.validate().size(), 1u);
    fc = FleetConfig{};
    fc.inter_host_latency = -1.0;
    EXPECT_EQ(fc.validate().size(), 1u);
}

TEST(FleetConfig, RejectsHostEventBeyondFleet)
{
    FleetConfig fc = fleetOf(2);
    fc.fault_plan.addHostFailure(1.0, 5);
    const std::vector<std::string> diags = fc.validate();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].find("targets host 5"), std::string::npos);
}

TEST(FleetConfig, CarriesFaultPlanDiagnostics)
{
    FleetConfig fc = fleetOf(2);
    fc.fault_plan.addNandReadError(2.0);
    ASSERT_EQ(fc.validate().size(), 1u);
    EXPECT_NE(fc.validate()[0].find("probability"), std::string::npos);
}

TEST(FleetConfig, EngineConstructionGatedOnValidation)
{
    FleetConfig fc = fleetOf(2);
    fc.fault_plan.addHostFailure(1.0, 5);
    EXPECT_THROW(FleetEngine(defaultSystem(), fc), std::runtime_error);
}

// --- Scheduler policies ---

TEST(FleetScheduler, SpreadSplitsEvenlyWithRemainderFirst)
{
    const SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const FleetScheduler sched(sys, opts, PlacementPolicy::Spread, 0);
    const FleetPlacement p = sched.place(smallRun(), 14, 0b1111);
    EXPECT_EQ(p.placed_batch, 14u);
    EXPECT_EQ(p.serving_hosts, 4u);
    ASSERT_EQ(p.assignments.size(), 4u);
    EXPECT_EQ(p.assignments[0].batch, 4u);
    EXPECT_EQ(p.assignments[1].batch, 4u);
    EXPECT_EQ(p.assignments[2].batch, 3u);
    EXPECT_EQ(p.assignments[3].batch, 3u);
    EXPECT_EQ(p.maxHostBatch(), 4u);
}

TEST(FleetScheduler, PackFillsHostsInIndexOrder)
{
    const SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const FleetScheduler sched(sys, opts, PlacementPolicy::Pack, 0);
    const RunConfig run = smallRun();
    const std::uint64_t cap = sched.hostCapacity(run);
    ASSERT_GT(cap, 0u);
    // More work than one host's capacity: host 0 fills, host 1 takes
    // the spill, later hosts idle.
    const FleetPlacement p = sched.place(run, cap + 1, 0b111);
    EXPECT_EQ(p.assignments[0].batch, cap);
    EXPECT_EQ(p.assignments[1].batch, 1u);
    EXPECT_EQ(p.assignments[2].batch, 0u);
    EXPECT_EQ(p.serving_hosts, 2u);
}

TEST(FleetScheduler, FaultAwareReservesHighestIndexSpares)
{
    const SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const FleetScheduler sched(sys, opts, PlacementPolicy::FaultAware, 1);
    const FleetPlacement p = sched.place(smallRun(), 12, 0b1111);
    EXPECT_EQ(p.spare_hosts, 1u);
    EXPECT_EQ(p.serving_hosts, 3u);
    ASSERT_EQ(p.assignments.size(), 4u);
    EXPECT_TRUE(p.assignments[3].spare);
    EXPECT_EQ(p.assignments[3].batch, 0u);
    EXPECT_EQ(p.placed_batch, 12u);
}

TEST(FleetScheduler, FaultAwareNeverReservesTheLastHost)
{
    const SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const FleetScheduler sched(sys, opts, PlacementPolicy::FaultAware, 2);
    // Only one host alive: it must serve, spares notwithstanding.
    const FleetPlacement p = sched.place(smallRun(), 8, 0b010);
    EXPECT_EQ(p.spare_hosts, 0u);
    EXPECT_EQ(p.serving_hosts, 1u);
    EXPECT_EQ(p.placed_batch, 8u);
}

TEST(FleetScheduler, DropsBeyondFleetCapacity)
{
    const SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const FleetScheduler sched(sys, opts, PlacementPolicy::Spread, 0);
    const RunConfig run = smallRun();
    const std::uint64_t cap = sched.hostCapacity(run);
    const FleetPlacement p = sched.place(run, 2 * cap + 5, 0b11);
    EXPECT_EQ(p.placed_batch, 2 * cap);
    EXPECT_EQ(p.dropped_batch, 5u);
}

TEST(FleetScheduler, PolicyNamesRoundTrip)
{
    for (PlacementPolicy p :
         {PlacementPolicy::Spread, PlacementPolicy::Pack,
          PlacementPolicy::FaultAware}) {
        EXPECT_EQ(parsePlacementPolicy(placementPolicyName(p)), p);
    }
    EXPECT_THROW(parsePlacementPolicy("bogus"), std::runtime_error);
}

// --- Identity invariants ---

TEST(FleetEngine, OneHostEmptyPlanIsBitIdenticalToHilosEngine)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    HilosOptions opts;
    opts.num_devices = 8;
    const RunResult host = HilosEngine(sys, opts).run(run);
    const RunResult fleet = FleetEngine(sys, fleetOf(1)).run(run);
    EXPECT_EQ(fleet.decode_step_time, host.decode_step_time);
    EXPECT_EQ(fleet.prefill_time, host.prefill_time);
    EXPECT_EQ(fleet.total_time, host.total_time);
    EXPECT_EQ(fleet.traffic.host_read_bytes,
              host.traffic.host_read_bytes);
    EXPECT_EQ(fleet.energy.total(), host.energy.total());
    // The fleet result additionally carries its summary.
    EXPECT_TRUE(fleet.fleet.any());
    EXPECT_FALSE(host.fleet.any());
}

TEST(FleetEngine, EmptyPlanSerializationIsByteIdenticalAcrossRuns)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    const FleetEngine engine(sys, fleetOf(4));
    const std::string a = test::serialize(engine.run(run));
    const std::string b = test::serialize(engine.run(run));
    EXPECT_EQ(a, b);
    // A seeded-but-empty plan must not perturb the fleet either.
    FleetConfig seeded = fleetOf(4);
    seeded.fault_plan.seed = 987654321;
    EXPECT_EQ(test::serialize(FleetEngine(sys, seeded).run(run)), a);
}

TEST(FleetEngine, HealthyFleetScalesThroughputWithHosts)
{
    const SystemConfig sys = defaultSystem();
    RunConfig run = smallRun();
    const RunResult one = FleetEngine(sys, fleetOf(1)).run(run);
    run.batch = 2 * smallRun().batch;
    const RunResult two = FleetEngine(sys, fleetOf(2)).run(run);
    ASSERT_TRUE(one.feasible && two.feasible);
    // Data-parallel: double the hosts serve double the batch at (near)
    // the same step; coordination costs a little.
    EXPECT_GT(two.decodeThroughput(), 1.9 * one.decodeThroughput());
    EXPECT_GE(two.decode_step_time, one.decode_step_time);
    EXPECT_EQ(two.fleet.availability, 1.0);
    EXPECT_EQ(two.fleet.hosts_failed, 0u);
}

// --- Fleet plans ---

TEST(FleetPlan, HealthyPlanEvaluatesToTheAnalyticStep)
{
    // The fleet's decode plan is the priced form of run()'s healthy
    // step: host plan at the largest share plus the coordination tail
    // op, evaluated in the same order, so the two agree bit-for-bit.
    const SystemConfig sys = defaultSystem();
    unsigned compared = 0;
    for (unsigned hosts : {1u, 2u, 3u, 4u, 8u}) {
        for (unsigned devices : {4u, 8u, 16u}) {
            const FleetEngine fe(sys, fleetOf(hosts, devices));
            for (std::uint64_t batch : {1ull, 5ull, 16ull, 33ull, 64ull}) {
                for (std::uint64_t context : {2048ull, 16384ull, 65536ull}) {
                    RunConfig run = smallRun();
                    run.batch = batch;
                    run.context_len = context;
                    const RunResult r = fe.run(run);
                    const StepPlan plan = fe.decodeStepPlan(run);
                    const std::string shape =
                        fe.name() + " batch " + std::to_string(batch) +
                        " context " + std::to_string(context);
                    ASSERT_EQ(plan.feasible, r.feasible) << shape;
                    if (!r.feasible)
                        continue;
                    EXPECT_TRUE(plan.validate().empty()) << shape;
                    const PlanEvaluation ev = evaluatePlan(plan);
                    EXPECT_EQ(ev.decode_step_time, r.decode_step_time)
                        << shape;
                    EXPECT_EQ(ev.breakdown.get("inter_host_sync"),
                              r.breakdown.get("inter_host_sync"))
                        << shape;
                    compared++;
                }
            }
        }
    }
    EXPECT_GT(compared, 100u);
}

TEST(FleetPlan, OneHostPlansSerializeAsHilosEngines)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    HilosOptions opts;
    opts.num_devices = 8;
    const HilosEngine host(sys, opts);
    const FleetEngine fleet(sys, fleetOf(1));
    EXPECT_EQ(test::serialize(fleet.decodeStepPlan(run)),
              test::serialize(host.decodeStepPlan(run)));
    EXPECT_EQ(test::serialize(fleet.prefillStepPlan(run)),
              test::serialize(host.prefillStepPlan(run)));
    EXPECT_EQ(test::serialize(fleet.prefillStepPlan(run, 1, 4)),
              test::serialize(host.prefillStepPlan(run, 1, 4)));
}

TEST(FleetPlan, PlanAtEachEpochStartEvaluatesToItsStep)
{
    // After a mid-run host loss the plan at each epoch's start is that
    // epoch's analytic step: the survivors' placement, the host plan
    // and the coordination over the link at that time.
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    FleetConfig fc = fleetOf(4);
    fc.fault_plan.addHostFailure(midDecode(sys, fc, run), 1);
    const FleetEngine fe(sys, fc);
    const RunResult r = fe.run(run);
    ASSERT_TRUE(r.feasible) << r.note;
    ASSERT_GE(r.fleet.epochs.size(), 2u);
    for (const FleetEpoch &ep : r.fleet.epochs)
        EXPECT_EQ(evaluatePlan(fe.decodeStepPlanAt(run, ep.start))
                      .decode_step_time,
                  ep.step_time)
            << "epoch at " << ep.start.value();
    EXPECT_NE(r.fleet.epochs.back().step_time,
              r.fleet.epochs.front().step_time);
}

// --- Node-loss recovery ---

TEST(FleetEngine, HostLossDegradesGracefully)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    FleetConfig fc = fleetOf(4);
    const Seconds mid = midDecode(sys, fc, run);
    fc.fault_plan.addHostFailure(mid, 2);
    const RunResult r = FleetEngine(sys, fc).run(run);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.fleet.hosts_failed, 1u);
    EXPECT_LT(r.fleet.availability, 1.0);
    EXPECT_GT(r.fleet.availability, 0.0);
    EXPECT_GT(r.fleet.rebuild_bytes, 0.0);
    EXPECT_GT(r.fleet.rebuild_time, 0.0);
    EXPECT_GT(r.fleet.slowdown, 1.0);
    EXPECT_GE(r.fleet.epochs.size(), 2u);
    EXPECT_EQ(r.faults.requests_degraded, run.batch);
    EXPECT_EQ(r.faults.requests_failed, 0u);
    // Epochs account for every output token.
    std::uint64_t tokens = 0;
    for (const FleetEpoch &ep : r.fleet.epochs)
        tokens += ep.tokens;
    EXPECT_EQ(tokens, run.output_len);
}

TEST(FleetEngine, RebuildChargesLostKvOverInterHostLink)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    FleetConfig fc = fleetOf(4);
    const Seconds mid = midDecode(sys, fc, run);
    fc.fault_plan.addHostFailure(mid, 0);
    const RunResult r = FleetEngine(sys, fc).run(run);
    ASSERT_TRUE(r.feasible);
    // Spread places 16 over 4 hosts -> the lost host held 4 requests;
    // rebuild time is those bytes over the healthy inter-host link.
    const Bytes lost = r.fleet.rebuild_bytes;
    EXPECT_GT(lost, 0.0);
    EXPECT_NEAR(r.fleet.rebuild_time,
                lost / FleetConfig{}.inter_host_bw, 1e-9);
    // A degraded interconnect stretches the same rebuild.
    FleetConfig slow = fc;
    slow.fault_plan = FaultPlan{};
    slow.fault_plan.addHostLinkDegrade(0.0, 0.5).addHostFailure(mid, 0);
    const RunResult rs = FleetEngine(sys, slow).run(run);
    ASSERT_TRUE(rs.feasible);
    EXPECT_NEAR(rs.fleet.rebuild_time / r.fleet.rebuild_time, 2.0,
                0.01);
}

TEST(FleetEngine, CascadeDuringRebuildChargesBothRebuilds)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    FleetConfig fc = fleetOf(4);
    const Seconds mid = midDecode(sys, fc, run);
    fc.fault_plan.addHostFailure(mid, 1);
    const RunResult one_loss = FleetEngine(sys, fc).run(run);
    ASSERT_TRUE(one_loss.feasible);
    // The second host dies inside the first rebuild window: the next
    // epoch re-evaluates, sees the cascade, and charges another
    // rebuild for the requests the second host had taken over.
    FleetConfig cascade = fleetOf(4);
    cascade.fault_plan.addHostFailure(mid, 1).addHostFailure(
        mid + 0.5 * one_loss.fleet.rebuild_time, 2);
    const RunResult r = FleetEngine(sys, cascade).run(run);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.fleet.hosts_failed, 2u);
    EXPECT_GT(r.fleet.rebuild_bytes, one_loss.fleet.rebuild_bytes);
    EXPECT_GT(r.fleet.rebuild_time, one_loss.fleet.rebuild_time);
    EXPECT_LT(r.fleet.availability, one_loss.fleet.availability);
}

/**
 * FleetEngine::rebuildPlanAt without its nothing-lost shortcut, built
 * from the public pieces the fleet composes: the placement held since
 * `since`, the host engine's shard rebuild at that share, and the KV of
 * the requests homed on hosts lost by `now`, re-homed over the
 * inter-host link at the prompt's length.
 */
StepPlan
slowFleetRebuild(const SystemConfig &sys, const FleetConfig &fc,
                 const RunConfig &cfg, Seconds since, Seconds now,
                 std::uint64_t done)
{
    const ConditionTimeline fleet_timeline(fc.fault_plan,
                                           fc.devices_per_host, fc.hosts);
    if (fleet_timeline.failedHosts(now) >= fc.hosts)
        return StepPlan{};
    HilosOptions host_opts;
    host_opts.num_devices = fc.devices_per_host;
    host_opts.fault_plan = fc.fault_plan;
    std::uint64_t serving = 0;
    for (unsigned h = 0; h < fc.hosts; h++) {
        if (!fleet_timeline.hostFailed(h, since) &&
            !fleet_timeline.hostStalled(h, since))
            serving |= std::uint64_t{1} << h;
    }
    const FleetPlacement held =
        FleetScheduler(sys, host_opts, fc.policy, fc.spare_hosts)
            .place(cfg, cfg.batch, serving);
    RunConfig share = cfg;
    share.batch = held.maxHostBatch();
    StepPlan plan =
        HilosEngine(sys, host_opts).rebuildPlanAt(share, since, now, done);
    std::uint64_t lost_batch = 0;
    for (const HostAssignment &a : held.assignments) {
        if (fleet_timeline.hostFailed(a.host, now))
            lost_batch += a.batch;
    }
    if (lost_batch == 0)
        return plan;
    const Bytes lost = cfg.model.kvBytesTotal(lost_batch, cfg.context_len);
    const Bandwidth bw =
        fc.inter_host_bw * fleet_timeline.interHostDerate(now);
    plan.declareStage("host_rebuild");
    plan.declareResource(PlanResource::InterNode, 1);
    plan.addTailOp(transferOp(PlanResource::InterNode, "host_rebuild",
                              lost / bw, lost)
                       .stageTag("host_rebuild"));
    return plan;
}

TEST(FleetEngine, RebuildPlanMatchesTheSlowPathAtEveryEpochBoundary)
{
    // rebuildPlanAt skips the placement when no host and no host device
    // was lost since `since`. Between every pair of epoch boundaries
    // and condition changes of the faulted fleets (the golden's host
    // loss with a stall and a degraded link, a device loss, a cascade
    // of two host losses), its plan is the slow path's, and both kinds
    // of result (nothing to rebuild, a rebuild) occur.
    const SystemConfig sys = defaultSystem();
    RunConfig golden_run = smallRun();
    golden_run.context_len = 32768;
    golden_run.output_len = 64;
    FleetConfig golden = fleetOf(4);
    golden.fault_plan = parseFaultPlan(
        "seed=7;host-fail@400=1;host-stall@350=0.02:2;"
        "host-degrade@300=0.8");
    const RunConfig run = smallRun();
    FleetConfig device_loss = fleetOf(2);
    device_loss.fault_plan.addDeviceFailure(midDecode(sys, device_loss, run),
                                            3);
    FleetConfig cascade = fleetOf(4);
    const Seconds mid = midDecode(sys, cascade, run);
    cascade.fault_plan.addHostFailure(mid, 1).addHostFailure(mid + 1.0, 2);

    std::size_t empty = 0;
    std::size_t rebuilt = 0;
    for (const auto &[fc, cfg] : {std::pair{golden, golden_run},
                                  std::pair{device_loss, run},
                                  std::pair{cascade, run}}) {
        const FleetEngine fe(sys, fc);
        const RunResult r = fe.run(cfg);
        ASSERT_TRUE(r.feasible) << r.note;
        std::vector<Seconds> times = {Seconds(0.0)};
        for (const FleetEpoch &ep : r.fleet.epochs)
            times.push_back(ep.start);
        for (const Seconds t : fe.timeline().changeTimes())
            times.push_back(t);
        for (const Seconds since : times) {
            for (const Seconds now : times) {
                if (now < since)
                    continue;
                for (const std::uint64_t done : {std::uint64_t{0},
                                                 cfg.output_len / 2}) {
                    const StepPlan got =
                        fe.rebuildPlanAt(cfg, since, now, done);
                    EXPECT_EQ(test::serialize(got),
                              test::serialize(slowFleetRebuild(
                                  sys, fc, cfg, since, now, done)))
                        << "since " << since << " now " << now;
                    if (got.tail_ops.empty())
                        empty++;
                    else
                        rebuilt++;
                }
            }
        }
    }
    EXPECT_GT(empty, 0u);
    EXPECT_GT(rebuilt, 0u);
}

TEST(FleetEngine, DeviceFailAndLinkDegradeSameEpoch)
{
    // Device-scope faults apply to that device on every host and share
    // the fleet's timeline with host-scope events.
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    FleetConfig fc = fleetOf(2);
    const Seconds mid = midDecode(sys, fc, run);
    fc.fault_plan.addDeviceFailure(mid, 3).addLinkDegrade(mid, 0.5, 1);
    const RunResult r = FleetEngine(sys, fc).run(run);
    ASSERT_TRUE(r.feasible);
    // Both events are device-scope: the fleet stays healthy while each
    // host's FaultSummary shows the degradation.
    EXPECT_EQ(r.fleet.hosts_failed, 0u);
    EXPECT_EQ(r.fleet.availability, 1.0);
    EXPECT_EQ(r.faults.devices_failed, 1u);
    EXPECT_GT(r.faults.rebuild_time, 0.0);
    const RunResult clean = FleetEngine(sys, fleetOf(2)).run(run);
    EXPECT_GT(r.decode_step_time, clean.decode_step_time);
}

TEST(FleetEngine, DeviceLossCutsAFleetEpochOnTheSharedClock)
{
    // A device-scope failure is an event on the fleet's own timeline:
    // decode cuts at it, and the slowdown and degraded step are the
    // fleet's, measured against the healthy fleet.
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    FleetConfig fc = fleetOf(2);
    const Seconds mid = midDecode(sys, fc, run);
    fc.fault_plan.addDeviceFailure(mid, 3);
    const FleetEngine fe(sys, fc);
    const RunResult r = fe.run(run);
    ASSERT_TRUE(r.feasible) << r.note;
    ASSERT_EQ(r.fleet.epochs.size(), 2u);
    const FleetEpoch &before = r.fleet.epochs.front();
    const FleetEpoch &after = r.fleet.epochs.back();
    // The first epoch runs until the step that crosses the failure.
    const double crossed =
        before.start.value() +
        static_cast<double>(before.tokens) * before.step_time.value();
    EXPECT_GE(crossed, mid.value());
    EXPECT_LT(crossed - before.step_time.value(), mid.value());
    EXPECT_GE(after.start, mid);
    EXPECT_GT(after.step_time, before.step_time);

    const RunResult healthy = FleetEngine(sys, fleetOf(2)).run(run);
    EXPECT_EQ(before.step_time, healthy.decode_step_time);
    EXPECT_DOUBLE_EQ(r.fleet.slowdown,
                     r.decode_step_time / healthy.decode_step_time);
    EXPECT_GT(r.fleet.slowdown, 1.0);
    EXPECT_EQ(r.fleet.degraded_step_time, after.step_time);
    EXPECT_GT(r.fleet.rebuild_time, 0.0);
    EXPECT_GT(r.total_time, healthy.total_time);
}

TEST(FleetEngine, EventsAfterTheMakespanLeaveTheRunUnchanged)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    const RunResult clean = FleetEngine(sys, fleetOf(3)).run(run);
    ASSERT_TRUE(clean.feasible);
    const Seconds late = 2.0 * clean.total_time;
    FleetConfig fc = fleetOf(3);
    fc.fault_plan.addHostFailure(late, 1)
        .addHostStall(late, 0.02, 2)
        .addHostLinkDegrade(late, 0.5)
        .addDeviceFailure(late, 3)
        .addUplinkDegrade(late, 0.5);
    RunResult r = FleetEngine(sys, fc).run(run);
    ASSERT_TRUE(r.feasible) << r.note;
    ASSERT_EQ(r.fleet.epochs.size(), 1u);
    r.faults = clean.faults;
    r.fleet = clean.fleet;
    EXPECT_EQ(test::serialize(r), test::serialize(clean));
}

TEST(FleetEngine, EarlyDeviceLossLengthensTheRun)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    const RunResult clean = FleetEngine(sys, fleetOf(2)).run(run);
    FleetConfig fc = fleetOf(2);
    fc.fault_plan.addDeviceFailure(1.0, 0);
    const RunResult r = FleetEngine(sys, fc).run(run);
    ASSERT_TRUE(r.feasible) << r.note;
    EXPECT_EQ(r.faults.devices_surviving, 7u);
    EXPECT_GT(r.fleet.rebuild_time, 0.0);
    EXPECT_GT(r.total_time, clean.total_time);
}

TEST(FleetEngine, StallRecoversWithoutLosingAHost)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    FleetConfig fc = fleetOf(2);
    const Seconds mid = midDecode(sys, fc, run);
    fc.fault_plan.addHostStall(mid, 0.02, 1);  // inside the ladder
    const RunResult r = FleetEngine(sys, fc).run(run);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.fleet.hosts_failed, 0u);
    EXPECT_EQ(r.fleet.host_stalls, 1u);
    EXPECT_GT(r.fleet.stall_time, 0.0);
    EXPECT_EQ(r.fleet.rebuild_bytes, 0.0);
    EXPECT_EQ(r.faults.requests_degraded, run.batch);
    // The retry window is pure lost time: the run finishes later than
    // the clean fleet but with every host intact.
    const RunResult clean = FleetEngine(sys, fleetOf(2)).run(run);
    EXPECT_GT(r.total_time, clean.total_time);
}

TEST(FleetEngine, StallEscalatesPastLadderIntoNodeLoss)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    FleetConfig fc = fleetOf(2);
    const Seconds mid = midDecode(sys, fc, run);
    fc.fault_plan.addHostStall(mid, 30.0, 1);  // far past the ladder
    const RunResult r = FleetEngine(sys, fc).run(run);
    ASSERT_TRUE(r.feasible);
    // The ladder never recovers a 30s stall: the host is charged as a
    // permanent loss and the fleet finishes on the survivor. (Whether
    // a shard rebuild is also charged depends on whether the stall
    // boundary migrated the load off the host before it died.)
    EXPECT_EQ(r.fleet.hosts_failed, 1u);
    EXPECT_LT(r.fleet.availability, 1.0);
    ASSERT_FALSE(r.fleet.epochs.empty());
    EXPECT_EQ(r.fleet.epochs.back().hosts_serving, 1u);
}

TEST(FleetEngine, AllHostsFailedIsAClearErrorNotANan)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    FleetConfig fc = fleetOf(2);
    const Seconds mid = midDecode(sys, fc, run);
    fc.fault_plan.addHostFailure(mid, kAllDevices);
    const FleetEngine fe(sys, fc);
    const RunResult r = fe.run(run);
    EXPECT_FALSE(r.feasible);
    EXPECT_FALSE(r.note.empty());
    EXPECT_FALSE(std::isnan(r.total_time));
    EXPECT_EQ(r.faults.requests_failed, run.batch);
    EXPECT_LT(r.fleet.availability, 1.0);
    // Past the loss there is no plan to price or replay either.
    const StepPlan dead = fe.decodeStepPlanAt(run, mid + 1.0);
    EXPECT_FALSE(dead.feasible);
    EXPECT_FALSE(dead.note.empty());
    EXPECT_EQ(fe.simulatedDecodeStep(run, mid + 1.0), 0.0);
}

TEST(FleetEngine, ARunNoHostCanHoldRunsNoHost)
{
    // Past every host's capacity nothing is placed: the whole-run
    // accounting once priced a batch-0 host run and panicked in the
    // writeback model.
    const SystemConfig sys = defaultSystem();
    RunConfig run = smallRun();
    run.output_len = 30'000'000;
    const RunResult r = FleetEngine(sys, fleetOf(2)).run(run);
    EXPECT_EQ(r.effective_batch, 0u);
    EXPECT_EQ(r.energy.total(), 0.0);
    // It is reported infeasible, as a single host reports it, not as a
    // feasible run with a 0 s decode step.
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.note, "no host can serve a share of this workload");
}

TEST(FleetEngine, UnplaceableRebuildInAPlanCacheIsInfeasible)
{
    // Serving rebuilds a fleet's plans in a PlanCache. A request no
    // host can hold once replaced the cached plan wholesale, which
    // left rebuild mode and panicked in finishRebuild.
    const SystemConfig sys = defaultSystem();
    const FleetEngine fe(sys, fleetOf(2));
    const RunConfig fits = smallRun();
    RunConfig huge = fits;
    huge.context_len = 30'000'000;
    for (const PlanPhase phase : {PlanPhase::Decode, PlanPhase::Prefill}) {
        PlanCache cache;
        const std::uint64_t key =
            PlanCache::keyOf(fe.name(), fits.model.name, phase);
        const auto build = [&](const RunConfig &run) -> const StepPlan & {
            return cache.build(key, [&](StepPlan &plan) {
                RunResult res;
                if (phase == PlanPhase::Decode)
                    fe.buildDecodePlan(run, res, plan);
                else
                    fe.buildPrefillPlan(run, 0, 1, plan);
            });
        };
        EXPECT_TRUE(build(fits).feasible);
        const StepPlan &unplaced = build(huge);
        EXPECT_FALSE(unplaced.feasible);
        EXPECT_EQ(unplaced.phase, phase);
        EXPECT_EQ(unplaced.note, "no host can serve a share of this workload");
        EXPECT_EQ(cache.stats().mismatches, 1u);
        // The infeasible plan is itself a cached topology to rebuild.
        EXPECT_FALSE(build(huge).feasible);
        EXPECT_EQ(cache.stats().hits, 1u);
        EXPECT_TRUE(build(fits).feasible);
    }
}

TEST(FleetEngine, FaultAwareSpareAbsorbsALoss)
{
    // Two hosts, one in reserve: losing the serving host promotes the
    // spare, so the serving count is unchanged across the loss.
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    FleetConfig fc = fleetOf(2);
    fc.policy = PlacementPolicy::FaultAware;
    fc.spare_hosts = 1;
    const Seconds mid = midDecode(sys, fc, run);
    fc.fault_plan.addHostFailure(mid, 0);
    const RunResult r = FleetEngine(sys, fc).run(run);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.fleet.hosts_failed, 1u);
    EXPECT_GE(r.fleet.spares_activated, 1u);
    EXPECT_GT(r.fleet.rebuild_bytes, 0.0);
    ASSERT_GE(r.fleet.epochs.size(), 2u);
    EXPECT_EQ(r.fleet.epochs.front().hosts_serving, 1u);
    EXPECT_EQ(r.fleet.epochs.back().hosts_serving, 1u);
    // Reserving a host costs availability even while healthy.
    EXPECT_LT(r.fleet.availability, 1.0);
}

TEST(FleetEngine, DeterministicPerSeed)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    FleetConfig fc = fleetOf(4);
    fc.fault_plan.seed = 1234;
    fc.fault_plan.addNandReadError(1e-3)
        .addHostFailure(midDecode(sys, fleetOf(4), run), 2)
        .addHostStall(1.0, 0.01, 0);
    const std::string a =
        test::serialize(FleetEngine(sys, fc).run(run));
    const std::string b =
        test::serialize(FleetEngine(sys, fc).run(run));
    EXPECT_EQ(a, b);
    // A different seed may sample different probabilistic draws but
    // never changes the host-scope timeline.
    fc.fault_plan.seed = 99;
    const RunResult r = FleetEngine(sys, fc).run(run);
    EXPECT_EQ(r.fleet.hosts_failed, 1u);
    EXPECT_EQ(r.fleet.host_stalls, 1u);
}

// --- Backend agreement and the fuzz oracle hook ---

TEST(FleetEngine, EventSimAgreesOnHealthyAndDegradedSteps)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = smallRun();
    FleetConfig fc = fleetOf(4);
    const Seconds mid = midDecode(sys, fc, run);
    fc.fault_plan.addHostFailure(mid, 1);
    const FleetEngine engine(sys, fc);
    const RunResult r = engine.run(run);
    ASSERT_TRUE(r.feasible);
    ASSERT_GE(r.fleet.epochs.size(), 2u);
    const FleetEpoch &first = r.fleet.epochs.front();
    const FleetEpoch &last = r.fleet.epochs.back();
    const double healthy =
        engine.simulatedDecodeStep(run, first.start) / first.step_time;
    const double degraded =
        engine.simulatedDecodeStep(run, last.start) / last.step_time;
    EXPECT_GT(healthy, 0.4);
    EXPECT_LT(healthy, 2.5);
    EXPECT_GT(degraded, 0.4);
    EXPECT_LT(degraded, 2.5);
}

TEST(FleetOracle, PassesOnSampledSeeds)
{
    for (std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull}) {
        const test::OracleOutcome out = test::runFleetOracle(seed);
        EXPECT_TRUE(out.ok) << out.reproLine("fleet");
    }
}

TEST(FleetOracle, DetectsASkewedAnalyticModel)
{
    // The validation harness must be able to fail: a 3x analytic skew
    // on a fault-free fleet case lands far outside the band.
    bool detected = false;
    for (std::uint64_t seed = 0; seed < 12 && !detected; seed++) {
        const test::OracleOutcome out = test::runFleetOracle(
            seed, test::Perturbation::SkewAnalytic);
        detected = !out.ok && !out.skipped;
    }
    EXPECT_TRUE(detected);
}

// --- Facade and report integration ---

TEST(FleetFacade, MakeFleetEngineRunsTheFleet)
{
    const SystemConfig sys = defaultSystem();
    const auto engine = makeFleetEngine(sys, fleetOf(2));
    EXPECT_EQ(engine->name(), "Fleet(2x8,spread)");
    const RunResult r = engine->run(smallRun());
    EXPECT_TRUE(r.feasible);
    EXPECT_TRUE(r.fleet.any());
    EXPECT_EQ(r.fleet.hosts, 2u);
}

// --- The epoch fold's plan cache ---

/**
 * A faulted 8-host fleet (a host lost and another stalled mid-decode)
 * and a faulted single HILOS, each cutting its decode into several
 * epochs. In both, device 2 sees NAND read errors until it fails
 * mid-decode, so the decode plans before the loss carry a fault-retry
 * op and those after it do not: two topologies, which only plans keyed
 * by their condition segment rebuild in place.
 */
struct FaultedPair {
    RunConfig run = smallRun();
    FleetConfig fleet = fleetOf(8);
    HilosOptions hilos;

    explicit FaultedPair(const SystemConfig &sys)
    {
        run.batch = 16 * fleet.hosts;
        const Seconds mid = midDecode(sys, fleet, run);
        fleet.fault_plan.addNandReadError(1e-3, 2)
            .addDeviceFailure(0.8 * mid, 2)
            .addHostFailure(mid, 3)
            .addHostStall(1.2 * mid, 0.02, 5);
        const RunResult healthy = HilosEngine(sys, hilos).run(smallRun());
        hilos.fault_plan.addNandReadError(1e-3, 2).addDeviceFailure(
            healthy.prefill_time + 8.0 * healthy.decode_step_time, 2);
    }
};

TEST(FaultedRunCache, RunMatchesAColdAWarmAndAClearedCache)
{
    // run() re-prices a faulted run's plans through a per-thread
    // PlanCache. A fresh thread starts it empty; the results must not
    // depend on what it holds, including after churn has cleared it.
    const SystemConfig sys = defaultSystem();
    const FaultedPair pair(sys);
    const FleetEngine fleet(sys, pair.fleet);
    const HilosEngine hilos(sys, pair.hilos);
    const auto both = [&] {
        return test::serialize(fleet.run(pair.run)) +
               test::serialize(hilos.run(smallRun()));
    };
    std::string cold;
    std::thread([&] { cold = both(); }).join();
    ASSERT_NE(cold.find("hosts_failed = 1"), std::string::npos) << cold;

    std::string warm;
    std::string cleared;
    std::thread([&] {
        (void)both();
        warm = both();
        // Distinct engines and models key distinct entries: 64 faulted
        // configs hold several hundred plans, past the entries the
        // cache keeps before it is cleared wholesale.
        for (const ModelConfig &model :
             {opt30b(), opt66b(), opt175b(), qwen32b()})
            for (unsigned devices = 1; devices <= 16; ++devices) {
                HilosOptions opts = pair.hilos;
                opts.num_devices = devices;
                opts.fault_plan = FaultPlan{}.addNandReadError(1e-3);
                RunConfig run = smallRun();
                run.model = model;
                (void)HilosEngine(sys, opts).run(run);
            }
        cleared = both();
    }).join();
    EXPECT_EQ(warm, cold);
    EXPECT_EQ(cleared, cold);
}

TEST(FaultedRunCache, SecondRunCachedRebuildsEveryPlanInPlace)
{
    const SystemConfig sys = defaultSystem();
    const FaultedPair pair(sys);
    const FleetEngine fleet(sys, pair.fleet);
    const HilosEngine hilos(sys, pair.hilos);
    const auto check = [](const InferenceEngine &engine,
                          const RunConfig &run) {
        PlanCache cache;
        const std::string first =
            test::serialize(engine.runCached(run, cache));
        const PlanCache::Stats before = cache.stats();
        EXPECT_EQ(test::serialize(engine.runCached(run, cache)), first);
        const PlanCache::Stats &after = cache.stats();
        EXPECT_EQ(after.misses, before.misses) << engine.name();
        EXPECT_EQ(after.mismatches, 0u) << engine.name();
        EXPECT_GT(after.hits, before.hits) << engine.name();
        EXPECT_EQ(first, test::serialize(engine.run(run))) << engine.name();
    };
    check(fleet, pair.run);
    check(hilos, smallRun());
}

}  // namespace
}  // namespace hilos

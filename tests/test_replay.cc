/**
 * @file
 * Bitwise tests of the plan replay (simulatePlan). Every engine's
 * decode and prefill plans, a faulted HILOS plan, a fleet plan and
 * hand-built plans that stress pool striping replay to the same bits
 * and the same trace as the reference replay in
 * support/reference_replay.h; and recording a trace never changes a
 * replay result.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hilos.h"
#include "runtime/event_sim.h"
#include "runtime/fleet_engine.h"
#include "sim/fault.h"
#include "support/reference_replay.h"

namespace hilos {
namespace {

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectSameTimes(const std::vector<Seconds> &a, const std::vector<Seconds> &b,
                const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(bits(a[i]), bits(b[i])) << what << " [" << i << "]";
}

void
expectSameUtil(const std::vector<std::pair<std::string, double>> &a,
               const std::vector<std::pair<std::string, double>> &b,
               const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].first, b[i].first) << what << " [" << i << "]";
        EXPECT_EQ(bits(a[i].second), bits(b[i].second))
            << what << " " << a[i].first;
    }
}

/** Every PlanSimResult field equal, bit for bit. */
void
expectSameResult(const PlanSimResult &a, const PlanSimResult &b,
                 const std::string &what)
{
    EXPECT_EQ(bits(a.decode_step_time), bits(b.decode_step_time)) << what;
    EXPECT_EQ(bits(a.layered_end), bits(b.layered_end)) << what;
    expectSameTimes(a.layer_times, b.layer_times, what + " layer_times");
    expectSameTimes(a.first_layer_finish, b.first_layer_finish,
                    what + " first_layer_finish");
    expectSameUtil(a.resource_utilization, b.resource_utilization,
                   what + " resource_utilization");
    expectSameUtil(a.unit_utilization, b.unit_utilization,
                   what + " unit_utilization");
}

/** simulatePlan and the reference agree on results and traces. */
void
expectMatchesReference(const StepPlan &plan, const std::string &what)
{
    expectSameResult(simulatePlan(plan), test::referenceSimulatePlan(plan),
                     what);
    TraceRecorder got, want;
    expectSameResult(simulatePlan(plan, &got),
                     test::referenceSimulatePlan(plan, &want),
                     what + " traced");
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const TraceEvent &g = got.events()[i];
        const TraceEvent &w = want.events()[i];
        EXPECT_EQ(g.track, w.track) << what << " event " << i;
        EXPECT_EQ(g.name, w.name) << what << " event " << i;
        EXPECT_EQ(bits(g.begin), bits(w.begin)) << what << " event " << i;
        EXPECT_EQ(bits(g.end), bits(w.end)) << what << " event " << i;
    }
}

RunConfig
runOf(const ModelConfig &model, std::uint64_t batch, std::uint64_t context)
{
    RunConfig run;
    run.model = model;
    run.batch = batch;
    run.context_len = context;
    run.output_len = 64;
    return run;
}

TEST(ReplayDifferential, EveryEnginePlanMatchesTheReference)
{
    const SystemConfig sys = defaultSystem();
    int replayed = 0;
    for (const EngineName &e : kEngineNames)
        for (const ModelConfig &model : {opt66b(), opt175b()}) {
            const RunConfig run = runOf(model, 16, 32768);
            const std::string what =
                std::string(e.name) + " " + model.name;
            for (const StepPlan &plan :
                 {decodeStepPlanFor(e.kind, sys, run),
                  prefillStepPlanFor(e.kind, sys, run)}) {
                if (!plan.feasible)
                    continue;
                expectMatchesReference(
                    plan, what + " " + planPhaseName(plan.phase));
                replayed++;
            }
        }
    // Only a few engine/model pairs run out of memory.
    EXPECT_GE(replayed, 18);
}

/**
 * True when a timed op (seconds > 0) fans out over a count that is not
 * a multiple of its pool's instances: the plan replays that pool
 * expanded, one slot per instance.
 */
bool
hasUnevenTimedOp(const StepPlan &plan)
{
    for (const StepOpView op : plan.layer_ops)
        if (op.seconds > 0.0 &&
            op.fanout % plan.instancesOf(op.resource) != 0)
            return true;
    return false;
}

TEST(ReplayDifferential, FaultedHilosPlanMatchesTheReference)
{
    // Two of eight devices lost at t = 0 plus NAND read errors: the
    // survivors' timed ops fan out 6-wide over the 6 remaining
    // instances, and the read-retry op (timed once errors occur) fans
    // out over one of them, so its pool replays expanded.
    HilosOptions opts;
    opts.fault_plan = parseFaultPlan("nand-err=1e-3;fail@0=0;fail@0=5");
    const auto engine = makeEngine(EngineKind::Hilos, defaultSystem(), opts);
    const StepPlan plan =
        engine->decodeStepPlanAt(runOf(opt66b(), 16, 32768), 1.0);
    ASSERT_TRUE(plan.feasible) << plan.note;
    EXPECT_TRUE(hasUnevenTimedOp(plan)) << "no timed op fans out unevenly";
    expectMatchesReference(plan, "hilos after fail@0");
}

TEST(ReplayDifferential, FleetPlanMatchesTheReference)
{
    FleetConfig fc;
    fc.hosts = 2;
    fc.devices_per_host = 8;
    const auto fleet = makeFleetEngine(defaultSystem(), fc);
    const RunConfig run = runOf(opt66b(), 32, 32768);
    const StepPlan decode = fleet->decodeStepPlan(run);
    ASSERT_TRUE(decode.feasible) << decode.note;
    ASSERT_FALSE(decode.tail_ops.empty());
    expectMatchesReference(decode, "2-host fleet decode");
    expectMatchesReference(fleet->prefillStepPlan(run, 0, 1),
                           "2-host fleet prefill");
}

/**
 * A three-layer plan on an 8-instance P2P pool: `first` and `second`
 * are fanouts of two chained timed ops, the second shorter so replicas
 * queue behind the first op's on shared instances.
 */
StepPlan
stripedPlan(std::uint64_t first, std::uint64_t second,
            Seconds first_seconds = 2.0)
{
    StepPlan plan;
    plan.layers = 3;
    plan.declareStage("read");
    plan.declareResource(PlanResource::P2p, 8);
    const std::size_t a = plan.addOp(
        transferOp(PlanResource::P2p, "a", first_seconds, 1.0)
            .stageTag("read")
            .withFanout(first));
    plan.addOp(transferOp(PlanResource::P2p, "b", 0.75, 1.0)
                   .stageTag("read")
                   .withFanout(second)
                   .dep(a));
    plan.addOp(computeOp(ComputeUnit::Gpu, "c", 0.5).stageTag("read"));
    return plan;
}

TEST(ReplayDifferential, UnevenFanoutMatchesTheReference)
{
    expectMatchesReference(stripedPlan(3, 3), "fanout 3 on 8");
    expectMatchesReference(stripedPlan(8, 3), "fanout 8 then 3 on 8");
    expectMatchesReference(stripedPlan(12, 8), "fanout 12 then 8 on 8");
    expectMatchesReference(stripedPlan(16, 12), "fanout 16 then 12 on 8");
}

TEST(ReplayDifferential, ZeroFanoutMatchesTheReference)
{
    // addOp refuses fanout 0; a plan assembled field by field can hold
    // it, and its replicas-free op finishes at its ready time.
    StepPlan plan = stripedPlan(8, 8);
    StepOp op = plan.layer_ops.get(0);
    op.fanout = 0;
    plan.layer_ops.set(0, op);
    expectMatchesReference(plan, "fanout 0");
}

TEST(ReplayDifferential, ZeroDurationOpThenUnevenFanoutMatches)
{
    // A zero-duration fanout-8 op leaves a symmetric pool symmetric;
    // the fanout-3 op after it must still see every instance's horizon.
    expectMatchesReference(stripedPlan(8, 3, 0.0), "zero fanout-8 then 3");
    expectMatchesReference(stripedPlan(3, 8, 0.0), "zero fanout-3 then 8");
}

TEST(ReplayDifferential, OpRolesOnPooledResourcesMatchTheReference)
{
    StepPlan plan;
    plan.layers = 4;
    plan.declareStage("load");
    plan.declareStage("work");
    plan.declareResource(PlanResource::Storage, 4);
    plan.declareResource(PlanResource::HostPcie, 1);
    const std::size_t load = plan.addOp(
        transferOp(PlanResource::Storage, "load", 1.5, 1.0)
            .stageTag("load")
            .withFanout(4)
            .asPrefetch());
    const std::size_t work =
        plan.addOp(computeOp(ComputeUnit::Gpu, "work", 1.0)
                       .stageTag("work")
                       .dep(load));
    plan.addOp(transferOp(PlanResource::Storage, "race", 3.0, 1.0)
                   .withFanout(6)
                   .dep(load)
                   .asShadow());
    plan.addOp(transferOp(PlanResource::HostPcie, "spill", 5.0, 1.0)
                   .stageTag("load")
                   .asOffline());
    plan.addOp(transferOp(PlanResource::Storage, "commit", 0.25, 1.0)
                   .stageTag("work")
                   .withFanout(2)
                   .dep(work));
    expectMatchesReference(plan, "prefetch/shadow/offline roles");
}

TEST(ReplayDifferential, TailOpOnACollapsedPoolMatchesTheReference)
{
    // The layer op occupies all 8 instances evenly, so the pool stays
    // collapsed until the tail op lands on instance 0 alone.
    StepPlan plan = stripedPlan(8, 16);
    plan.declareStage("sync");
    plan.addTailOp(transferOp(PlanResource::P2p, "sync", 0.5, 1.0)
                       .stageTag("sync"));
    plan.addTailOp(computeOp(ComputeUnit::None, "wait", 0.25)
                       .stageTag("sync"));
    expectMatchesReference(plan, "tail on a collapsed pool");
}

/**
 * Whether a timed transfer op's fanout does not fill its pool evenly,
 * so the replay expands that pool instead of collapsing it.
 */
bool
expandsAPool(const StepPlan &plan)
{
    for (const StepOpView op : plan.layer_ops)
        if (op.op_kind == StepOp::Kind::Transfer && !op.offline &&
            !op.shadow && op.seconds > 0.0 &&
            op.fanout % plan.instancesOf(op.resource) != 0)
            return true;
    return false;
}

/** Replica intervals the replay records for `plan`. */
std::size_t
expectedEvents(const StepPlan &plan)
{
    std::uint64_t replicas = 0;
    for (const StepOpView op : plan.layer_ops) {
        const bool pooled = op.op_kind == StepOp::Kind::Transfer
                                ? op.resource != PlanResource::None
                                : op.unit != ComputeUnit::None;
        if (pooled && !op.offline && !op.shadow)
            replicas += op.fanout;
    }
    return plan.layers * replicas + plan.tail_ops.size();
}

TEST(ReplayTrace, RecordingLeavesEveryResultBitUnchanged)
{
    // The traced and untraced replays are one body compiled with two
    // recorders: compare them on collapsed pools (every engine's decode
    // and prefill plans, a healthy fleet) and on expanded ones (HILOS
    // prefill; a HILOS step after two device losses and a fleet step
    // after a host loss, each with NAND errors, whose timed fanout-1
    // retry op no longer collapses).
    const SystemConfig sys = defaultSystem();
    const RunConfig run = runOf(opt66b(), 16, 32768);
    std::vector<std::pair<std::string, StepPlan>> plans;
    for (const EngineName &e : kEngineNames) {
        const auto engine = makeEngine(e.kind, sys);
        plans.emplace_back(std::string(e.name) + " decode",
                           engine->decodeStepPlanAt(run, 0.0));
        plans.emplace_back(std::string(e.name) + " prefill",
                           engine->prefillStepPlan(run, 0, 1));
    }
    HilosOptions opts;
    opts.fault_plan = parseFaultPlan("nand-err=1e-3;fail@0=0;fail@0=5");
    plans.emplace_back(
        "hilos after fail@0",
        makeEngine(EngineKind::Hilos, sys, opts)->decodeStepPlanAt(run, 1.0));
    FleetConfig fc;
    fc.hosts = 2;
    fc.devices_per_host = 8;
    plans.emplace_back("fleet x2",
                       makeFleetEngine(sys, fc)->decodeStepPlanAt(run, 0.0));
    fc.fault_plan = parseFaultPlan("nand-err=1e-3;host-fail@0=1");
    plans.emplace_back("fleet x2 after host-fail@0",
                       makeFleetEngine(sys, fc)->decodeStepPlanAt(run, 1.0));

    int expanded = 0, tails = 0;
    for (const auto &[name, plan] : plans) {
        ASSERT_TRUE(plan.feasible) << name << ": " << plan.note;
        TraceRecorder rec;
        expectSameResult(simulatePlan(plan, &rec), simulatePlan(plan), name);
        EXPECT_EQ(rec.size(), expectedEvents(plan)) << name;
        expanded += expandsAPool(plan) ? 1 : 0;
        tails += plan.tail_ops.empty() ? 0 : 1;
    }
    EXPECT_EQ(expanded, 3) << "HILOS prefill and the two faulted plans";
    EXPECT_EQ(tails, 4) << "vLLM's two plans and the two fleet plans";
}

}  // namespace
}  // namespace hilos

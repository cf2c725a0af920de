/**
 * @file
 * Unit tests of the StepPlan IR and its two backends: the analytic
 * evaluator's composition rules (serial chains sum, parallel branches
 * max, divisor + tail, op roles, longest-tagged-path busy time,
 * insertion-order accounting) and the contended replay's semantics
 * (queueing only delays, prefetch overlaps the previous layer, fanout
 * stripes across instances), plus the engine-facing contracts: every
 * engine's run() is exactly applyPlan(decodeStepPlan()), and the core
 * facade hands out plans by EngineKind.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string_view>

#include "core/hilos.h"
#include "device/gpu.h"
#include "runtime/cost_model.h"
#include "runtime/event_sim.h"
#include "runtime/plan_cache.h"
#include "runtime/step_plan.h"
#include "support/serialize.h"

namespace hilos {
namespace {

constexpr double kEps = 1e-12;

/** A plan with a serial chain, a racing branch, and a tail op. */
StepPlan
smallPlan(std::string_view race_stage = "commit",
          std::string_view hop_stage = "tail")
{
    StepPlan plan;
    plan.layers = 4;
    plan.declareStage("load");
    plan.declareStage("compute");
    plan.declareStage("commit");
    plan.declareStage("tail");
    plan.declareResource(PlanResource::HostPcie, 1);
    plan.declareResource(PlanResource::Storage, 2);
    const std::size_t load = plan.addOp(
        transferOp(PlanResource::HostPcie, "load", 2.0, 200.0)
            .stageTag("load")
            .busyTag(kBusyDram)
            .share(TrafficField::HostRead, 200.0));
    const std::size_t compute = plan.addOp(
        computeOp(ComputeUnit::Gpu, "compute", 3.0)
            .stageTag("compute")
            .busyTag(kBusyGpu)
            .dep(load));
    const std::size_t race = plan.addOp(
        transferOp(PlanResource::Storage, "race", 4.0, 400.0)
            .stageTag(race_stage)
            .busyTag(kBusyStorage)
            .withFanout(2)
            .share(TrafficField::StorageWrite, 400.0));
    plan.addOp(transferOp(PlanResource::HostPcie, "commit", 1.0, 100.0)
                   .stageTag("commit")
                   .share(TrafficField::HostWrite, 100.0)
                   .dep(compute)
                   .dep(race));
    plan.addTailOp(transferOp(PlanResource::InterNode, "hop", 0.5, 50.0)
                       .stageTag(hop_stage));
    return plan;
}

TEST(EvaluatePlan, SerialChainsSumAndBranchesMax)
{
    const PlanEvaluation ev = evaluatePlan(smallPlan());
    // load -> compute -> commit = 2 + 3 + 1 = 6; race alone = 4; the
    // commit waits on max(5, 4) = 5, so the critical path is 6.
    EXPECT_EQ(ev.layer_critical_path, 6.0);
    EXPECT_EQ(ev.op_finish[0], 2.0);
    EXPECT_EQ(ev.op_finish[1], 5.0);
    EXPECT_EQ(ev.op_finish[2], 4.0);
    EXPECT_EQ(ev.op_finish[3], 6.0);
    // 4 layers of 6 s plus the 0.5 s tail.
    EXPECT_EQ(ev.decode_step_time, 4.0 * 6.0 + 0.5);
}

TEST(EvaluatePlan, LayerTimeDivisorScalesOnlyTheLayeredPhase)
{
    StepPlan plan = smallPlan();
    plan.layer_time_divisor = 0.5;
    const PlanEvaluation ev = evaluatePlan(plan);
    EXPECT_EQ(ev.decode_step_time, 4.0 * 6.0 / 0.5 + 0.5);
}

TEST(EvaluatePlan, BreakdownFollowsDeclarationOrderTimesLayers)
{
    const PlanEvaluation ev = evaluatePlan(smallPlan());
    const auto &stages = ev.breakdown.stages();
    ASSERT_EQ(stages.size(), 4u);
    EXPECT_EQ(stages[0].first, "load");
    EXPECT_EQ(stages[0].second, 4.0 * 2.0);
    EXPECT_EQ(stages[1].first, "compute");
    EXPECT_EQ(stages[1].second, 4.0 * 3.0);
    EXPECT_EQ(stages[2].first, "commit");
    EXPECT_EQ(stages[2].second, 4.0 * (4.0 + 1.0));
    EXPECT_EQ(stages[3].first, "tail");  // tail ops count once
    EXPECT_EQ(stages[3].second, 0.5);
}

TEST(EvaluatePlan, OpsRecordTheirStagePositionWhenAdded)
{
    const StepPlan plan = smallPlan();
    for (const StepOpArray *ops : {&plan.layer_ops, &plan.tail_ops}) {
        for (const StepOpView op : *ops) {
            ASSERT_LT(op.stage_index, plan.stage_order.size()) << op.label;
            EXPECT_EQ(plan.stage_order[op.stage_index], op.stage)
                << op.label;
        }
    }
}

TEST(EvaluatePlan, SetRenamedStagesBreakDownLikeAColdBuild)
{
    // set() moves the race op from "commit" to "load" and the tail hop
    // from "tail" to "compute": each drops its recorded position and is
    // looked up by name, so the breakdown is the cold build's that
    // declares both ops under their new stages.
    StepPlan renamed = smallPlan();
    StepOp race = renamed.layer_ops.get(2);
    race.stage = "load";
    renamed.layer_ops.set(2, race);
    StepOp hop = renamed.tail_ops.get(0);
    hop.stage = "compute";
    renamed.tail_ops.set(0, hop);
    EXPECT_EQ(renamed.layer_ops[2].stage_index, kStageByName);
    EXPECT_EQ(renamed.tail_ops[0].stage_index, kStageByName);

    const PlanEvaluation got = evaluatePlan(renamed);
    const PlanEvaluation want = evaluatePlan(smallPlan("load", "compute"));
    EXPECT_EQ(got.breakdown.stages(), want.breakdown.stages());
    EXPECT_EQ(got.decode_step_time, want.decode_step_time);
    EXPECT_EQ(got.breakdown.stages()[0].second, 4.0 * (2.0 + 4.0));
    EXPECT_EQ(got.breakdown.stages()[1].second, 4.0 * 3.0 + 0.5);
}

TEST(EvaluatePlan, TrafficIsLayerSumTimesLayersPlusTail)
{
    const PlanEvaluation ev = evaluatePlan(smallPlan());
    EXPECT_EQ(ev.traffic.host_read_bytes, 4.0 * 200.0);
    EXPECT_EQ(ev.traffic.host_write_bytes, 4.0 * 100.0);
    EXPECT_EQ(ev.traffic.storage_write_bytes, 4.0 * 400.0);
    EXPECT_EQ(ev.traffic.internal_bytes, 0.0);
}

TEST(EvaluatePlan, BusyIsLongestTaggedPathPlusStepFraction)
{
    StepPlan plan = smallPlan();
    plan.busy_step_fraction.cpu = 0.1;
    const PlanEvaluation ev = evaluatePlan(plan);
    EXPECT_EQ(ev.busy.gpu, 4.0 * 3.0);
    EXPECT_EQ(ev.busy.dram, 4.0 * 2.0);
    EXPECT_EQ(ev.busy.storage, 4.0 * 4.0);
    EXPECT_NEAR(ev.busy.cpu, 0.1 * ev.decode_step_time, kEps);
}

TEST(EvaluatePlan, ShadowOpsTimeButDoNotAccount)
{
    StepPlan plan;
    plan.layers = 1;
    plan.declareStage("s");
    const std::size_t a = plan.addOp(
        computeOp(ComputeUnit::Gpu, "real", 1.0).stageTag("s").busyTag(
            kBusyGpu));
    plan.addOp(computeOp(ComputeUnit::Gpu, "ghost", 5.0).asShadow().dep(a));
    const PlanEvaluation ev = evaluatePlan(plan);
    EXPECT_EQ(ev.layer_critical_path, 6.0);  // the shadow bounds timing
    EXPECT_EQ(ev.breakdown.get("s"), 1.0);   // but is not accounted
    EXPECT_EQ(ev.busy.gpu, 1.0);
}

TEST(EvaluatePlan, OfflineOpsAccountButDoNotTime)
{
    StepPlan plan;
    plan.layers = 2;
    plan.declareStage("s");
    plan.addOp(computeOp(ComputeUnit::Gpu, "real", 1.0).stageTag("s"));
    plan.addOp(
        computeOp(ComputeUnit::Cpu, "background", 9.0).busyTag(kBusyCpu)
            .asOffline());
    const PlanEvaluation ev = evaluatePlan(plan);
    EXPECT_EQ(ev.layer_critical_path, 1.0);  // off the critical path
    EXPECT_EQ(ev.op_finish[1], 0.0);
    EXPECT_EQ(ev.busy.cpu, 2.0 * 9.0);  // but the occupancy counts
}

TEST(EvaluatePlan, ReusedEvaluationMatchesAFreshOne)
{
    // A bigger plan first, so the reused op_finish and breakdown carry
    // stale entries the second evaluation must not keep.
    const StepPlan big = smallPlan();
    StepPlan small;
    small.layers = 3;
    small.declareStage("s");
    small.addOp(computeOp(ComputeUnit::Gpu, "only", 2.0)
                    .stageTag("s")
                    .busyTag(kBusyGpu)
                    .share(TrafficField::Internal, 8.0));
    PlanEvaluation reused;
    evaluatePlan(big, reused);
    evaluatePlan(small, reused);
    const PlanEvaluation fresh = evaluatePlan(small);
    EXPECT_EQ(reused.layer_critical_path, fresh.layer_critical_path);
    EXPECT_EQ(reused.decode_step_time, fresh.decode_step_time);
    EXPECT_EQ(reused.op_finish, fresh.op_finish);
    EXPECT_EQ(reused.breakdown.stages(), fresh.breakdown.stages());
    EXPECT_EQ(reused.traffic.internal_bytes, 3.0 * 8.0);
    EXPECT_EQ(reused.traffic.host_read_bytes, 0.0);
    EXPECT_EQ(reused.busy.gpu, fresh.busy.gpu);
    EXPECT_EQ(reused.busy.storage, 0.0);
}

TEST(StepOp, PlanArenaOwnsLabelsOfDestroyedStrings)
{
    // Labels and stages are views that only outlive addOp: the plan
    // must copy the bytes, not keep the view. The strings are longer
    // than any short-string buffer, so they live on the heap, and the
    // sanitizer builds catch a view into freed memory.
    StepPlan plan;
    {
        const std::string stage(40, 's');
        plan.declareStage(stage);
        std::string label = "transient_label_" + std::string(40, 'x');
        plan.addOp(transferOp(PlanResource::HostPcie, label, 1.0, 2.0)
                       .stageTag(stage));
        label.assign(label.size(), '#');  // overwrite the source bytes
        std::string tail = "transient_tail_" + std::string(40, 'y');
        plan.addTailOp(computeOp(ComputeUnit::Gpu, tail, 0.5));
    }
    const std::string reuse(64, '!');  // likely lands on a freed block
    EXPECT_EQ(plan.layer_ops[0].label,
              "transient_label_" + std::string(40, 'x'));
    EXPECT_EQ(plan.layer_ops[0].stage, std::string(40, 's'));
    EXPECT_EQ(plan.tail_ops[0].label,
              "transient_tail_" + std::string(40, 'y'));
    EXPECT_TRUE(plan.validate().empty());
    EXPECT_EQ(evaluatePlan(plan).breakdown.get(std::string(40, 's')), 1.0);
}

TEST(StepOp, InlineArraysHoldTheirCapacityAndPanicPastIt)
{
    StepOp op = computeOp(ComputeUnit::Gpu, "wide", 1.0);
    for (std::size_t d = 0; d < kMaxOpDeps; ++d)
        op.dep(d);
    for (std::size_t s = 0; s < kMaxOpShares; ++s)
        op.share(TrafficField::HostRead, 1.0);
    EXPECT_EQ(op.deps.size(), kMaxOpDeps);
    EXPECT_EQ(op.traffic.size(), kMaxOpShares);
    EXPECT_DEATH(op.dep(kMaxOpDeps), "inline array");
    EXPECT_DEATH(op.share(TrafficField::HostRead, 1.0), "inline array");
}

/** One source op of buildFanIn. */
StepOp
fanInSource(double scale)
{
    return computeOp(ComputeUnit::Gpu, "src", 1e-3 * scale)
        .stageTag("src")
        .busyTag(kBusyGpu);
}

/** The sink of buildFanIn: one dep and one traffic share. */
StepOp
fanInSink(double scale)
{
    return transferOp(PlanResource::HostPcie, "sink", 2e-3 * scale,
                      10.0 * scale)
        .stageTag("sink")
        .share(TrafficField::HostRead, 10.0 * scale)
        .dep(0);
}

/** kMaxOpDeps source ops, then a sink (op kMaxOpDeps) on source 0. */
void
buildFanIn(StepPlan &plan, double scale)
{
    plan.declareStage("src");
    plan.declareStage("sink");
    plan.declareResource(PlanResource::HostPcie, 1);
    for (std::size_t i = 0; i < kMaxOpDeps; ++i)
        plan.addOp(fanInSource(scale));
    plan.addOp(fanInSink(scale));
}

/** The sink grown to every dep and share slot, relabelled and
 *  re-staged: still a valid op of buildFanIn's plan. */
StepOp
grownSink()
{
    StepOp op = fanInSink(1.0);
    op.deps = {};
    for (std::size_t d = 0; d < kMaxOpDeps; ++d)
        op.dep(d);
    op.traffic = {};
    for (std::size_t f = 0; f < kMaxOpShares; ++f)
        op.share(static_cast<TrafficField>(f), 1.0 + static_cast<double>(f));
    op.label = "sink_grown_past_any_short_string_buffer";
    op.stage = "src";
    op.seconds = 5e-3;
    op.bytes = 64.0;
    op.fanout = 3;
    return op;
}

/** Every field of `got` equals `want`'s. */
void
expectSameOp(const StepOp &got, const StepOp &want)
{
    EXPECT_EQ(got.op_kind, want.op_kind);
    EXPECT_EQ(got.resource, want.resource);
    EXPECT_EQ(got.unit, want.unit);
    EXPECT_EQ(got.seconds, want.seconds);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.fanout, want.fanout);
    EXPECT_EQ(got.label, want.label);
    EXPECT_EQ(got.stage, want.stage);
    EXPECT_EQ(got.busy, want.busy);
    EXPECT_EQ(got.prefetch, want.prefetch);
    EXPECT_EQ(got.shadow, want.shadow);
    EXPECT_EQ(got.offline, want.offline);
    ASSERT_EQ(got.deps.size(), want.deps.size());
    for (std::size_t k = 0; k < want.deps.size(); ++k)
        EXPECT_EQ(got.deps[k], want.deps[k]) << "dep " << k;
    ASSERT_EQ(got.traffic.size(), want.traffic.size());
    for (std::size_t k = 0; k < want.traffic.size(); ++k) {
        EXPECT_EQ(got.traffic[k].field, want.traffic[k].field);
        EXPECT_EQ(got.traffic[k].bytes, want.traffic[k].bytes);
    }
}

TEST(StepOpArray, SetRoundTripsAnOpGrownToFullCapacity)
{
    StepPlan plan;
    buildFanIn(plan, 1.0);
    const std::size_t sink = kMaxOpDeps;
    const StepOp grown = grownSink();

    plan.layer_ops.set(sink, grown);
    expectSameOp(plan.layer_ops.get(sink), grown);
    EXPECT_EQ(plan.layer_ops[sink].deps.size(), kMaxOpDeps);
    EXPECT_EQ(plan.layer_ops[sink].traffic.size(), kMaxOpShares);
    EXPECT_TRUE(plan.layer_ops.structureMatches(sink, grown));
    EXPECT_FALSE(plan.layer_ops.structureMatches(sink, fanInSink(1.0)));
    for (std::size_t i = 0; i < sink; ++i) {
        EXPECT_TRUE(plan.layer_ops.structureMatches(i, fanInSource(1.0)));
        expectSameOp(plan.layer_ops.get(i), fanInSource(1.0));
    }
    EXPECT_TRUE(plan.validate().empty());

    // Shrinking back restores the original op exactly.
    plan.layer_ops.set(sink, fanInSink(1.0));
    expectSameOp(plan.layer_ops.get(sink), fanInSink(1.0));
    EXPECT_TRUE(plan.layer_ops.structureMatches(sink, fanInSink(1.0)));

    // An op read back with get() views the arena the new label and
    // stage are appended to.
    StepOp renamed = plan.layer_ops.get(0);
    renamed.label = plan.layer_ops.get(sink).label;
    renamed.stage = "sink";
    plan.layer_ops.set(0, renamed);
    EXPECT_EQ(plan.layer_ops[0].label, "sink");
    EXPECT_EQ(plan.layer_ops[0].stage, "sink");
    EXPECT_EQ(plan.layer_ops[sink].label, "sink");
}

TEST(SimulatePlan, UncontendedPlanMatchesAnalytic)
{
    const StepPlan plan = smallPlan();
    const PlanEvaluation ev = evaluatePlan(plan);
    const PlanSimResult sim = simulatePlan(plan);
    // Storage has 2 instances for the fanout-2 race op and host PCIe
    // ops form a serial chain, so nothing queues: the replay must land
    // exactly on the analytic step (no prefetch ops here).
    EXPECT_NEAR(sim.decode_step_time, ev.decode_step_time, kEps);
    ASSERT_EQ(sim.layer_times.size(), plan.layers);
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i)
        EXPECT_GE(sim.first_layer_finish[i], ev.op_finish[i] - kEps)
            << plan.layer_ops[i].label;
}

TEST(SimulatePlan, ContentionOnlyDelays)
{
    // Halve the storage instances: the fanout-2 race op's replicas now
    // serialise on one channel, stretching every layer.
    StepPlan contended = smallPlan();
    for (PlanResourceDecl &r : contended.resources)
        if (r.kind == PlanResource::Storage)
            r.instances = 1;
    const PlanEvaluation ev = evaluatePlan(contended);
    const PlanSimResult sim = simulatePlan(contended);
    // race = 2 serialised 4 s replicas = 8; commit waits on max(5, 8)
    // + 1 = 9 per layer.
    EXPECT_NEAR(sim.layer_times[0], 9.0, kEps);
    EXPECT_GT(sim.decode_step_time, ev.decode_step_time);
    for (std::size_t i = 0; i < contended.layer_ops.size(); ++i)
        EXPECT_GE(sim.first_layer_finish[i], ev.op_finish[i] - kEps);
}

TEST(SimulatePlan, PrefetchOverlapsThePreviousLayer)
{
    StepPlan plan;
    plan.layers = 3;
    plan.declareStage("load");
    plan.declareStage("compute");
    plan.declareResource(PlanResource::HostPcie, 1);
    const std::size_t load = plan.addOp(
        transferOp(PlanResource::HostPcie, "load", 2.0, 1.0)
            .stageTag("load")
            .asPrefetch());
    plan.addOp(computeOp(ComputeUnit::Gpu, "compute", 3.0)
                   .stageTag("compute")
                   .dep(load));
    const PlanSimResult sim = simulatePlan(plan);
    // Layer 0 pays the full load + compute; later layers' loads issue
    // at the previous layer start and hide under the 3 s compute.
    EXPECT_NEAR(sim.layer_times[0], 5.0, kEps);
    EXPECT_NEAR(sim.layer_times[1], 3.0, kEps);
    EXPECT_NEAR(sim.layer_times[2], 3.0, kEps);
}

TEST(SimulatePlan, UtilizationsAreBounded)
{
    const PlanSimResult sim = simulatePlan(smallPlan());
    for (const auto &[name, util] : sim.resource_utilization) {
        EXPECT_GE(util, 0.0) << name;
        EXPECT_LE(util, 1.0 + 1e-9) << name;
    }
    for (const auto &[name, util] : sim.unit_utilization) {
        EXPECT_GE(util, 0.0) << name;
        EXPECT_LE(util, 1.0 + 1e-9) << name;
    }
}

TEST(ApplyPlan, TotalTimeComposesPrefillAndDecode)
{
    const StepPlan plan = smallPlan();
    RunConfig cfg;
    cfg.model = opt66b();
    cfg.batch = 4;
    cfg.output_len = 10;
    RunResult res;
    res.prefill_time = 7.0;
    res.effective_batch = 4;
    applyPlan(plan, cfg, res);
    EXPECT_EQ(res.decode_step_time, 24.5);
    EXPECT_EQ(res.total_time, 7.0 + 10.0 * 24.5);
    EXPECT_EQ(res.traffic.host_read_bytes, 800.0);
}

TEST(EngineContract, RunEqualsApplyPlanOfDecodeStepPlan)
{
    // run() must be exactly "build the plan, apply it": same decode
    // step, same breakdown total, same traffic, bit for bit.
    const SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt66b();
    run.batch = 16;
    run.context_len = 32768;
    run.output_len = 64;
    for (EngineKind kind :
         {EngineKind::FlexDram, EngineKind::FlexSsd,
          EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
          EngineKind::VllmMultiGpu, EngineKind::Hilos}) {
        const auto engine = makeEngine(kind, sys);
        const RunResult r = engine->run(run);
        ASSERT_TRUE(r.feasible) << engine->name();
        RunConfig effective = run;
        effective.batch = r.effective_batch;
        const StepPlan plan = decodeStepPlanFor(kind, sys, effective);
        const PlanEvaluation ev = evaluatePlan(plan);
        EXPECT_EQ(ev.decode_step_time, r.decode_step_time)
            << engine->name();
        EXPECT_EQ(ev.traffic.host_read_bytes, r.traffic.host_read_bytes)
            << engine->name();
        EXPECT_EQ(ev.busy.gpu, r.busy.gpu) << engine->name();
    }
}

TEST(EngineContract, InfeasiblePlansSayWhy)
{
    const SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt66b();
    run.batch = 16;
    run.context_len = 131072;
    run.output_len = 64;
    const StepPlan plan =
        decodeStepPlanFor(EngineKind::FlexDram, sys, run);
    EXPECT_FALSE(plan.feasible);
    EXPECT_FALSE(plan.note.empty());
}

// --- StepPlan::validate() static checks -----------------------------------
//
// The fluent builders reject most malformed plans at construction, so
// these tests assemble the defective plans field-by-field, the way a
// fuzzer or deserialiser could.

/** Materialise op `i`, apply `fn`, and write it back unchecked. */
template <typename Fn>
void
mutateOp(StepOpArray &ops, std::size_t i, Fn fn)
{
    StepOp op = ops.get(i);
    fn(op);
    ops.set(i, op);
}

/** True when some diagnostic contains both fragments. */
bool
mentions(const std::vector<std::string> &problems,
         const std::string &what, const std::string &who)
{
    for (const std::string &p : problems)
        if (p.find(what) != std::string::npos &&
            p.find(who) != std::string::npos)
            return true;
    return false;
}

TEST(PlanValidate, WellFormedPlanHasNoDiagnostics)
{
    EXPECT_TRUE(smallPlan().validate().empty());
}

TEST(PlanValidate, RejectsDependencyCycle)
{
    StepPlan plan = smallPlan();
    // load <-> compute: a two-op cycle the builder cannot express.
    mutateOp(plan.layer_ops, 0,
             [](StepOp &op) { op.deps.push_back(1); });
    const auto problems = plan.validate();
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(mentions(problems, "dependency cycle", "'load'"));
    EXPECT_TRUE(mentions(problems, "dependency cycle", "'compute'"));
}

TEST(PlanValidate, RejectsSelfDependency)
{
    StepPlan plan = smallPlan();
    mutateOp(plan.layer_ops, 2,
             [](StepOp &op) { op.deps.push_back(2); });
    EXPECT_TRUE(mentions(plan.validate(), "dependency cycle", "'race'"));
}

TEST(PlanValidate, RejectsDanglingDepIndex)
{
    StepPlan plan = smallPlan();
    mutateOp(plan.layer_ops, 1,
             [](StepOp &op) { op.deps.push_back(97); });
    EXPECT_TRUE(mentions(plan.validate(), "references no op", "'compute'"));
}

TEST(PlanValidate, RejectsForwardReference)
{
    StepPlan plan = smallPlan();
    mutateOp(plan.layer_ops, 0, [](StepOp &op) {
        op.deps.push_back(3);  // acyclic but out of order
    });
    EXPECT_TRUE(
        mentions(plan.validate(), "references a later op", "'load'"));
}

TEST(PlanValidate, RejectsUndeclaredStage)
{
    StepPlan plan = smallPlan();
    mutateOp(plan.layer_ops, 1, [](StepOp &op) { op.stage = "mystery"; });
    EXPECT_TRUE(mentions(plan.validate(), "not declared", "'mystery'"));
}

TEST(PlanValidate, RejectsDanglingResourceIndex)
{
    StepPlan plan = smallPlan();
    mutateOp(plan.layer_ops, 0, [](StepOp &op) {
        op.resource = static_cast<PlanResource>(250);
    });
    EXPECT_TRUE(
        mentions(plan.validate(), "no known resource kind", "'load'"));
}

TEST(PlanValidate, RejectsUndeclaredBusyBits)
{
    StepPlan plan = smallPlan();
    mutateOp(plan.layer_ops, 1, [](StepOp &op) { op.busy |= 1u << 13; });
    EXPECT_TRUE(
        mentions(plan.validate(), "beyond the declared kBusy", "'compute'"));
}

TEST(PlanValidate, RejectsNegativeBytes)
{
    StepPlan plan = smallPlan();
    mutateOp(plan.layer_ops, 0, [](StepOp &op) { op.bytes = -200.0; });
    EXPECT_TRUE(
        mentions(plan.validate(), "finite and non-negative", "'load'"));
}

TEST(PlanValidate, RejectsNegativeTrafficShare)
{
    StepPlan plan = smallPlan();
    mutateOp(plan.layer_ops, 0,
             [](StepOp &op) { op.traffic[0].bytes = -1.0; });
    EXPECT_TRUE(mentions(plan.validate(), "traffic share", "'load'"));
}

TEST(PlanValidate, RejectsNonFiniteDuration)
{
    StepPlan plan = smallPlan();
    mutateOp(plan.layer_ops, 1,
             [](StepOp &op) { op.seconds = std::nan(""); });
    EXPECT_TRUE(
        mentions(plan.validate(), "finite and non-negative", "'compute'"));
}

TEST(PlanValidate, RejectsTailOpWithDeps)
{
    StepPlan plan = smallPlan();
    mutateOp(plan.tail_ops, 0,
             [](StepOp &op) { op.deps.push_back(0); });
    EXPECT_TRUE(mentions(plan.validate(), "serial chain", "'hop'"));
}

TEST(PlanValidate, RejectsZeroChunkCount)
{
    StepPlan plan = smallPlan();
    plan.phase = PlanPhase::Prefill;
    plan.chunk_count = 0;
    const auto problems = plan.validate();
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(mentions(problems, "zero prefill chunks", ""));
}

TEST(PlanValidate, RejectsChunkIndexOutOfRange)
{
    StepPlan plan = smallPlan();
    plan.phase = PlanPhase::Prefill;
    plan.chunk_count = 2;
    plan.chunk_index = 2;
    EXPECT_TRUE(mentions(plan.validate(), "out of range", "chunk_index 2"));
}

TEST(PlanValidate, RejectsChunkingOnDecodePlans)
{
    StepPlan plan = smallPlan();
    plan.chunk_tokens = 5;  // Decode phase: chunk fields must stay default
    EXPECT_TRUE(
        mentions(plan.validate(), "decode plans carry no prefill", ""));
}

// --- Prefill phase: chunk ranges, compute identity, run composition -------

TEST(PrefillPhase, ChunkRangeTilesThePromptExactly)
{
    // 10 tokens in 4 chunks: 3+3+2+2, remainder on the leading chunks.
    std::uint64_t prev_end = 0;
    for (std::uint64_t i = 0; i < 4; ++i) {
        const auto [start, end] = prefillChunkRange(10, i, 4);
        EXPECT_EQ(start, prev_end) << "chunk " << i;
        EXPECT_GE(end - start, 2u);
        EXPECT_LE(end - start, 3u);
        prev_end = end;
    }
    EXPECT_EQ(prev_end, 10u);
    // Monolithic chunking is the whole prompt.
    const auto [start, end] = prefillChunkRange(4096, 0, 1);
    EXPECT_EQ(start, 0u);
    EXPECT_EQ(end, 4096u);
}

TEST(PrefillPhase, SingleChunkComputeIsTheMonolithicPrefillBitwise)
{
    // The chunked cost model must collapse to the historical closed
    // form at one chunk, bit for bit — this is what keeps every
    // chunks=1 golden byte-identical across the IR refactor.
    const SystemConfig sys = defaultSystem();
    const Gpu gpu(sys.gpu);
    const ModelConfig m = opt66b();
    EXPECT_EQ(prefillChunkComputeTime(gpu, m, 16, 0, 32768),
              prefillComputeTime(gpu, m, 16, 32768));
    EXPECT_EQ(prefillChunkComputeTime(gpu, m, 4, 0, 8192),
              prefillComputeTime(gpu, m, 4, 8192));
}

TEST(PrefillPhase, RunTotalsComposeAcrossEveryEngineKind)
{
    // total_time must be exactly prefill + output_len * decode-step for
    // every engine; chunks == 1 must reproduce the default run bit for
    // bit; chunking re-pays per-pass costs (weight re-streaming), so
    // prefill time and totals can only grow.
    const SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt66b();
    run.batch = 16;
    run.context_len = 32768;
    run.output_len = 64;
    for (EngineKind kind :
         {EngineKind::FlexDram, EngineKind::FlexSsd,
          EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
          EngineKind::VllmMultiGpu, EngineKind::Hilos}) {
        const auto engine = makeEngine(kind, sys);
        const RunResult r = engine->run(run);
        ASSERT_TRUE(r.feasible) << engine->name();
        EXPECT_EQ(r.total_time,
                  r.prefill_time +
                      static_cast<double>(run.output_len) *
                          r.decode_step_time)
            << engine->name();

        RunConfig chunked = run;
        chunked.prefill_chunks = 1;
        const RunResult r1 = engine->run(chunked);
        EXPECT_EQ(test::serialize(r1), test::serialize(r))
            << engine->name();

        chunked.prefill_chunks = 4;
        const RunResult r4 = engine->run(chunked);
        ASSERT_TRUE(r4.feasible) << engine->name();
        EXPECT_EQ(r4.decode_step_time, r.decode_step_time)
            << engine->name();
        EXPECT_GE(r4.prefill_time, r.prefill_time) << engine->name();
        EXPECT_GE(r4.total_time, r.total_time) << engine->name();
    }
}

TEST(PrefillPhase, FacadeHandsOutTaggedChunkPlans)
{
    const SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt66b();
    run.batch = 16;
    run.context_len = 32768;
    run.output_len = 64;
    const StepPlan pre =
        prefillStepPlanFor(EngineKind::Hilos, sys, run, 1, 4);
    ASSERT_TRUE(pre.feasible);
    EXPECT_EQ(pre.phase, PlanPhase::Prefill);
    EXPECT_EQ(pre.chunk_index, 1u);
    EXPECT_EQ(pre.chunk_count, 4u);
    const auto [start, end] = prefillChunkRange(run.context_len, 1, 4);
    EXPECT_EQ(pre.chunk_tokens, end - start);
    EXPECT_TRUE(pre.validate().empty());
}

TEST(PlanValidate, EveryEngineKindEmitsAValidPlan)
{
    const SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt30b();
    run.batch = 4;
    run.context_len = 8192;
    run.output_len = 32;
    const EngineKind kinds[] = {
        EngineKind::FlexDram,     EngineKind::FlexSsd,
        EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
        EngineKind::VllmMultiGpu, EngineKind::Hilos,
    };
    for (const EngineKind kind : kinds) {
        const StepPlan plan = decodeStepPlanFor(kind, sys, run);
        if (!plan.feasible)
            continue;
        const auto problems = plan.validate();
        EXPECT_TRUE(problems.empty())
            << "engine kind " << static_cast<int>(kind) << ": "
            << problems.front();
    }
}

/** A parameterised toy builder: `scale` changes only annotations,
 *  `extra_op` changes the topology. */
void
buildToy(StepPlan &plan, double scale, bool extra_op)
{
    plan.layers = 4;
    plan.declareStage("alpha");
    plan.declareStage("beta");
    plan.declareResource(PlanResource::HostPcie, 2);
    const std::size_t load = plan.addOp(
        transferOp(PlanResource::HostPcie, "load", 1e-3 * scale,
                   100.0 * scale)
            .stageTag("alpha")
            .busyTag(kBusyDram)
            .share(TrafficField::HostRead, 100.0 * scale)
            .asPrefetch());
    const std::size_t work = plan.addOp(
        computeOp(ComputeUnit::Gpu, "work", 2e-3 * scale)
            .stageTag("beta")
            .busyTag(kBusyGpu)
            .dep(load));
    if (extra_op)
        plan.addOp(
            computeOp(ComputeUnit::Cpu, "extra", 1e-4).dep(work));
}

TEST(PlanCache, VerifiedRebuildIsByteIdenticalToColdBuild)
{
    PlanCache cache;
    const auto cached = [&cache](double scale) -> const StepPlan & {
        return cache.build(1, [scale](StepPlan &p) {
            buildToy(p, scale, false);
        });
    };

    const StepPlan &cold = cached(1.0);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_TRUE(cold.structure_validated);
    {
        StepPlan fresh;
        buildToy(fresh, 1.0, false);
        EXPECT_EQ(test::serialize(cold), test::serialize(fresh));
    }

    // Scalar-parameter sweep: every rebuild is a verified hit and
    // byte-identical to the equivalent cold build.
    for (const double scale : {2.0, 0.5, 7.25, 1.0}) {
        const StepPlan &hit = cached(scale);
        StepPlan fresh;
        buildToy(fresh, scale, false);
        EXPECT_EQ(test::serialize(hit), test::serialize(fresh))
            << "scale " << scale;
        EXPECT_TRUE(hit.structure_validated);
    }
    EXPECT_EQ(cache.stats().hits, 4u);
    EXPECT_EQ(cache.stats().mismatches, 0u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, VerifiedRebuildWithNewPricesBreaksDownLikeAColdBuild)
{
    PlanCache cache;
    cache.build(1, [](StepPlan &p) { buildToy(p, 1.0, false); });
    for (const double scale : {3.0, 0.25}) {
        const StepPlan &hit = cache.build(
            1, [scale](StepPlan &p) { buildToy(p, scale, false); });
        StepPlan fresh;
        buildToy(fresh, scale, false);
        const PlanEvaluation got = evaluatePlan(hit);
        const PlanEvaluation want = evaluatePlan(fresh);
        EXPECT_EQ(got.breakdown.stages(), want.breakdown.stages())
            << "scale " << scale;
        EXPECT_EQ(got.decode_step_time, want.decode_step_time);
        for (std::size_t i = 0; i < hit.layer_ops.size(); ++i)
            EXPECT_EQ(hit.layer_ops[i].stage_index,
                      fresh.layer_ops[i].stage_index);
    }
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(PlanCache, TopologyChangeFallsBackToColdBuild)
{
    PlanCache cache;
    cache.build(9, [](StepPlan &p) { buildToy(p, 1.0, false); });
    ASSERT_EQ(cache.stats().misses, 1u);

    // The extra op breaks the verified rebuild; the fallback cold
    // build must still produce exactly the fresh-build plan.
    const StepPlan &rebuilt =
        cache.build(9, [](StepPlan &p) { buildToy(p, 3.0, true); });
    EXPECT_EQ(cache.stats().mismatches, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    StepPlan fresh;
    buildToy(fresh, 3.0, true);
    EXPECT_EQ(test::serialize(rebuilt), test::serialize(fresh));
    EXPECT_TRUE(rebuilt.structure_validated);

    // And the new topology becomes the cached one: same shape again
    // is a hit, dropping back to two ops is a mismatch.
    cache.build(9, [](StepPlan &p) { buildToy(p, 4.0, true); });
    EXPECT_EQ(cache.stats().hits, 1u);
    cache.build(9, [](StepPlan &p) { buildToy(p, 4.0, false); });
    EXPECT_EQ(cache.stats().mismatches, 2u);
}

TEST(PlanCache, AnnotationOnlyDivergencePassesVerification)
{
    // Fanout and traffic-share bytes are annotations, not structure:
    // a rebuild that changes them must hit, not miss.
    PlanCache cache;
    const auto build = [](StepPlan &p, std::uint64_t fanout,
                          double bytes) {
        p.declareStage("s");
        p.declareResource(PlanResource::Storage, 4);
        p.addOp(transferOp(PlanResource::Storage, "io", 1e-3, bytes)
                    .stageTag("s")
                    .withFanout(fanout)
                    .share(TrafficField::Internal, bytes));
    };
    cache.build(5, [&](StepPlan &p) { build(p, 2, 64.0); });
    const StepPlan &hit =
        cache.build(5, [&](StepPlan &p) { build(p, 8, 1024.0); });
    EXPECT_EQ(cache.stats().hits, 1u);
    StepPlan fresh;
    build(fresh, 8, 1024.0);
    EXPECT_EQ(test::serialize(hit), test::serialize(fresh));
}

TEST(PlanCache, RebuildOverASetMutatedPlanFallsBackCold)
{
    PlanCache cache;
    const std::size_t sink = kMaxOpDeps;
    const StepPlan &mutated = cache.build(3, [&](StepPlan &p) {
        buildFanIn(p, 1.0);
        p.layer_ops.set(sink, grownSink());
    });
    ASSERT_TRUE(mutated.structure_validated);
    EXPECT_TRUE(mutated.layer_ops.structureMatches(sink, grownSink()));

    // The builder re-traces the unmutated sink: a structure mismatch,
    // so the cache rebuilds cold and hands out the fresh-build plan.
    const StepPlan &rebuilt =
        cache.build(3, [](StepPlan &p) { buildFanIn(p, 2.0); });
    EXPECT_EQ(cache.stats().mismatches, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    StepPlan fresh;
    buildFanIn(fresh, 2.0);
    EXPECT_EQ(test::serialize(rebuilt), test::serialize(fresh));
    EXPECT_TRUE(rebuilt.structure_validated);

    cache.build(3, [](StepPlan &p) { buildFanIn(p, 3.0); });
    EXPECT_EQ(cache.stats().hits, 1u);
}

/** Engine x workload scalar grid, all feasible with a fixed topology. */
std::vector<RunConfig>
scalarGrid()
{
    std::vector<RunConfig> grid;
    for (const std::uint64_t batch : {8ull, 16ull}) {
        for (const std::uint64_t context : {4096ull, 8192ull}) {
            for (const std::uint64_t output : {16ull, 64ull}) {
                for (const std::uint64_t chunks : {1ull, 4ull}) {
                    RunConfig run;
                    run.model = opt30b();
                    run.batch = batch;
                    run.context_len = context;
                    run.output_len = output;
                    run.prefill_chunks = chunks;
                    grid.push_back(run);
                }
            }
        }
    }
    return grid;
}

TEST(PlanCache, EveryEngineRunCachedMatchesRunAcrossScalarGrid)
{
    const SystemConfig sys = defaultSystem();
    const EngineKind kinds[] = {
        EngineKind::FlexDram,        EngineKind::FlexSsd,
        EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
        EngineKind::VllmMultiGpu,    EngineKind::Hilos,
    };
    for (const EngineKind kind : kinds) {
        const auto engine = makeEngine(kind, sys);
        PlanCache cache;
        std::uint64_t builds = 0;
        for (const RunConfig &run : scalarGrid()) {
            const RunResult uncached = engine->run(run);
            const RunResult cached = engine->runCached(run, cache);
            EXPECT_EQ(test::serialize(cached), test::serialize(uncached))
                << engine->name() << " batch=" << run.batch
                << " context=" << run.context_len
                << " output=" << run.output_len
                << " chunks=" << run.prefill_chunks;
            builds += 1 + run.prefill_chunks;
        }
        // One cold build per phase (decode + prefill); every later
        // decode plan and prefill chunk is a verified rebuild, the
        // monolithic prefill and the chunks alike.
        EXPECT_EQ(cache.stats().misses, 2u) << engine->name();
        EXPECT_EQ(cache.stats().hits, builds - 2) << engine->name();
        EXPECT_EQ(cache.stats().mismatches, 0u) << engine->name();
    }
}

TEST(PlanCache, CachedStepPlansSerializeLikeColdBuilds)
{
    // The engine's cached plan getters rebuild under runCached()'s
    // keys. Over a batch x context grid (each context at several
    // batches, some points past the FLEX(DRAM), DS+UVM and HILOS
    // capacities) each plan serializes exactly like the cold build,
    // and runCached() shares their two entries.
    const SystemConfig sys = defaultSystem();
    const EngineKind kinds[] = {
        EngineKind::FlexDram,        EngineKind::FlexSsd,
        EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
        EngineKind::VllmMultiGpu,    EngineKind::Hilos,
    };
    std::size_t infeasible = 0;
    for (const EngineKind kind : kinds) {
        const auto engine = makeEngine(kind, sys);
        PlanCache cache;
        RunConfig run;
        run.model = opt66b();
        run.output_len = 1;
        for (const std::uint64_t context : {1024ull, 8192ull, 1ull << 21}) {
            for (const std::uint64_t batch : {1ull, 4ull, 16ull, 4096ull}) {
                run.batch = batch;
                run.context_len = context;
                const StepPlan &decode = engine->decodeStepPlan(run, cache);
                infeasible += decode.feasible ? 0 : 1;
                EXPECT_EQ(test::serialize(decode),
                          test::serialize(engine->decodeStepPlan(run)))
                    << engine->name() << " batch=" << batch
                    << " context=" << context;
                for (const std::uint64_t count : {1ull, 3ull}) {
                    run.prefill_chunks = count;
                    for (std::uint64_t i = 0; i < count; i++)
                        EXPECT_EQ(test::serialize(engine->prefillStepPlan(
                                      run, i, count, cache)),
                                  test::serialize(
                                      engine->prefillStepPlan(run, i, count)))
                            << engine->name() << " batch=" << batch
                            << " context=" << context << " chunk " << i
                            << "/" << count;
                }
                run.prefill_chunks = 1;
            }
        }
        // One entry per phase, the same two runCached() rebuilds.
        EXPECT_EQ(cache.size(), 2u) << engine->name();
        run.batch = 16;
        run.context_len = 8192;
        EXPECT_EQ(test::serialize(engine->runCached(run, cache)),
                  test::serialize(engine->run(run)));
        EXPECT_EQ(cache.size(), 2u) << engine->name();
    }
    EXPECT_GT(infeasible, 0u);
}

TEST(PlanCache, FaultRoutesRunCachedMatchRun)
{
    // A faulted HILOS and a faulted fleet run the epoch fold rather
    // than the plan body; runCached must take the same route as run(),
    // also over a cache that already holds the healthy plans. The
    // reference is the fold on a fresh cache, which builds each plan
    // cold (later prefill chunks rebuild the first chunk's entry, as on
    // the healthy path): run() re-prices through a per-thread cache, so
    // after its first call it is a warm rebuild like the side under
    // test.
    const SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt30b();
    run.batch = 16;
    run.context_len = 8192;
    run.output_len = 32;
    const auto midDecode = [&](const InferenceEngine &healthy) {
        const RunResult r = healthy.run(run);
        return r.prefill_time +
               static_cast<double>(run.output_len / 2) * r.decode_step_time;
    };

    HilosOptions opts;
    opts.fault_plan.addNandReadError(1e-3).addDeviceFailure(
        midDecode(HilosEngine(sys, HilosOptions{})), 3);
    FleetConfig fc;
    fc.hosts = 2;
    fc.fault_plan.addHostFailure(midDecode(FleetEngine(sys, fc)), 1);
    const std::unique_ptr<InferenceEngine> engines[] = {
        makeEngine(EngineKind::Hilos, sys, opts),
        makeFleetEngine(sys, fc),
    };
    for (const auto &engine : engines) {
        PlanCache cache;
        makeEngine(EngineKind::Hilos, sys)->runCached(run, cache);
        for (const std::uint64_t chunks : {1ull, 4ull}) {
            run.prefill_chunks = chunks;
            PlanCache fresh;
            const RunResult reference = engine->runCached(run, fresh);
            EXPECT_TRUE(reference.faults.any()) << engine->name();
            const std::string cold = test::serialize(reference);
            EXPECT_EQ(test::serialize(engine->runCached(run, cache)), cold)
                << engine->name() << " chunks=" << chunks;
            EXPECT_EQ(test::serialize(engine->run(run)), cold)
                << engine->name() << " run() chunks=" << chunks;
        }
        run.prefill_chunks = 1;
    }
}

TEST(PlanCache, CapacityFlipIsATopologyMissNotACorruption)
{
    // A workload that exceeds the SmartSSD fleet capacity yields an
    // empty infeasible plan; flipping between that and the feasible
    // topology must round-trip through mismatches with results still
    // identical to the uncached engine.
    const SystemConfig sys = defaultSystem();
    const auto engine = makeEngine(EngineKind::Hilos, sys);
    PlanCache cache;

    RunConfig ok;
    ok.model = opt66b();
    ok.batch = 16;
    ok.context_len = 8192;
    ok.output_len = 32;
    RunConfig over = ok;
    over.batch = 4096;
    over.context_len = 1ull << 21;

    for (const RunConfig *run : {&ok, &over, &ok}) {
        const RunResult uncached = engine->run(*run);
        const RunResult cached = engine->runCached(*run, cache);
        EXPECT_EQ(test::serialize(cached), test::serialize(uncached));
    }
    EXPECT_FALSE(engine->runCached(over, cache).feasible);
    EXPECT_GE(cache.stats().mismatches, 2u);
}

TEST(RunGrid, BitIdenticalToColdRunForEveryJobCount)
{
    const SystemConfig sys = defaultSystem();
    // Interleave kinds so the workers' cached engines switch mid-sweep.
    std::vector<GridPoint> grid;
    const EngineKind kinds[] = {
        EngineKind::Hilos, EngineKind::FlexSsd, EngineKind::Hilos,
        EngineKind::DeepSpeedUvm, EngineKind::FlexDram,
        EngineKind::VllmMultiGpu, EngineKind::FlexSsd,
        EngineKind::Hilos,
    };
    std::uint64_t batch = 4;
    for (const EngineKind kind : kinds) {
        GridPoint p;
        p.kind = kind;
        p.run.model = opt30b();
        p.run.batch = batch;
        p.run.context_len = 8192;
        p.run.output_len = 32;
        grid.push_back(p);
        batch += 4;
    }
    std::vector<RunResult> reference;
    for (const GridPoint &p : grid)
        reference.push_back(makeEngine(p.kind, sys, p.hilos)->run(p.run));
    for (const unsigned jobs : {1u, 3u}) {
        const std::vector<RunResult> cached = runGrid(sys, grid, jobs);
        ASSERT_EQ(cached.size(), reference.size());
        for (std::size_t i = 0; i < cached.size(); i++)
            EXPECT_EQ(test::serialize(cached[i]),
                      test::serialize(reference[i]))
                << "grid point " << i << " jobs " << jobs;
    }
}

}  // namespace
}  // namespace hilos

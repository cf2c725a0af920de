/**
 * @file
 * Unit tests of the semantic plan analyzer (runtime/plan_analyzer.h):
 * per-pass accept/reject cases over hand-built minimal plans (at least
 * two reject shapes per pass), the slack/bottleneck annotator, the
 * waiver-file round-trip, byte-identical determinism of the
 * serialised findings, and the repo-level contract that every engine's
 * decode and prefill plans analyse clean — zero error findings, every
 * warning pinned by tests/plan_waivers.txt.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/hilos.h"
#include "runtime/plan_analyzer.h"
#include "runtime/step_plan.h"
#include "support/golden.h"

namespace hilos {
namespace {

/** Findings with a given ID. */
std::vector<PlanFinding>
findingsWithId(const PlanAnalysis &a, const std::string &id)
{
    std::vector<PlanFinding> out;
    for (const PlanFinding &f : a.findings)
        if (id == f.id)
            out.push_back(f);
    return out;
}

/**
 * A minimal clean decode plan: two accounted roots feeding an
 * accounted sink. Every pass accepts it.
 */
StepPlan
cleanPlan()
{
    StepPlan plan;
    plan.layers = 2;
    plan.declareStage("load");
    plan.declareStage("compute");
    plan.declareStage("commit");
    plan.declareResource(PlanResource::HostPcie, 1);
    const std::size_t load = plan.addOp(
        transferOp(PlanResource::HostPcie, "load", 2.0, 200.0)
            .stageTag("load")
            .busyTag(kBusyDram)
            .share(TrafficField::HostRead, 200.0));
    const std::size_t compute = plan.addOp(
        computeOp(ComputeUnit::Gpu, "compute", 3.0)
            .stageTag("compute")
            .busyTag(kBusyGpu));
    plan.addOp(transferOp(PlanResource::HostPcie, "commit", 1.0, 100.0)
                   .stageTag("commit")
                   .busyTag(kBusyDram)
                   .share(TrafficField::HostWrite, 100.0)
                   .dep(load)
                   .dep(compute));
    return plan;
}

TEST(PlanAnalyzer, CleanPlanHasNoFindings)
{
    const StepPlan plan = cleanPlan();
    ASSERT_TRUE(plan.validate().empty());
    const PlanAnalysis a = analyzePlan(plan);
    EXPECT_TRUE(a.findings.empty());
    EXPECT_FALSE(hasUnwaivedErrors(a));
    EXPECT_EQ(firstUnwaivedError(a), "");
}

TEST(PlanAnalyzer, InfeasiblePlanAnalysesEmpty)
{
    StepPlan plan = cleanPlan();
    plan.feasible = false;
    plan.note = "does not fit";
    const PlanAnalysis a = analyzePlan(plan);
    EXPECT_TRUE(a.findings.empty());
    EXPECT_TRUE(a.op_slack.empty());
}

// --- PA001: dead ops ------------------------------------------------------

TEST(PlanAnalyzer, PA001RejectsUnaccountedSinkOp)
{
    StepPlan plan = cleanPlan();
    // Timed, but no stage/traffic/busy and nothing depends on it.
    plan.addOp(computeOp(ComputeUnit::Cpu, "orphan", 0.5));
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA001");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "orphan");
    EXPECT_EQ(hits[0].severity, FindingSeverity::Error);
    EXPECT_NE(hits[0].message.find("'orphan'"), std::string::npos);
}

TEST(PlanAnalyzer, PA001RejectsUnaccountedOfflineOp)
{
    StepPlan plan = cleanPlan();
    // Offline ops exist only to be accounted; this one accounts nothing.
    plan.addOp(computeOp(ComputeUnit::Cpu, "idle_offline", 0.5)
                   .asOffline());
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA001");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "idle_offline");
}

TEST(PlanAnalyzer, PA001RejectsZeroSecondShadowSink)
{
    StepPlan plan = cleanPlan();
    // Shadow ops exist only to be timed; zero seconds and no dependents.
    plan.addOp(computeOp(ComputeUnit::Gpu, "empty_shadow", 0.0)
                   .asShadow());
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA001");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "empty_shadow");
}

TEST(PlanAnalyzer, PA001AcceptsZeroSecondPlaceholderWithDependent)
{
    StepPlan plan = cleanPlan();
    // The PlanCache pattern: a zero-second structural placeholder whose
    // annotations vary per grid point, kept alive by its dependent.
    const std::size_t ph = plan.addOp(
        transferOp(PlanResource::HostPcie, "placeholder", 0.0, 0.0));
    plan.addOp(computeOp(ComputeUnit::Cpu, "consumer", 0.1)
                   .stageTag("commit")
                   .busyTag(kBusyCpu)
                   .dep(ph));
    ASSERT_TRUE(plan.validate().empty());
    EXPECT_TRUE(findingsWithId(analyzePlan(plan), "PA001").empty());
}

TEST(PlanAnalyzer, PA001FlagsDeadTailOp)
{
    StepPlan plan = cleanPlan();
    plan.addTailOp(
        transferOp(PlanResource::HostPcie, "dead_tail", 0.0, 0.0));
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA001");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "dead_tail");
}

// --- PA002: redundant dependency edges ------------------------------------

TEST(PlanAnalyzer, PA002RejectsDirectlyImpliedEdge)
{
    StepPlan plan;
    plan.layers = 1;
    plan.declareStage("s");
    const std::size_t a = plan.addOp(
        computeOp(ComputeUnit::Gpu, "a", 1.0).stageTag("s").busyTag(
            kBusyGpu));
    const std::size_t b = plan.addOp(
        computeOp(ComputeUnit::Gpu, "b", 1.0).stageTag("s").busyTag(
            kBusyGpu).dep(a));
    // c -> a is implied by c -> b -> a.
    plan.addOp(computeOp(ComputeUnit::Gpu, "c", 1.0)
                   .stageTag("s")
                   .busyTag(kBusyGpu)
                   .dep(a)
                   .dep(b));
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA002");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "c");
    EXPECT_EQ(hits[0].severity, FindingSeverity::Warn);
    EXPECT_NE(hits[0].message.find("'a'"), std::string::npos);
}

TEST(PlanAnalyzer, PA002RejectsTransitivelyImpliedEdge)
{
    StepPlan plan;
    plan.layers = 1;
    plan.declareStage("s");
    const std::size_t a = plan.addOp(
        computeOp(ComputeUnit::Gpu, "a", 1.0).stageTag("s").busyTag(
            kBusyGpu));
    const std::size_t b = plan.addOp(
        computeOp(ComputeUnit::Gpu, "b", 1.0).stageTag("s").busyTag(
            kBusyGpu).dep(a));
    const std::size_t c = plan.addOp(
        computeOp(ComputeUnit::Gpu, "c", 1.0).stageTag("s").busyTag(
            kBusyGpu).dep(b));
    // d -> a is implied two hops away through d -> c -> b -> a.
    plan.addOp(computeOp(ComputeUnit::Gpu, "d", 1.0)
                   .stageTag("s")
                   .busyTag(kBusyGpu)
                   .dep(a)
                   .dep(c));
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA002");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "d");
}

TEST(PlanAnalyzer, PA002AcceptsDiamondJoin)
{
    // A join over two mutually unreachable branches is not redundant.
    StepPlan plan = cleanPlan();
    EXPECT_TRUE(findingsWithId(analyzePlan(plan), "PA002").empty());
}

// --- PA003: defeated prefetch/shadow --------------------------------------

TEST(PlanAnalyzer, PA003RejectsPrefetchBehindTimedWork)
{
    StepPlan plan;
    plan.layers = 1;
    plan.declareStage("s");
    const std::size_t gemm = plan.addOp(
        computeOp(ComputeUnit::Gpu, "gemm", 2.0).stageTag("s").busyTag(
            kBusyGpu));
    // A prefetch that waits on this layer's GEMM cannot be issued a
    // layer ahead: it overlaps nothing.
    const std::size_t fetch = plan.addOp(
        transferOp(PlanResource::HostPcie, "late_fetch", 1.0, 10.0)
            .stageTag("s")
            .busyTag(kBusyDram)
            .dep(gemm)
            .asPrefetch());
    plan.addOp(computeOp(ComputeUnit::Gpu, "consume", 0.5)
                   .stageTag("s")
                   .busyTag(kBusyGpu)
                   .dep(fetch));
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA003");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "late_fetch");
    EXPECT_EQ(hits[0].severity, FindingSeverity::Warn);
}

TEST(PlanAnalyzer, PA003RejectsShadowSerializedBehindTimedWork)
{
    StepPlan plan;
    plan.layers = 1;
    plan.declareStage("s");
    const std::size_t load = plan.addOp(
        transferOp(PlanResource::HostPcie, "load", 2.0, 10.0)
            .stageTag("s")
            .busyTag(kBusyDram));
    // A shadow race that only starts after the op it should race.
    const std::size_t race = plan.addOp(
        computeOp(ComputeUnit::Gpu, "race", 1.0).dep(load).asShadow());
    plan.addOp(computeOp(ComputeUnit::Gpu, "consume", 0.5)
                   .stageTag("s")
                   .busyTag(kBusyGpu)
                   .dep(race));
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA003");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "race");
}

TEST(PlanAnalyzer, PA003AcceptsPrefetchChainsAndRoots)
{
    StepPlan plan;
    plan.layers = 1;
    plan.declareStage("s");
    // Prefetch chains issue ahead together: not defeated.
    const std::size_t stage1 = plan.addOp(
        transferOp(PlanResource::Storage, "stage1", 1.0, 10.0)
            .stageTag("s")
            .busyTag(kBusyStorage)
            .asPrefetch());
    const std::size_t stage2 = plan.addOp(
        transferOp(PlanResource::HostPcie, "stage2", 1.0, 10.0)
            .stageTag("s")
            .busyTag(kBusyDram)
            .dep(stage1)
            .asPrefetch());
    plan.addOp(computeOp(ComputeUnit::Gpu, "consume", 2.0)
                   .stageTag("s")
                   .busyTag(kBusyGpu)
                   .dep(stage2));
    ASSERT_TRUE(plan.validate().empty());
    EXPECT_TRUE(findingsWithId(analyzePlan(plan), "PA003").empty());
}

// --- PA004: energy coverage -----------------------------------------------

TEST(PlanAnalyzer, PA004RejectsUntaggedTimedOpUnderEnergySpec)
{
    StepPlan plan = cleanPlan();
    plan.addOp(computeOp(ComputeUnit::Cpu, "untagged_compute", 0.5)
                   .stageTag("commit"));
    plan.energy.enabled = true;
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA004");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "untagged_compute");
    EXPECT_EQ(hits[0].severity, FindingSeverity::Warn);
}

TEST(PlanAnalyzer, PA004RejectsUntaggedTransferTailOp)
{
    StepPlan plan = cleanPlan();
    plan.declareStage("tail");
    plan.addTailOp(
        transferOp(PlanResource::HostPcie, "untagged_hop", 0.2, 64.0)
            .stageTag("tail"));
    plan.energy.enabled = true;
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA004");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "untagged_hop");
}

TEST(PlanAnalyzer, PA004SilentWithoutEnergySpecAndForShadows)
{
    StepPlan plan = cleanPlan();
    plan.addOp(computeOp(ComputeUnit::Cpu, "untagged_compute", 0.5)
                   .stageTag("commit"));
    // Energy spec disabled: nothing to cover.
    ASSERT_TRUE(plan.validate().empty());
    EXPECT_TRUE(findingsWithId(analyzePlan(plan), "PA004").empty());
    // Shadow ops restate work that is accounted elsewhere: exempt.
    plan.addOp(computeOp(ComputeUnit::Gpu, "race", 1.0).asShadow());
    plan.energy.enabled = true;
    const auto hits = findingsWithId(analyzePlan(plan), "PA004");
    ASSERT_EQ(hits.size(), 1u);  // only untagged_compute
    EXPECT_EQ(hits[0].op, "untagged_compute");
}

// --- PA005: accounting conservation ---------------------------------------

TEST(PlanAnalyzer, PA005RejectsAttnReadExceedingHostRead)
{
    StepPlan plan = cleanPlan();
    plan.addOp(transferOp(PlanResource::HostPcie, "kv_read", 1.0, 300.0)
                   .stageTag("load")
                   .busyTag(kBusyDram)
                   .share(TrafficField::HostRead, 100.0)
                   .share(TrafficField::AttnHostRead, 300.0));
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA005");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "kv_read");
    EXPECT_EQ(hits[0].severity, FindingSeverity::Error);
}

TEST(PlanAnalyzer, PA005RejectsAttnWriteWithoutHostWrite)
{
    // The exact shape of the DeepSpeed-UVM bug this pass surfaced: an
    // attention writeback share with no matching host write.
    StepPlan plan = cleanPlan();
    plan.addOp(transferOp(PlanResource::HostPcie, "kv_commit", 1.0, 50.0)
                   .stageTag("commit")
                   .busyTag(kBusyDram)
                   .share(TrafficField::AttnHostWrite, 50.0));
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA005");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "kv_commit");
}

TEST(PlanAnalyzer, PA005AcceptsEqualAndSubsetShares)
{
    StepPlan plan = cleanPlan();
    plan.addOp(transferOp(PlanResource::HostPcie, "kv_rw", 1.0, 400.0)
                   .stageTag("load")
                   .busyTag(kBusyDram)
                   .share(TrafficField::HostRead, 300.0)
                   .share(TrafficField::AttnHostRead, 300.0)
                   .share(TrafficField::HostWrite, 100.0)
                   .share(TrafficField::AttnHostWrite, 40.0));
    ASSERT_TRUE(plan.validate().empty());
    EXPECT_TRUE(findingsWithId(analyzePlan(plan), "PA005").empty());
}

// --- PA006: phase rules ---------------------------------------------------

TEST(PlanAnalyzer, PA006RejectsPrefillOpInsideDecodePlan)
{
    StepPlan plan = cleanPlan();
    plan.addOp(computeOp(ComputeUnit::Gpu, "prefill_gemm", 1.0)
                   .stageTag("compute")
                   .busyTag(kBusyGpu));
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA006");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "prefill_gemm");
    EXPECT_EQ(hits[0].severity, FindingSeverity::Error);
}

TEST(PlanAnalyzer, PA006RejectsDecodeStageInsidePrefillPlan)
{
    StepPlan plan;
    plan.phase = PlanPhase::Prefill;
    plan.chunk_tokens = 128;
    plan.layers = 2;
    plan.declareStage("decode_gather");
    plan.addOp(computeOp(ComputeUnit::Gpu, "compute", 1.0)
                   .stageTag("decode_gather")
                   .busyTag(kBusyGpu));
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA006");
    // One finding for the tagged op, one for the declared stage.
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].op, "compute");
    EXPECT_EQ(hits[1].op, "");
}

TEST(PlanAnalyzer, PA006AcceptsOwnPhaseNames)
{
    StepPlan plan;
    plan.phase = PlanPhase::Prefill;
    plan.chunk_tokens = 128;
    plan.layers = 2;
    plan.declareStage("prefill_compute");
    plan.addOp(computeOp(ComputeUnit::Gpu, "prefill_compute", 1.0)
                   .stageTag("prefill_compute")
                   .busyTag(kBusyGpu));
    ASSERT_TRUE(plan.validate().empty());
    EXPECT_TRUE(findingsWithId(analyzePlan(plan), "PA006").empty());
}

// --- PA007: prefill energy spec -------------------------------------------

TEST(PlanAnalyzer, PA007RejectsMonolithicPrefillWithEnergySpec)
{
    StepPlan plan;
    plan.phase = PlanPhase::Prefill;
    plan.chunk_tokens = 128;
    plan.layers = 2;
    plan.declareStage("prefill_compute");
    plan.addOp(computeOp(ComputeUnit::Gpu, "prefill_compute", 1.0)
                   .stageTag("prefill_compute")
                   .busyTag(kBusyGpu));
    plan.energy.enabled = true;
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA007");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].op, "");
    EXPECT_EQ(hits[0].severity, FindingSeverity::Error);
}

TEST(PlanAnalyzer, PA007RejectsChunkedPrefillWithEnergySpec)
{
    StepPlan plan;
    plan.phase = PlanPhase::Prefill;
    plan.chunk_index = 1;
    plan.chunk_count = 4;
    plan.chunk_tokens = 32;
    plan.layers = 2;
    plan.declareStage("prefill_compute");
    plan.addOp(computeOp(ComputeUnit::Gpu, "prefill_compute", 1.0)
                   .stageTag("prefill_compute")
                   .busyTag(kBusyGpu));
    plan.energy.enabled = true;
    ASSERT_TRUE(plan.validate().empty());
    EXPECT_EQ(findingsWithId(analyzePlan(plan), "PA007").size(), 1u);
}

TEST(PlanAnalyzer, PA007AcceptsDecodeEnergySpec)
{
    StepPlan plan = cleanPlan();
    plan.energy.enabled = true;
    ASSERT_TRUE(plan.validate().empty());
    EXPECT_TRUE(findingsWithId(analyzePlan(plan), "PA007").empty());
}

// --- slack / bottleneck annotator -----------------------------------------

TEST(PlanAnalyzer, SlackAndBottleneckChain)
{
    StepPlan plan;
    plan.layers = 1;
    plan.declareStage("s");
    // Long branch a(3) -> c(2); short branch b(1); join d(1).
    const std::size_t a = plan.addOp(
        computeOp(ComputeUnit::Gpu, "a", 3.0).stageTag("s").busyTag(
            kBusyGpu));
    const std::size_t b = plan.addOp(
        transferOp(PlanResource::HostPcie, "b", 1.0, 8.0)
            .stageTag("s")
            .busyTag(kBusyDram));
    const std::size_t c = plan.addOp(
        computeOp(ComputeUnit::Gpu, "c", 2.0).stageTag("s").busyTag(
            kBusyGpu).dep(a));
    plan.addOp(computeOp(ComputeUnit::Gpu, "d", 1.0)
                   .stageTag("s")
                   .busyTag(kBusyGpu)
                   .dep(b)
                   .dep(c));
    // An offline op never gates the path: full critical path of slack.
    plan.addOp(computeOp(ComputeUnit::Cpu, "off", 9.0)
                   .stageTag("s")
                   .busyTag(kBusyCpu)
                   .asOffline());
    ASSERT_TRUE(plan.validate().empty());
    const PlanAnalysis an = analyzePlan(plan);
    ASSERT_EQ(an.op_slack.size(), 5u);
    EXPECT_DOUBLE_EQ(an.layer_critical_path, 6.0);
    EXPECT_DOUBLE_EQ(an.op_slack[a], 0.0);
    EXPECT_DOUBLE_EQ(an.op_slack[b], 4.0);  // can slip behind a -> c
    EXPECT_DOUBLE_EQ(an.op_slack[c], 0.0);
    EXPECT_DOUBLE_EQ(an.op_slack[3], 0.0);  // the join 'd'
    EXPECT_DOUBLE_EQ(an.op_slack[4], 6.0);  // offline: full path
    const std::vector<std::size_t> want{a, c, 3};
    EXPECT_EQ(an.bottleneck_chain, want);
}

// --- waivers --------------------------------------------------------------

TEST(PlanAnalyzer, WaiverRoundTrip)
{
    const std::string text =
        "# comment line\n"
        "\n"
        "PA004 activation_hop  # trailing comment\n"
        "PA001 *\n";
    std::vector<std::string> problems;
    const std::vector<PlanWaiver> waivers =
        parsePlanWaivers(text, &problems);
    EXPECT_TRUE(problems.empty());
    ASSERT_EQ(waivers.size(), 2u);
    EXPECT_EQ(waivers[0].id, "PA004");
    EXPECT_EQ(waivers[0].op, "activation_hop");
    EXPECT_EQ(waivers[1].id, "PA001");
    EXPECT_EQ(waivers[1].op, "*");
}

TEST(PlanAnalyzer, WaiverParserReportsMalformedLines)
{
    std::vector<std::string> problems;
    const std::vector<PlanWaiver> waivers = parsePlanWaivers(
        "PA04 too_short\nPA004\nPA004 op extra\nPA005 ok\n", &problems);
    ASSERT_EQ(waivers.size(), 1u);
    EXPECT_EQ(waivers[0].id, "PA005");
    ASSERT_EQ(problems.size(), 3u);
    EXPECT_NE(problems[0].find("line 1"), std::string::npos);
    EXPECT_NE(problems[1].find("line 2"), std::string::npos);
    EXPECT_NE(problems[2].find("line 3"), std::string::npos);
}

TEST(PlanAnalyzer, WaiversMaskMatchingFindings)
{
    StepPlan plan = cleanPlan();
    plan.addOp(computeOp(ComputeUnit::Cpu, "orphan", 0.5));
    ASSERT_TRUE(plan.validate().empty());
    PlanAnalysis a = analyzePlan(plan);
    ASSERT_TRUE(hasUnwaivedErrors(a));
    // A waiver for another op does not mask it.
    applyPlanWaivers(a, {{"PA001", "other_op"}});
    EXPECT_TRUE(hasUnwaivedErrors(a));
    // The exact op label does; so does the wildcard.
    applyPlanWaivers(a, {{"PA001", "orphan"}});
    EXPECT_FALSE(hasUnwaivedErrors(a));
    PlanAnalysis b = analyzePlan(plan);
    applyPlanWaivers(b, {{"PA001", "*"}});
    EXPECT_FALSE(hasUnwaivedErrors(b));
    // A matching op under a different ID does not.
    PlanAnalysis c = analyzePlan(plan);
    applyPlanWaivers(c, {{"PA004", "orphan"}});
    EXPECT_TRUE(hasUnwaivedErrors(c));
}

// --- determinism ----------------------------------------------------------

TEST(PlanAnalyzer, SerialisedFindingsAreByteIdentical)
{
    RunConfig run;
    run.model = modelByName("OPT-66B");
    run.batch = 16;
    run.context_len = 32768;
    run.output_len = 64;
    const SystemConfig sys = defaultSystem();
    for (const EngineKind kind :
         {EngineKind::FlexSsd, EngineKind::DeepSpeedUvm,
          EngineKind::Hilos}) {
        const StepPlan p1 = decodeStepPlanFor(kind, sys, run);
        const StepPlan p2 = decodeStepPlanFor(kind, sys, run);
        const std::string s1 = serializeAnalysis(p1, analyzePlan(p1));
        const std::string s2 = serializeAnalysis(p2, analyzePlan(p2));
        EXPECT_EQ(s1, s2);
        // Same plan analysed twice is byte-identical too.
        EXPECT_EQ(s1, serializeAnalysis(p1, analyzePlan(p1)));
    }
}

TEST(PlanAnalyzer, CallersEvaluationGivesTheSameAnalysis)
{
    // analyzePlan(plan) is analyzePlan(plan, evaluatePlan(plan)) with
    // the evaluation in per-thread scratch: the two serialise alike on
    // every engine's plans and on hand-built plans with findings.
    RunConfig run;
    run.model = modelByName("OPT-66B");
    run.batch = 16;
    run.context_len = 32768;
    run.output_len = 64;
    const SystemConfig sys = defaultSystem();
    std::vector<StepPlan> plans;
    for (const EngineKind kind :
         {EngineKind::FlexDram, EngineKind::FlexSsd,
          EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
          EngineKind::VllmMultiGpu, EngineKind::Hilos}) {
        plans.push_back(decodeStepPlanFor(kind, sys, run));
        plans.push_back(prefillStepPlanFor(kind, sys, run));
    }
    StepPlan untagged = cleanPlan();
    untagged.addOp(computeOp(ComputeUnit::Cpu, "untagged_compute", 0.5)
                       .stageTag("commit"));
    untagged.energy.enabled = true;
    plans.push_back(untagged);
    plans.push_back(cleanPlan());
    std::size_t findings = 0;
    for (const StepPlan &plan : plans) {
        ASSERT_TRUE(plan.feasible) << plan.note;
        const PlanAnalysis own = analyzePlan(plan);
        const PlanAnalysis given = analyzePlan(plan, evaluatePlan(plan));
        EXPECT_EQ(serializeAnalysis(plan, own),
                  serializeAnalysis(plan, given));
        EXPECT_EQ(own.op_slack, given.op_slack);
        EXPECT_EQ(own.bottleneck_chain, given.bottleneck_chain);
        findings += own.findings.size();
    }
    EXPECT_GT(findings, 0u);
}

TEST(PlanAnalyzer, FindingNumbersRenderAsPrintfG9)
{
    // Finding and serialisation numbers go through to_chars; they must
    // read as "%.9g" does, with -0 folded to 0 and nan/inf spelled out.
    const double values[] = {
        0.0,
        1.0,
        -1.0,
        0.1,
        1.0 / 3.0,
        -2.0 / 3.0,
        184320.0,
        6144.0,
        0.000123456789,
        0.0001,
        0.00001,
        123456789.0,
        999999999.0,
        999999999.5,
        1e9,
        1234567890.0,
        4294967296.0,
        1e15 + 1.0,
        1e300,
        -1e300,
        1e-300,
        -1e-300,
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        2.2250738585072009e-308,  // largest subnormal
        1e-310,
        -1e-320,
    };
    for (const double v : values) {
        char expected[64];
        std::snprintf(expected, sizeof(expected), "%.9g", v);
        std::string out = "x=";
        appendFindingNumber(out, v);
        EXPECT_EQ(out, std::string("x=") + expected) << v;
    }
    const auto render = [](double v) {
        std::string out;
        appendFindingNumber(out, v);
        return out;
    };
    EXPECT_EQ(render(-0.0), "0");
    EXPECT_EQ(render(std::numeric_limits<double>::quiet_NaN()), "nan");
    EXPECT_EQ(render(-std::numeric_limits<double>::quiet_NaN()), "nan");
    EXPECT_EQ(render(std::numeric_limits<double>::infinity()), "inf");
    EXPECT_EQ(render(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(PlanAnalyzer, FindingMessagesRenderTheirNumbersAndOps)
{
    // One PA004 finding per untagged op: its op reference and both
    // numbers, byte for byte.
    StepPlan plan = cleanPlan();
    plan.addOp(computeOp(ComputeUnit::Cpu, "untagged_compute", 184320.0)
                   .stageTag("commit"));
    plan.addOp(transferOp(PlanResource::HostPcie, "tiny", 1e-300, 1e15 + 1)
                   .stageTag("commit"));
    plan.energy.enabled = true;
    ASSERT_TRUE(plan.validate().empty());
    const auto hits = findingsWithId(analyzePlan(plan), "PA004");
    ASSERT_EQ(hits.size(), 2u);
    const std::string tail =
        " bytes with no kBusy* tag; computeEnergy prices busy lanes only, "
        "so this work is billed at idle power";
    EXPECT_EQ(hits[0].message,
              "layer op #3 'untagged_compute': op carries 184320 s / 0" +
                  tail);
    EXPECT_EQ(hits[1].message,
              "layer op #4 'tiny': op carries 1e-300 s / 1e+15" + tail);
}

// --- the repo-level contract: every engine analyses clean -----------------

TEST(PlanAnalyzer, AllEnginesBothPhasesCleanUnderWaivers)
{
    std::ifstream in(test::goldenDir() + "/../plan_waivers.txt");
    ASSERT_TRUE(in) << "tests/plan_waivers.txt missing";
    std::stringstream buf;
    buf << in.rdbuf();
    std::vector<std::string> problems;
    const std::vector<PlanWaiver> waivers =
        parsePlanWaivers(buf.str(), &problems);
    EXPECT_TRUE(problems.empty())
        << "malformed waiver: " << problems.front();

    RunConfig run;
    run.model = modelByName("OPT-66B");
    run.batch = 16;
    run.context_len = 32768;
    run.output_len = 64;
    const SystemConfig sys = defaultSystem();
    for (const EngineKind kind :
         {EngineKind::FlexDram, EngineKind::FlexSsd,
          EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
          EngineKind::VllmMultiGpu, EngineKind::Hilos}) {
        for (const bool prefill : {false, true}) {
            const StepPlan plan =
                prefill ? prefillStepPlanFor(kind, sys, run)
                        : decodeStepPlanFor(kind, sys, run);
            if (!plan.feasible)
                continue;
            PlanAnalysis a = analyzePlan(plan);
            // No error-severity findings at all — errors are builder
            // bugs and are never waived away in this repo.
            for (const PlanFinding &f : a.findings)
                EXPECT_NE(f.severity, FindingSeverity::Error)
                    << f.id << ": " << f.message;
            // Every warning is pinned in tests/plan_waivers.txt.
            applyPlanWaivers(a, waivers);
            for (const PlanFinding &f : a.findings)
                EXPECT_TRUE(f.waived)
                    << "unwaived finding " << f.id << ": " << f.message;
        }
    }
}

}  // namespace
}  // namespace hilos

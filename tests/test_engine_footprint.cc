/**
 * @file
 * Heap footprint of plan builds and runs, counted deterministically.
 *
 * Every engine is cheap to construct: building one and asking it for
 * its decode and prefill plans allocates kilobytes, not the megabytes
 * a device model with a functional FTL would cost. A warm sweep point
 * is cheaper still: a PlanCache hit re-prices the cached topology in
 * place without touching the heap, and a whole runCached() point
 * allocates only a handful of times. A cold plan build allocates a
 * handful of times too, and a whole faulted fleet run a few hundred.
 * Once warm, a replay allocates only the vectors it returns, and an
 * analysis only its slack, chain and findings.
 * The bounds are byte and call counts, not wall times, so they cannot
 * flake on a loaded host.
 *
 * This binary replaces the global operator new with a counting one;
 * it is its own executable so the counter affects nothing else.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/hilos.h"
#include "runtime/event_sim.h"
#include "runtime/plan_analyzer.h"
#include "runtime/plan_cache.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_calls{0};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_bytes.fetch_add(size, std::memory_order_relaxed);
        g_calls.fetch_add(1, std::memory_order_relaxed);
    }
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

}  // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace hilos {
namespace {

/**
 * The counts are of the production path. The opt-in analyzer gate
 * (HILOS_ANALYZE_PLANS, which CI sets for the whole suite) adds its own
 * allocations to every applyPlan, so it is scrubbed before main, ahead
 * of the first plan evaluation that caches the flag. Other binaries
 * analyze the same plans.
 */
const bool kAnalyzerGateOff = [] {
    unsetenv("HILOS_ANALYZE_PLANS");
    return true;
}();

constexpr std::uint64_t kFootprintBound = 64 * 1024;

constexpr EngineKind kAllEngines[] = {
    EngineKind::FlexDram,        EngineKind::FlexSsd,
    EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
    EngineKind::VllmMultiGpu,    EngineKind::Hilos};

/** Calls to operator new made by fn(). */
template <typename Fn>
std::uint64_t
allocationsOf(const Fn &fn)
{
    g_calls.store(0);
    g_counting.store(true);
    fn();
    g_counting.store(false);
    return g_calls.load();
}

/** Bytes allocated by makeEngine plus a decode and a prefill plan. */
std::uint64_t
coldPlanBytes(EngineKind kind, const SystemConfig &sys,
              const RunConfig &run)
{
    g_bytes.store(0);
    g_counting.store(true);
    const auto engine = makeEngine(kind, sys);
    const StepPlan decode = decodeStepPlanFor(kind, sys, run);
    const StepPlan prefill = prefillStepPlanFor(kind, sys, run);
    g_counting.store(false);
    EXPECT_NE(engine, nullptr);
    EXPECT_TRUE(decode.feasible) << decode.note;
    EXPECT_TRUE(prefill.feasible) << prefill.note;
    return g_bytes.load();
}

TEST(EngineFootprint, ColdPlanBuildAllocatesUnder64KiB)
{
    const SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt66b();
    run.batch = 16;
    run.context_len = 16384;
    run.output_len = 64;
    for (const EngineKind kind : kAllEngines) {
        const std::uint64_t bytes = coldPlanBytes(kind, sys, run);
        EXPECT_GT(bytes, 0u) << "the allocation counter is not wired";
        EXPECT_LT(bytes, kFootprintBound)
            << makeEngine(kind, sys)->name() << " allocated " << bytes
            << " B for one engine and its two plans";
    }
}

/**
 * The point the allocation counts are taken at: small enough that no
 * engine shrinks the batch, since a shrink writes a `note` (a string
 * the run owns).
 */
RunConfig
allocationPoint()
{
    RunConfig run;
    run.model = opt66b();
    run.batch = 2;
    run.context_len = 8192;
    run.output_len = 64;
    return run;
}

/**
 * A cold plan build stores its ops as one vector of records plus a
 * string arena per op array, and its stage and resource lists reserve
 * room on their first declaration, so it allocates a handful of times,
 * not once per field per growth step. HILOS's decode plan is the most:
 * its 14 ops outgrow the first record reserve.
 */
TEST(EngineFootprint, ColdPlanBuildAllocatesAtMostSevenTimes)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = allocationPoint();
    for (const EngineKind kind : kAllEngines) {
        const auto engine = makeEngine(kind, sys);
        RunResult res;
        // A first pair of builds fills what the process keeps across
        // builds (HILOS's alpha candidates are a function-local static),
        // so the counts do not depend on which test ran first.
        StepPlan first;
        engine->buildDecodePlan(run, res, first);
        first.clear();
        engine->buildPrefillPlan(run, 0, 1, first);
        StepPlan decode;
        StepPlan prefill;
        const std::uint64_t decode_allocs = allocationsOf(
            [&] { engine->buildDecodePlan(run, res, decode); });
        const std::uint64_t prefill_allocs = allocationsOf(
            [&] { engine->buildPrefillPlan(run, 0, 1, prefill); });
        EXPECT_TRUE(decode.feasible && prefill.feasible) << engine->name();
        EXPECT_LE(decode_allocs, 7u)
            << engine->name() << " cold decode plan build";
        EXPECT_LE(prefill_allocs, 7u)
            << engine->name() << " cold prefill plan build";
    }
}

/** Whether `s` holds its characters on the heap. */
bool
onHeap(const std::string &s)
{
    return s.capacity() > std::string().capacity();
}

/**
 * A replay keeps its resolved ops, dependency array, finish times and
 * pool slots in per-thread scratch: once warm, a call allocates only
 * the result vectors it returns.
 */
TEST(EngineFootprint, WarmSimulatePlanAllocatesOnlyItsResultVectors)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = allocationPoint();
    for (const EngineKind kind : kAllEngines) {
        const std::string name = makeEngine(kind, sys)->name();
        for (const StepPlan &plan : {decodeStepPlanFor(kind, sys, run),
                                     prefillStepPlanFor(kind, sys, run)}) {
            ASSERT_TRUE(plan.feasible) << name << plan.note;
            (void)simulatePlan(plan);
            PlanSimResult sim;
            const std::uint64_t allocs =
                allocationsOf([&] { sim = simulatePlan(plan); });
            std::uint64_t results = 0;
            results += sim.layer_times.empty() ? 0 : 1;
            results += sim.first_layer_finish.empty() ? 0 : 1;
            results += sim.resource_utilization.empty() ? 0 : 1;
            results += sim.unit_utilization.empty() ? 0 : 1;
            for (const auto &entries :
                 {sim.resource_utilization, sim.unit_utilization})
                for (const auto &[pool, util] : entries)
                    results += onHeap(pool) ? 1 : 0;
            EXPECT_GE(results, 3u) << name;
            EXPECT_EQ(allocs, results)
                << name << " warm " << planPhaseName(plan.phase)
                << " simulatePlan";
        }
    }
}

/**
 * An analysis keeps its reach rows, latest finishes and findings in
 * per-thread scratch and renders every message into one buffer: once
 * warm, a call given the caller's evaluation allocates only op_slack,
 * bottleneck_chain, findings and each finding's strings. Without one
 * it evaluates into per-thread scratch too, whose breakdown a plan of
 * the same stage order refills in place, long stage names included.
 */
TEST(EngineFootprint, WarmAnalyzePlanAllocatesOnlyItsResults)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = allocationPoint();
    std::size_t findings = 0;
    for (const EngineKind kind : kAllEngines) {
        const std::string name = makeEngine(kind, sys)->name();
        for (const StepPlan &plan : {decodeStepPlanFor(kind, sys, run),
                                     prefillStepPlanFor(kind, sys, run)}) {
            ASSERT_TRUE(plan.feasible) << name << plan.note;
            const PlanEvaluation ev = evaluatePlan(plan);
            (void)analyzePlan(plan);
            PlanAnalysis with_ev;
            PlanAnalysis own_ev;
            const std::uint64_t with_ev_allocs =
                allocationsOf([&] { with_ev = analyzePlan(plan, ev); });
            const std::uint64_t own_ev_allocs =
                allocationsOf([&] { own_ev = analyzePlan(plan); });
            std::uint64_t results = 0;
            results += with_ev.op_slack.empty() ? 0 : 1;
            results += with_ev.bottleneck_chain.empty() ? 0 : 1;
            results += with_ev.findings.empty() ? 0 : 1;
            for (const PlanFinding &f : with_ev.findings)
                results += (onHeap(f.op) ? 1 : 0) + (onHeap(f.message) ? 1 : 0);
            findings += with_ev.findings.size();
            const char *phase = planPhaseName(plan.phase);
            EXPECT_EQ(with_ev_allocs, results)
                << name << " warm " << phase << " analyzePlan(plan, ev)";
            EXPECT_EQ(own_ev_allocs, results)
                << name << " warm " << phase << " analyzePlan(plan)";
        }
    }
    EXPECT_GT(findings, 0u) << "no plan exercised the finding renderer";
}

/** A placement over a host mask allocates only its assignments. */
TEST(EngineFootprint, FleetPlacementAllocatesAtMostOnce)
{
    HilosOptions opts;
    opts.num_devices = 8;
    RunConfig run = allocationPoint();
    run.batch = 100;
    for (const PlacementPolicy policy :
         {PlacementPolicy::Spread, PlacementPolicy::Pack,
          PlacementPolicy::FaultAware}) {
        const FleetScheduler sched(defaultSystem(), opts, policy, 2);
        FleetPlacement place;
        const std::uint64_t allocs = allocationsOf(
            [&] { place = sched.place(run, run.batch, 0xF0F0F0F0F0F0F0F0); });
        EXPECT_EQ(place.assignments.size(), 32u);
        EXPECT_EQ(place.placed_batch, run.batch);
        EXPECT_LE(allocs, 1u) << placementPolicyName(policy);
    }
}

/**
 * One faulted fleet run: eight hosts of eight SmartSSDs, NAND read
 * errors on every device and one host lost a third of the way into
 * decode. The fleet re-places the batch and rebuilds the lost shards;
 * a placement allocates only its assignments, and the epoch fold
 * evaluates every plan into one PlanEvaluation. Run again, the fold
 * and the host runs rebuild their plans in run()'s per-thread cache,
 * and a fold pass that lost nothing since the last rebuild skips the
 * placement.
 */
TEST(EngineFootprint, FaultedFleetRunAllocatesAtMost250Times)
{
    const SystemConfig sys = defaultSystem();
    FleetConfig fleet;
    fleet.hosts = 8;
    fleet.devices_per_host = 8;
    RunConfig run;
    run.model = opt66b();
    run.batch = 16 * fleet.hosts;
    run.context_len = 16384;
    run.output_len = 64;
    const RunResult healthy = FleetEngine(sys, fleet).run(run);
    ASSERT_TRUE(healthy.feasible) << healthy.note;
    fleet.fault_plan.addNandReadError(1e-3).addHostFailure(
        healthy.prefill_time + (static_cast<double>(run.output_len) / 3.0) *
                                   healthy.decode_step_time,
        3);
    const FleetEngine engine(sys, fleet);
    RunResult res;
    const std::uint64_t allocs =
        allocationsOf([&] { res = engine.run(run); });
    ASSERT_TRUE(res.feasible) << res.note;
    EXPECT_EQ(res.fleet.hosts_failed, 1u);
    EXPECT_GE(res.fleet.epochs.size(), 2u);
    EXPECT_GT(res.fleet.rebuild_time, 0.0);
    EXPECT_LE(allocs, 250u) << "faulted 8-host fleet run";
    const std::uint64_t warm_allocs =
        allocationsOf([&] { res = engine.run(run); });
    EXPECT_LE(warm_allocs, 38u) << "warm faulted 8-host fleet run";
}

TEST(EngineFootprint, PlanCacheHitAllocatesNothing)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = allocationPoint();
    for (const EngineKind kind : kAllEngines) {
        const auto engine = makeEngine(kind, sys);
        const std::string name = engine->name();
        PlanCache cache;
        RunResult res;
        const auto decode = [&](StepPlan &p) {
            res = RunResult{};
            engine->buildDecodePlan(run, res, p);
        };
        const auto prefill = [&](StepPlan &p) {
            engine->buildPrefillPlan(run, 0, 1, p);
        };
        const std::uint64_t decode_key =
            PlanCache::keyOf(name, run.model.name, PlanPhase::Decode);
        const std::uint64_t prefill_key =
            PlanCache::keyOf(name, run.model.name, PlanPhase::Prefill);
        (void)cache.build(decode_key, decode);
        (void)cache.build(prefill_key, prefill);
        const std::uint64_t hits = cache.stats().hits;

        const std::uint64_t decode_allocs =
            allocationsOf([&] { (void)cache.build(decode_key, decode); });
        const std::uint64_t prefill_allocs =
            allocationsOf([&] { (void)cache.build(prefill_key, prefill); });
        EXPECT_EQ(cache.stats().hits, hits + 2) << name;
        EXPECT_TRUE(res.feasible && res.note.empty()) << name << res.note;
        EXPECT_EQ(decode_allocs, 0u) << name << " decode plan rebuild";
        EXPECT_EQ(prefill_allocs, 0u) << name << " prefill plan rebuild";
    }
}

TEST(EngineFootprint, WarmRunCachedPointAllocatesAtMostFiveTimes)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = allocationPoint();
    for (const EngineKind kind : kAllEngines) {
        const auto engine = makeEngine(kind, sys);
        PlanCache cache;
        (void)engine->runCached(run, cache);
        RunResult res;
        const std::uint64_t allocs =
            allocationsOf([&] { res = engine->runCached(run, cache); });
        EXPECT_TRUE(res.feasible && res.note.empty())
            << engine->name() << res.note;
        EXPECT_EQ(cache.stats().misses, 2u) << engine->name();
        EXPECT_EQ(cache.stats().hits, 2u) << engine->name();
        EXPECT_LE(allocs, 5u) << engine->name() << " warm runCached point";
    }
}

TEST(EngineFootprint, ValidPlanValidatesInAtMostFiveAllocations)
{
    const SystemConfig sys = defaultSystem();
    const RunConfig run = allocationPoint();
    for (const EngineKind kind : kAllEngines) {
        const StepPlan decode = decodeStepPlanFor(kind, sys, run);
        const StepPlan prefill = prefillStepPlanFor(kind, sys, run);
        std::size_t problems = 0;
        const std::uint64_t decode_allocs =
            allocationsOf([&] { problems += decode.validate().size(); });
        const std::uint64_t prefill_allocs =
            allocationsOf([&] { problems += prefill.validate().size(); });
        const std::string name = makeEngine(kind, sys)->name();
        EXPECT_EQ(problems, 0u) << name;
        EXPECT_LE(decode_allocs, 5u) << name << " decode plan validate()";
        EXPECT_LE(prefill_allocs, 5u) << name << " prefill plan validate()";
    }
}

}  // namespace
}  // namespace hilos

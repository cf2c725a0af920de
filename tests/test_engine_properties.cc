/**
 * @file
 * Property-style sweeps over every inference engine: invariants that
 * must hold at any grid point (monotonicity in context, batch scaling,
 * energy positivity, traffic accounting, scheduler optimality) rather
 * than point checks against paper numbers.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/hilos.h"

namespace hilos {
namespace {

std::unique_ptr<InferenceEngine>
build(EngineKind kind)
{
    static SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    return makeEngine(kind, sys, opts);
}

RunConfig
makeRun(const ModelConfig &m, std::uint64_t batch, std::uint64_t context)
{
    RunConfig run;
    run.model = m;
    run.batch = batch;
    run.context_len = context;
    run.output_len = 64;
    return run;
}

using GridPoint = std::tuple<EngineKind, const char *>;

class EngineGrid : public ::testing::TestWithParam<GridPoint>
{
  protected:
    std::unique_ptr<InferenceEngine> engine =
        build(std::get<0>(GetParam()));
    ModelConfig model = modelByName(std::get<1>(GetParam()));
};

TEST_P(EngineGrid, ThroughputNonIncreasingInContext)
{
    // Capacity-limited engines shrink the batch as contexts grow, so
    // raw step time can fall; tokens/s must still never improve with a
    // longer context.
    double prev = 1e18;
    for (std::uint64_t s : {4096ull, 16384ull, 65536ull}) {
        const RunResult r = engine->run(makeRun(model, 8, s));
        if (!r.feasible)
            continue;  // capacity cliffs are allowed, not regressions
        EXPECT_LE(r.decodeThroughput(), prev * 1.0001)
            << engine->name() << " s=" << s;
        prev = r.decodeThroughput();
    }
}

TEST_P(EngineGrid, ThroughputNonDecreasingInRequestedBatch)
{
    // More requested batch never hurts: engines either serve it or
    // shrink to their capacity.
    double prev = 0.0;
    for (std::uint64_t b : {1ull, 4ull, 16ull}) {
        const RunResult r = engine->run(makeRun(model, b, 16384));
        if (!r.feasible)
            continue;
        EXPECT_GE(r.decodeThroughput(), prev * 0.999)
            << engine->name() << " b=" << b;
        prev = r.decodeThroughput();
    }
}

TEST_P(EngineGrid, FeasibleRunsHaveConsistentAccounting)
{
    const RunResult r = engine->run(makeRun(model, 8, 16384));
    if (!r.feasible)
        GTEST_SKIP() << "infeasible at this grid point";
    EXPECT_GT(r.decode_step_time, 0.0);
    EXPECT_GT(r.prefill_time, 0.0);
    EXPECT_NEAR(r.total_time,
                r.prefill_time + 64.0 * r.decode_step_time,
                1e-6 * r.total_time);
    EXPECT_GE(r.effective_batch, 1u);
    EXPECT_LE(r.effective_batch, 8u * 2);  // swap modes keep batch
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_GE(r.breakdown.sum(), r.decode_step_time * 0.5);
    EXPECT_GE(r.traffic.host_read_bytes, 0.0);
}

TEST_P(EngineGrid, EnergyScalesWithRuntime)
{
    const RunResult a = engine->run(makeRun(model, 8, 8192));
    const RunResult b = engine->run(makeRun(model, 8, 65536));
    if (!a.feasible || !b.feasible)
        GTEST_SKIP();
    EXPECT_GT(b.energy.total(), a.energy.total());
}

TEST_P(EngineGrid, EndToEndThroughputBelowDecodeThroughput)
{
    const RunResult r = engine->run(makeRun(model, 8, 16384));
    if (!r.feasible)
        GTEST_SKIP();
    // Prefill only adds time, so per-token end-to-end rate can't beat
    // the steady-state decode rate.
    EXPECT_LE(r.endToEndThroughput(64), r.decodeThroughput() * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineGrid,
    ::testing::Combine(
        ::testing::Values(EngineKind::FlexSsd, EngineKind::FlexDram,
                          EngineKind::FlexSmartSsdRaw,
                          EngineKind::DeepSpeedUvm, EngineKind::Hilos),
        ::testing::Values("OPT-30B", "OPT-66B", "Qwen2.5-32B",
                          "Mixtral-8x7B")),
    [](const ::testing::TestParamInfo<GridPoint> &info) {
        static SystemConfig sys = defaultSystem();
        std::string name =
            makeEngine(std::get<0>(info.param), sys)->name() +
            std::string("_") + std::get<1>(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(HilosProperties, SchedulerAlphaBeatsEveryOverride)
{
    // The Cache Scheduler's alpha must never lose to a manual override
    // on the workload it optimised for.
    SystemConfig sys = defaultSystem();
    for (unsigned n : {4u, 8u, 16u}) {
        const RunConfig run = makeRun(opt66b(), 16, 32768);
        HilosOptions sched;
        sched.num_devices = n;
        const double best =
            HilosEngine(sys, sched).run(run).decodeThroughput();
        for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
            HilosOptions manual = sched;
            manual.alpha_override = alpha;
            const double got =
                HilosEngine(sys, manual).run(run).decodeThroughput();
            EXPECT_LE(got, best * 1.0001)
                << "n=" << n << " alpha=" << alpha;
        }
    }
}

TEST(HilosProperties, InternalTrafficDwarfsHostTraffic)
{
    // The NSP thesis: attention bytes stay on internal paths.
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    opts.xcache = false;
    const RunResult r =
        HilosEngine(sys, opts).run(makeRun(opt175b(), 16, 65536));
    EXPECT_GT(r.traffic.internal_bytes,
              20.0 * (r.traffic.attn_host_read_bytes +
                      r.traffic.attn_host_write_bytes));
}

TEST(HilosProperties, XcacheShiftsTrafficToHost)
{
    SystemConfig sys = defaultSystem();
    HilosOptions on, off;
    on.num_devices = 8;
    off.num_devices = 8;
    off.xcache = false;
    const RunConfig run = makeRun(opt66b(), 16, 32768);
    const RunResult with_x = HilosEngine(sys, on).run(run);
    const RunResult without = HilosEngine(sys, off).run(run);
    EXPECT_GT(with_x.traffic.attn_host_read_bytes,
              10.0 * without.traffic.attn_host_read_bytes);
    EXPECT_LT(with_x.traffic.internal_bytes,
              without.traffic.internal_bytes);
}

TEST(HilosProperties, SpillIntervalDoesNotChangeResultsOnlySpeed)
{
    SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun(opt66b(), 16, 16384);
    double prev_tput = -1.0;
    for (unsigned c : {4u, 16u, 64u}) {
        HilosOptions opts;
        opts.num_devices = 8;
        opts.spill_interval = c;
        const RunResult r = HilosEngine(sys, opts).run(run);
        EXPECT_TRUE(r.feasible);
        if (prev_tput > 0) {
            EXPECT_NEAR(r.decodeThroughput(), prev_tput,
                        prev_tput * 0.05);  // small perturbations only
        }
        prev_tput = r.decodeThroughput();
    }
}

TEST(HilosProperties, IspSystemMatchesFourSmartSsds)
{
    // §7.1's end-to-end parity claim as an invariant.
    SystemConfig smart = defaultSystem();
    SystemConfig isp = ispSystem(1);
    const RunConfig run = makeRun(opt66b(), 16, 32768);
    HilosOptions four;
    four.num_devices = 4;
    HilosOptions one;
    one.num_devices = 1;
    const double t4 =
        HilosEngine(smart, four).run(run).decodeThroughput();
    const double t1 = HilosEngine(isp, one).run(run).decodeThroughput();
    EXPECT_GT(t1 / t4, 0.8);
    EXPECT_LT(t1 / t4, 1.5);
}

}  // namespace
}  // namespace hilos

/**
 * @file
 * Tests for the slice-level HILOS simulator, the test oracle in
 * support/slice_sim.h, and its agreement with the analytic engine.
 */

#include <gtest/gtest.h>

#include "core/hilos.h"
#include "runtime/event_sim.h"
#include "support/slice_sim.h"
#include "support/tolerances.h"

namespace hilos {
namespace {

using test::HilosEventSimulator;
using test::EventSimResult;

RunConfig
makeRun(const ModelConfig &m, std::uint64_t context)
{
    RunConfig run;
    run.model = m;
    run.batch = 16;
    run.context_len = context;
    run.output_len = 64;
    return run;
}

TEST(EventSim, AgreesWithAnalyticEngine)
{
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const HilosEngine analytic(sys, opts);
    const HilosEventSimulator sim(sys, opts);
    for (std::uint64_t s : {8192ull, 32768ull, 131072ull}) {
        const RunConfig run = makeRun(opt66b(), s);
        const double a = analytic.run(run).decode_step_time;
        const double e = sim.simulateDecodeStep(run).decode_step_time;
        EXPECT_GT(e / a, 0.7) << "s=" << s;
        EXPECT_LT(e / a, 1.45) << "s=" << s;
    }
}

TEST(EventSim, MonotonicInContext)
{
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const HilosEventSimulator sim(sys, opts);
    Seconds prev = 0;
    for (std::uint64_t s : {4096ull, 16384ull, 65536ull}) {
        const Seconds t =
            sim.simulateDecodeStep(makeRun(opt66b(), s)).decode_step_time;
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(EventSim, MoreDevicesAreFaster)
{
    SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun(opt66b(), 65536);
    HilosOptions o4, o16;
    o4.num_devices = 4;
    o16.num_devices = 16;
    const Seconds t4 = HilosEventSimulator(sys, o4)
                           .simulateDecodeStep(run)
                           .decode_step_time;
    const Seconds t16 = HilosEventSimulator(sys, o16)
                            .simulateDecodeStep(run)
                            .decode_step_time;
    EXPECT_GT(t4, 1.5 * t16);
}

TEST(EventSim, LayerTimesCoverAllLayers)
{
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const HilosEventSimulator sim(sys, opts);
    const EventSimResult r =
        sim.simulateDecodeStep(makeRun(opt66b(), 16384));
    EXPECT_EQ(r.layer_times.size(), opt66b().layers);
    Seconds sum = 0;
    for (Seconds t : r.layer_times) {
        EXPECT_GT(t, 0.0);
        sum += t;
    }
    // Layer intervals are measured from each layer's start, which can
    // overlap the previous layer's weight prefetch, so the sum is close
    // to (but not above) the step plus one prefetch window.
    EXPECT_NEAR(sum, r.decode_step_time, 0.15 * r.decode_step_time);
}

TEST(EventSim, InternalPathIsTheHotResource)
{
    // Under the default config the devices' internal reads dominate;
    // the uplink and GPU stay comfortably below saturation (this is
    // Fig. 4's observation at transfer granularity).
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    opts.xcache = false;
    const HilosEventSimulator sim(sys, opts);
    const EventSimResult r =
        sim.simulateDecodeStep(makeRun(opt66b(), 65536));
    EXPECT_GT(r.internal_utilization, 0.5);
    EXPECT_LT(r.gpu_utilization, 0.2);
}

/** Replayed time of chunk `chunk` of `chunks` of the HILOS prefill. */
Seconds
replayPrefill(const SystemConfig &sys, const HilosOptions &opts,
              const RunConfig &run, std::uint64_t chunk = 0,
              std::uint64_t chunks = 1)
{
    return simulatePlan(prefillStepPlanFor(EngineKind::Hilos, sys, run,
                                           chunk, chunks, opts))
        .decode_step_time;
}

TEST(EventSim, PrefillAgreesWithAnalyticModel)
{
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const HilosEngine analytic(sys, opts);
    for (std::uint64_t s : {8192ull, 32768ull}) {
        const RunConfig run = makeRun(opt66b(), s);
        const Seconds a = analytic.run(run).prefill_time;
        const Seconds e = replayPrefill(sys, opts, run);
        EXPECT_GT(e / a, test::kReplayAgreementLo) << "s=" << s;
        EXPECT_LT(e / a, test::kReplayAgreementHi) << "s=" << s;
    }
}

TEST(EventSim, PrefillMonotonicInContext)
{
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    Seconds prev = 0;
    for (std::uint64_t s : {4096ull, 16384ull, 65536ull}) {
        const Seconds t = replayPrefill(sys, opts, makeRun(opt66b(), s));
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(EventSim, PrefillChunkSizeIsSecondOrder)
{
    // Chunking granularity must not swing the total: four chunked
    // passes re-pay only per-pass costs over the monolithic prefill.
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const RunConfig run = makeRun(opt66b(), 32768);
    const Seconds mono = replayPrefill(sys, opts, run);
    Seconds chunked = 0;
    for (std::uint64_t k = 0; k < 4; ++k)
        chunked += replayPrefill(sys, opts, run, k, 4);
    EXPECT_NEAR(chunked / mono, 1.0, 0.25);
}

TEST(EventSim, XCacheLoadsTheGdsPath)
{
    SystemConfig sys = defaultSystem();
    HilosOptions with_x, without_x;
    with_x.num_devices = 8;
    without_x.num_devices = 8;
    without_x.xcache = false;
    const RunConfig run = makeRun(opt66b(), 65536);
    const EventSimResult rx =
        HilosEventSimulator(sys, with_x).simulateDecodeStep(run);
    const EventSimResult r0 =
        HilosEventSimulator(sys, without_x).simulateDecodeStep(run);
    EXPECT_GT(rx.gds_utilization, 0.3);
    EXPECT_LT(r0.gds_utilization, 0.01);
    EXPECT_LT(rx.decode_step_time, r0.decode_step_time);  // X-cache helps
}

}  // namespace
}  // namespace hilos

/**
 * @file
 * Tests for the trace recorder and its Chrome trace-event export,
 * including an end-to-end recording from the event simulator.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/hilos.h"
#include "sim/trace.h"
#include "support/slice_sim.h"

namespace hilos {
namespace {

using test::HilosEventSimulator;
using test::EventSimResult;

TEST(Trace, RecordsIntervalsInOrder)
{
    TraceRecorder tr;
    tr.record("gpu", "a", 0.0, 1.0);
    tr.record("ssd", "b", 0.5, 2.0);
    ASSERT_EQ(tr.size(), 2u);
    EXPECT_EQ(tr.events()[0].name, "a");
    EXPECT_EQ(tr.events()[1].track, "ssd");
}

TEST(Trace, TrackFilterAndBusyTime)
{
    TraceRecorder tr;
    tr.record("gpu", "a", 0.0, 1.0);
    tr.record("gpu", "b", 2.0, 2.5);
    tr.record("ssd", "c", 0.0, 10.0);
    EXPECT_EQ(tr.track("gpu").size(), 2u);
    EXPECT_DOUBLE_EQ(tr.busyTime("gpu"), 1.5);
    EXPECT_DOUBLE_EQ(tr.busyTime("ssd"), 10.0);
    EXPECT_DOUBLE_EQ(tr.busyTime("none"), 0.0);
}

TEST(Trace, BackwardsIntervalDies)
{
    TraceRecorder tr;
    EXPECT_DEATH(tr.record("gpu", "bad", 2.0, 1.0), "ends before");
}

TEST(Trace, ChromeJsonShape)
{
    TraceRecorder tr;
    tr.record("gpu", "kernel", 1e-3, 2e-3);
    std::ostringstream oss;
    tr.writeChromeTrace(oss);
    const std::string json = oss.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"kernel\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);  // us
    EXPECT_NE(json.find("\"dur\":1000"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(Trace, ClearEmptiesRecorder)
{
    TraceRecorder tr;
    tr.record("gpu", "a", 0.0, 1.0);
    tr.clear();
    EXPECT_EQ(tr.size(), 0u);
}

TEST(Trace, EventSimProducesConsistentTrace)
{
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 4;
    const HilosEventSimulator sim(sys, opts);
    RunConfig run;
    run.model = opt30b();
    run.batch = 4;
    run.context_len = 4096;
    run.output_len = 16;

    TraceRecorder tr;
    const EventSimResult r = sim.simulateDecodeStep(run, &tr);
    EXPECT_GT(tr.size(), run.model.layers);  // at least one per layer

    // The per-layer span track covers the whole step.
    const auto layers = tr.track("layers");
    ASSERT_EQ(layers.size(), run.model.layers);
    EXPECT_NEAR(layers.back().end, r.decode_step_time, 1e-9);

    // No interval exceeds the step; begins never after ends.
    for (const TraceEvent &e : tr.events()) {
        EXPECT_LE(e.begin, e.end);
        EXPECT_LE(e.end, r.decode_step_time + 1e-9) << e.name;
    }

    // Device-track busy time matches the simulator's utilisation.
    const Seconds p2p_busy = tr.busyTime("p2p0");
    EXPECT_GT(p2p_busy, 0.0);
    EXPECT_LE(p2p_busy, r.decode_step_time);
}

TEST(Trace, DisabledByDefault)
{
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 4;
    const HilosEventSimulator sim(sys, opts);
    RunConfig run;
    run.model = opt30b();
    run.batch = 2;
    run.context_len = 2048;
    run.output_len = 8;
    EXPECT_NO_THROW(sim.simulateDecodeStep(run));  // nullptr trace
}

}  // namespace
}  // namespace hilos

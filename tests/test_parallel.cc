/**
 * @file
 * Tests for the parallel sweep subsystem (sim/parallel.h): sweep-driver
 * correctness, exclusive worker ids, exception propagation,
 * deterministic result ordering, and the headline guarantee that engine
 * grids and evaluation reports are bit-identical between 1-thread and
 * N-thread execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/hilos.h"
#include "runtime/cost_model.h"
#include "runtime/report.h"
#include "sim/parallel.h"

namespace hilos {
namespace {

/** The task indices 0 .. n-1, for sweeps over plain indices. */
std::vector<std::size_t>
indices(std::size_t n)
{
    std::vector<std::size_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = i;
    return out;
}

TEST(ParallelPool, RunsEveryIndexExactlyOnce)
{
    SweepDriver driver(4);
    EXPECT_EQ(driver.jobs(), 4u);
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    driver.map(indices(n),
               [&](std::size_t i) { return hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelPool, JobsOneRunsInlineOnCallingThread)
{
    SweepDriver driver(1);
    EXPECT_EQ(driver.jobs(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    bool same_thread = true;
    driver.map(indices(64), [&](std::size_t) {
        same_thread = same_thread &&
                      std::this_thread::get_id() == caller;
        return 0;
    });
    EXPECT_TRUE(same_thread);
}

TEST(ParallelPool, JobsZeroPicksHardwareConcurrency)
{
    SweepDriver driver(0);
    EXPECT_EQ(driver.jobs(),
              std::max(1u, std::thread::hardware_concurrency()));
    EXPECT_GE(driver.jobs(), 1u);
}

TEST(ParallelPool, AbsurdJobCountsClampToCeiling)
{
    // A negative --jobs value cast to unsigned must not try to spawn
    // four billion threads.
    SweepDriver driver(static_cast<unsigned>(-1));
    EXPECT_EQ(driver.jobs(), SweepDriver::kMaxJobs);
    std::atomic<int> calls{0};
    driver.map(indices(1000),
               [&](std::size_t) { return calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 1000);
}

TEST(ParallelPool, EmptyRangeIsANoop)
{
    SweepDriver driver(4);
    std::atomic<int> calls{0};
    EXPECT_TRUE(driver.map(indices(0), [&](std::size_t) {
                          return calls.fetch_add(1);
                      }).empty());
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelPool, ReusableAcrossSweeps)
{
    SweepDriver driver(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<std::size_t> sum{0};
        driver.map(indices(100),
                   [&](std::size_t i) { return sum.fetch_add(i); });
        EXPECT_EQ(sum.load(), 100u * 99u / 2u) << "round " << round;
    }
}

TEST(ParallelPool, FirstExceptionPropagatesAndPoolSurvives)
{
    SweepDriver driver(4);
    EXPECT_THROW(driver.map(indices(256),
                            [&](std::size_t i) {
                                if (i == 97)
                                    throw std::runtime_error("task 97");
                                return i;
                            }),
                 std::runtime_error);
    // The driver must stay usable after a failed sweep.
    std::atomic<int> calls{0};
    driver.map(indices(32), [&](std::size_t) { return calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 32);
}

TEST(ParallelPool, SerialPathAlsoPropagatesExceptions)
{
    SweepDriver driver(1);
    EXPECT_THROW(driver.map(indices(4),
                            [](std::size_t) -> int {
                                throw std::logic_error("x");
                            }),
                 std::logic_error);
}

TEST(ParallelSweepDriver, MapKeysResultsByTaskIndex)
{
    SweepDriver driver(8);
    std::vector<int> tasks;
    for (int i = 0; i < 500; ++i)
        tasks.push_back(i);
    const std::vector<int> squares =
        driver.map(tasks, [](int v) { return v * v; });
    ASSERT_EQ(squares.size(), tasks.size());
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelSweepDriver, SweepKeysResultsByIndex)
{
    SweepDriver driver(4);
    const std::vector<std::size_t> doubled =
        driver.map(indices(64), [](std::size_t i) { return 2 * i; });
    ASSERT_EQ(doubled.size(), 64u);
    for (std::size_t i = 0; i < doubled.size(); ++i)
        EXPECT_EQ(doubled[i], 2 * i);
}

TEST(ParallelSweepDriver, MapWorkerIdsStayInRangeAndAreNeverShared)
{
    // runGrid keeps one engine and PlanCache per worker id, so an id
    // must lie in [0, min(jobs, n)) and never run two tasks at once.
    struct Case {
        unsigned jobs;
        std::size_t tasks;
    };
    for (const Case c : {Case{4, 400}, Case{8, 3}, Case{1, 16}}) {
        SweepDriver driver(c.jobs);
        const std::size_t workers = std::min<std::size_t>(c.jobs, c.tasks);
        std::vector<std::atomic<bool>> in_use(workers);
        std::atomic<int> clashes{0};
        const std::vector<unsigned> ids = driver.mapWorker(
            indices(c.tasks), [&](unsigned worker, std::size_t) {
                if (worker >= workers)
                    return worker;
                if (in_use[worker].exchange(true))
                    clashes.fetch_add(1);
                std::this_thread::yield();
                in_use[worker].store(false);
                return worker;
            });
        for (const unsigned id : ids)
            EXPECT_LT(id, workers) << "jobs " << c.jobs;
        EXPECT_EQ(clashes.load(), 0) << "jobs " << c.jobs;
    }
}

TEST(ParallelSweepDriver, ThreeTaskSweepRunsOnThreeThreads)
{
    // Each task waits until all three have started, so the sweep must
    // run them at once on three threads; jobs = 8 may not add more.
    SweepDriver driver(8);
    std::atomic<int> started{0};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    const std::vector<std::thread::id> ran_on =
        driver.map(indices(3), [&](std::size_t) {
            started.fetch_add(1);
            while (started.load() < 3 &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            return std::this_thread::get_id();
        });
    EXPECT_EQ(started.load(), 3);
    const std::set<std::thread::id> distinct(ran_on.begin(), ran_on.end());
    EXPECT_EQ(distinct.size(), 3u);
}

/** The engine grid every sweep bench is built on. */
std::vector<GridPoint>
sampleGrid()
{
    std::vector<GridPoint> grid;
    for (const ModelConfig &model : {opt30b(), opt66b()}) {
        for (std::uint64_t s : {8192ull, 32768ull}) {
            RunConfig run;
            run.model = model;
            run.batch = 16;
            run.context_len = s;
            run.output_len = 64;
            for (EngineKind kind :
                 {EngineKind::FlexSsd, EngineKind::FlexDram,
                  EngineKind::DeepSpeedUvm})
                grid.push_back(GridPoint{kind, HilosOptions{}, run});
            for (unsigned n : {4u, 8u}) {
                HilosOptions opts;
                opts.num_devices = n;
                grid.push_back(GridPoint{EngineKind::Hilos, opts, run});
            }
            // A faulted point runs the epoch fold through the worker's
            // PlanCache, whose entries depend on the points that worker
            // ran before; its expected-value fault accounting must not
            // care which worker evaluates it.
            HilosOptions faulted;
            faulted.num_devices = 8;
            faulted.fault_plan =
                FaultPlan{}.addNandReadError(1e-3).addNvmeTimeout(1e-4);
            grid.push_back(
                GridPoint{EngineKind::Hilos, faulted, run});
        }
    }
    return grid;
}

TEST(ParallelDeterminism, RunGridBitIdenticalAcrossJobCounts)
{
    const SystemConfig sys = defaultSystem();
    const std::vector<GridPoint> grid = sampleGrid();
    const std::vector<RunResult> serial = runGrid(sys, grid, 1);
    for (unsigned jobs : {2u, 8u}) {
        const std::vector<RunResult> parallel =
            runGrid(sys, grid, jobs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            // Exact equality, not tolerance: the whole point is that
            // thread count cannot perturb a single bit of the result.
            EXPECT_EQ(parallel[i].feasible, serial[i].feasible);
            EXPECT_EQ(parallel[i].decode_step_time,
                      serial[i].decode_step_time);
            EXPECT_EQ(parallel[i].prefill_time, serial[i].prefill_time);
            EXPECT_EQ(parallel[i].total_time, serial[i].total_time);
            EXPECT_EQ(parallel[i].energy.total(),
                      serial[i].energy.total());
            EXPECT_EQ(parallel[i].faults.retry_time,
                      serial[i].faults.retry_time);
            EXPECT_EQ(parallel[i].faults.nand_read_errors,
                      serial[i].faults.nand_read_errors);
        }
    }
}

TEST(ParallelDeterminism, EvaluationReportMarkdownIdenticalAcrossJobs)
{
    const SystemConfig sys = defaultSystem();
    ReportConfig cfg;
    cfg.models = {"OPT-30B", "OPT-66B"};
    cfg.contexts = {16384, 65536};
    cfg.device_counts = {4, 8};
    cfg.jobs = 1;
    const std::string serial = runEvaluation(sys, cfg).toMarkdown();
    cfg.jobs = 4;
    EXPECT_EQ(runEvaluation(sys, cfg).toMarkdown(), serial);
    cfg.jobs = 0;  // hardware concurrency
    EXPECT_EQ(runEvaluation(sys, cfg).toMarkdown(), serial);
}

TEST(ParallelCostModel, MidGenerationContextHalvesOutputLen)
{
    EXPECT_EQ(midGenerationContext(32768, 64), 32768u + 32u);
    EXPECT_EQ(midGenerationContext(0, 0), 0u);
    // Odd output lengths round down (integer halving), matching the
    // formula the engines historically inlined.
    EXPECT_EQ(midGenerationContext(100, 5), 102u);
    EXPECT_EQ(midGenerationContext(100, 1), 100u);
}

TEST(ParallelCostModel, EnginesAgreeOnMidGenerationPoint)
{
    // An odd output length must not make the analytic engine and the
    // event simulator disagree about the decode-step context: both now
    // call the shared helper.
    const SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt66b();
    run.batch = 16;
    run.context_len = 32768;
    run.output_len = 65;
    HilosOptions opts;
    opts.num_devices = 8;
    const RunResult odd = HilosEngine(sys, opts).run(run);
    run.output_len = 64;
    const RunResult even = HilosEngine(sys, opts).run(run);
    // 65 / 2 == 64 / 2 == 32: the decode step is priced identically.
    EXPECT_EQ(odd.decode_step_time, even.decode_step_time);
}

}  // namespace
}  // namespace hilos

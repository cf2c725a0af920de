/**
 * @file
 * Fault-resilience study: how the HILOS fleet degrades under injected
 * storage faults (not a paper figure; the paper assumes a healthy
 * fleet).
 *  - A zero-fault FaultPlan reproduces the fault-free engine exactly
 *    (the regression invariant the subsystem is built around).
 *  - Probabilistic NAND/NVMe faults add retry-recovery latency but
 *    leave availability at 1.0.
 *  - A mid-run device failure re-dispatches the failed device's shards
 *    onto the survivors; the degraded step time lands near the
 *    analytic prediction for the shrunken fleet.
 *
 * The scenario sweep runs through the sweep driver: `--jobs N` fans
 * the independent fault plans across worker threads with byte-identical
 * output (per-task RNG state lives in the plan seed, not the driver).
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/hilos.h"
#include "sim/parallel.h"

using namespace hilos;

namespace {

RunResult
runWithPlan(const SystemConfig &sys, const RunConfig &run,
            unsigned devices, const FaultPlan &plan)
{
    HilosOptions opts;
    opts.num_devices = devices;
    opts.fault_plan = plan;
    return makeEngine(EngineKind::Hilos, sys, opts)->run(run);
}

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::cerr << "FAILED: " << what << "\n";
        std::exit(1);
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_fault_resilience");
    args.addCount("jobs", "1",
                  "worker threads for the scenario sweep (0 = all cores)",
                  0, ArgParser::kUnsignedMax);
    args.addOption("json-dir", ".",
                   "where BENCH_fault_resilience.json goes (empty = "
                   "skip)");
    args.parseOrExit(argc, argv);
    SweepDriver driver(static_cast<unsigned>(args.getCount("jobs")));

    SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt66b();
    run.batch = 16;
    run.context_len = 32768;
    run.output_len = 64;
    const unsigned N = 8;

    // --- Zero-fault plan == fault-free engine, exactly ---
    const RunResult clean = runWithPlan(sys, run, N, FaultPlan{});
    FaultPlan seeded_empty;
    seeded_empty.seed = 12345;  // seed alone must not perturb anything
    const RunResult clean2 = runWithPlan(sys, run, N, seeded_empty);
    check(clean.decode_step_time == clean2.decode_step_time &&
              clean.prefill_time == clean2.prefill_time &&
              clean.total_time == clean2.total_time,
          "zero-fault plan must be bit-identical to the fault-free run");
    check(!clean.faults.any(), "zero-fault run must report no faults");

    printBanner(std::cout,
                "fault resilience (OPT-66B, 32K context, bs 16, " +
                    std::to_string(N) + " SmartSSDs)");
    std::cout << "fault-free decode step: " << clean.decode_step_time
              << " s (" << clean.decodeThroughput() << " tokens/s)\n";

    // --- Scenario sweep ---
    struct Scenario {
        const char *name;
        FaultPlan plan;
    };
    const Seconds mid = clean.prefill_time +
                        32.0 * clean.decode_step_time;
    std::vector<Scenario> scenarios;
    scenarios.push_back({"healthy", FaultPlan{}});
    scenarios.push_back(
        {"nand-err 1e-3", FaultPlan{}.addNandReadError(1e-3)});
    scenarios.push_back(
        {"nvme-timeout 1e-4", FaultPlan{}.addNvmeTimeout(1e-4)});
    scenarios.push_back(
        {"uplink 0.7x", FaultPlan{}.addUplinkDegrade(0.0, 0.7)});
    scenarios.push_back(
        {"dev3 p2p 0.5x", FaultPlan{}.addLinkDegrade(0.0, 0.5, 3)});
    scenarios.push_back(
        {"dev3 fails mid-run", FaultPlan{}.addDeviceFailure(mid, 3)});
    scenarios.push_back({"dev3+dev5 fail",
                         FaultPlan{}
                             .addDeviceFailure(mid, 3)
                             .addDeviceFailure(mid, 5)});

    // Scenarios are independent (each run constructs its own engine
    // and fault-injector RNG from the plan seed), so fan them across
    // the sweep driver; results come back in scenario order and the
    // table is byte-identical at any `--jobs` value.
    const std::vector<RunResult> scenario_results =
        driver.map(scenarios, [&](const Scenario &sc) {
            return runWithPlan(sys, run, N, sc.plan);
        });

    bench::BenchJson json("fault_resilience");
    json.meta("model", std::string("OPT-66B"))
        .meta("context", run.context_len)
        .meta("batch", run.batch)
        .meta("devices", std::uint64_t{N});
    TextTable table({"scenario", "tokens/s", "slowdown", "availability",
                     "retry s", "rebuild s"});
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &sc = scenarios[i];
        const RunResult &r = scenario_results[i];
        table.row().cell(sc.name);
        if (!r.feasible) {
            table.cell("unavailable").cell("-").cell("-").cell("-").cell(
                r.note);
            json.row()
                .cell("scenario", std::string(sc.name))
                .cell("feasible", false);
            continue;
        }
        table.num(r.decodeThroughput(), 4)
            .ratio(r.faults.slowdown, 3)
            .num(r.faults.availability, 4)
            .num(r.faults.retry_time, 4)
            .num(r.faults.rebuild_time, 4);
        json.row()
            .cell("scenario", std::string(sc.name))
            .cell("feasible", true)
            .cell("tokens_per_s", r.decodeThroughput())
            .cell("slowdown", r.faults.slowdown)
            .cell("availability", r.faults.availability)
            .cell("retry_s", double(r.faults.retry_time))
            .cell("rebuild_s", double(r.faults.rebuild_time))
            .cell("requests_degraded", r.faults.requests_degraded)
            .cell("requests_failed", r.faults.requests_failed);
    }
    table.print(std::cout);

    // --- Degraded fleet vs the analytic (N-1)-device model ---
    const RunResult failed =
        runWithPlan(sys, run, N, FaultPlan{}.addDeviceFailure(mid, 3));
    check(failed.feasible, "single-device failure must stay feasible");
    check(failed.faults.devices_failed == 1 &&
              failed.faults.devices_surviving == N - 1,
          "failure accounting");
    HilosOptions shrunk;
    shrunk.num_devices = N - 1;
    const RunResult seven =
        makeEngine(EngineKind::Hilos, sys, shrunk)->run(run);
    const double ratio =
        failed.faults.degraded_step_time / seven.decode_step_time;
    std::cout << "\ndegraded step vs analytic " << (N - 1)
              << "-device model: " << ratio << "x (expect ~1)\n";
    check(ratio > 0.95 && ratio < 1.05,
          "degraded step must match the surviving-fleet model");

    // --- Whole-fleet failure: clear error, no NaN ---
    const RunResult dead =
        runWithPlan(sys, run, N, FaultPlan{}.addFleetFailure(mid));
    check(!dead.feasible && !dead.note.empty(),
          "fleet failure must yield a clear error");
    check(!std::isnan(dead.decode_step_time) &&
              !std::isnan(dead.total_time),
          "fleet failure must not produce NaN");
    std::cout << "whole-fleet failure: \"" << dead.note << "\"\n";

    if (!args.get("json-dir").empty())
        json.write(args.get("json-dir"));
    std::cout << "\nShape checks passed: zero-fault identity, graceful "
                 "single-failure degradation matching the analytic "
                 "surviving-fleet model, and a clear whole-fleet "
                 "error.\n";
    return 0;
}

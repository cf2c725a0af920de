/**
 * @file
 * Cross-validation: the analytic HILOS engine versus the slice-level
 * event simulation of the same decoding step (the independent test
 * oracle in tests/support/slice_sim.h). The two models are built
 * independently (closed-form stage composition vs contended-resource
 * replay); agreement within tens of percent across the grid is the
 * internal consistency check for every HILOS number reported by the
 * other benches, in the spirit of the paper's estimator validation
 * (§5.1). A second table replays FlexGen's StepPlans through the
 * production replay backend (simulatePlan).
 *
 * Each grid point constructs its own engine and simulator, so the
 * sweep fans across `--jobs N` worker threads with byte-identical
 * output (results are merged in grid order, not completion order).
 */

#include <iostream>
#include <vector>

#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/hilos.h"
#include "runtime/event_sim.h"
#include "runtime/flexgen.h"
#include "runtime/step_plan.h"
#include "sim/parallel.h"
#include "support/oracles.h"
#include "support/slice_sim.h"

using namespace hilos;

namespace {

/** A replay's mean utilisation of `resource`; 0 when the plan has none. */
double
utilizationOf(const PlanSimResult &r, PlanResource resource)
{
    for (const auto &[name, util] : r.resource_utilization)
        if (name == planResourceName(resource))
            return util;
    return 0.0;
}

}  // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_crossval_eventsim");
    args.addCount("jobs", "1",
                  "worker threads for the sweep (0 = all cores)", 0,
                  ArgParser::kUnsignedMax);
    args.parseOrExit(argc, argv);

    SystemConfig sys = defaultSystem();

    struct Point {
        ModelConfig model;
        std::uint64_t context;
        unsigned devices;
    };
    std::vector<Point> points;
    for (const ModelConfig &model : {opt66b(), opt175b()})
        for (std::uint64_t s : {8192ull, 32768ull, 131072ull})
            for (unsigned n : {8u, 16u})
                points.push_back(Point{model, s, n});

    struct PairResult {
        RunResult analytic;
        test::EventSimResult sim;
    };
    SweepDriver driver(static_cast<unsigned>(args.getCount("jobs")));
    const std::vector<PairResult> results =
        driver.map(points, [&sys](const Point &p) {
            RunConfig run;
            run.model = p.model;
            run.batch = 16;
            run.context_len = p.context;
            run.output_len = 64;
            HilosOptions opts;
            opts.num_devices = p.devices;
            const HilosEngine engine(sys, opts);
            const test::HilosEventSimulator sim(sys, opts);
            return PairResult{engine.run(run),
                              sim.simulateDecodeStep(run)};
        });

    printBanner(std::cout,
                "Analytic engine vs slice-level event simulation "
                "(decode step seconds)");
    TextTable table({"model", "context", "devices", "analytic", "event sim",
                     "ratio", "uplink util", "internal util", "agreement"});

    // The hand-picked grid historically sits inside 0.7-1.4x; enforce a
    // band with modest headroom via the same check the fuzz harness's
    // engine oracle applies to random configurations.
    constexpr double kBandLo = 0.5;
    constexpr double kBandHi = 2.0;
    int violations = 0;
    std::vector<double> analytic_series, sim_series;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const RunResult &a = results[i].analytic;
        const test::EventSimResult &e = results[i].sim;
        analytic_series.push_back(a.decode_step_time);
        sim_series.push_back(e.decode_step_time);
        const test::AgreementCheck chk =
            test::checkEngineAgreement(a, e, kBandLo, kBandHi);
        if (!chk.ok)
            violations++;
        table.row()
            .cell(p.model.name)
            .cell(std::to_string(p.context / 1024) + "K")
            .cell(std::to_string(p.devices))
            .cell(formatSeconds(a.decode_step_time))
            .cell(formatSeconds(e.decode_step_time))
            .ratio(e.decode_step_time / a.decode_step_time)
            .num(100.0 * e.uplink_utilization, 1)
            .num(100.0 * e.internal_utilization, 1)
            .cell(chk.ok ? "ok" : chk.detail);
    }
    table.print(std::cout);

    std::cout << "\nPearson r between the two models across the grid: "
              << pearson(analytic_series, sim_series) << "\n"
              << "Shape check: ratios stay within ~0.7-1.4x and the "
                 "correlation is ~1 (the analytic model is a faithful "
                 "summary of the contended-resource replay).\n";

    // --- FlexGen via the StepPlan replay backend ---
    // The same cross-validation for a second engine: the plan FlexGen
    // emits is evaluated analytically (its RunResult) and replayed over
    // contended per-resource timelines. Random corners stress the
    // analytic model harder than the hand-picked HILOS grid, so the
    // band matches the fuzz oracle's.
    struct FlexPoint {
        ModelConfig model;
        std::uint64_t context;
        FlexTier tier;
    };
    std::vector<FlexPoint> flex_points;
    for (const ModelConfig &model : {opt66b(), opt175b()})
        for (std::uint64_t s : {8192ull, 32768ull, 131072ull})
            for (FlexTier tier : {FlexTier::HostDram, FlexTier::BaselineSsds})
                flex_points.push_back(FlexPoint{model, s, tier});

    struct FlexResult {
        RunResult analytic;
        PlanSimResult replay;
    };
    const std::vector<FlexResult> flex_results =
        driver.map(flex_points, [&sys](const FlexPoint &p) {
            RunConfig run;
            run.model = p.model;
            run.batch = 16;
            run.context_len = p.context;
            run.output_len = 64;
            const FlexGenEngine engine(sys, p.tier);
            RunResult analytic = engine.run(run);
            if (!analytic.feasible || analytic.effective_batch == 0)
                return FlexResult{analytic, PlanSimResult{}};
            run.batch = analytic.effective_batch;
            analytic = engine.run(run);
            return FlexResult{analytic,
                              simulatePlan(engine.decodeStepPlan(run))};
        });

    printBanner(std::cout,
                "FlexGen analytic evaluation vs StepPlan replay "
                "(decode step seconds)");
    TextTable flex_table({"model", "context", "tier", "analytic", "replay",
                          "ratio", "pcie util", "storage util",
                          "agreement"});
    constexpr double kFlexBandLo = 0.4;
    constexpr double kFlexBandHi = 2.5;
    std::vector<double> flex_analytic_series, flex_sim_series;
    for (std::size_t i = 0; i < flex_points.size(); ++i) {
        const FlexPoint &p = flex_points[i];
        const RunResult &a = flex_results[i].analytic;
        const PlanSimResult &e = flex_results[i].replay;
        const char *tier =
            p.tier == FlexTier::HostDram ? "DRAM" : "SSD";
        if (!a.feasible || a.effective_batch == 0) {
            flex_table.row()
                .cell(p.model.name)
                .cell(std::to_string(p.context / 1024) + "K")
                .cell(tier)
                .cell("-")
                .cell("-")
                .cell("-")
                .cell("-")
                .cell("-")
                .cell("infeasible");
            continue;
        }
        flex_analytic_series.push_back(a.decode_step_time);
        flex_sim_series.push_back(e.decode_step_time);
        const test::AgreementCheck chk =
            test::checkEngineAgreement(a, e, kFlexBandLo, kFlexBandHi);
        if (!chk.ok)
            violations++;
        flex_table.row()
            .cell(p.model.name)
            .cell(std::to_string(p.context / 1024) + "K")
            .cell(tier)
            .cell(formatSeconds(a.decode_step_time))
            .cell(formatSeconds(e.decode_step_time))
            .ratio(e.decode_step_time / a.decode_step_time)
            .num(100.0 * utilizationOf(e, PlanResource::HostPcie), 1)
            .num(100.0 * utilizationOf(e, PlanResource::Storage), 1)
            .cell(chk.ok ? "ok" : chk.detail);
    }
    flex_table.print(std::cout);

    std::cout << "\nPearson r between the two backends across the "
                 "FlexGen grid: "
              << pearson(flex_analytic_series, flex_sim_series) << "\n"
              << "Shape check: the replay only adds queueing, so ratios "
                 "sit at >= 1 and within the agreement band.\n";
    if (violations != 0) {
        std::cerr << "\nFAIL: " << violations
                  << " grid point(s) violated the agreement band or a "
                     "structural invariant\n";
        return 1;
    }
    return 0;
}

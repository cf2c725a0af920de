/**
 * @file
 * Simulator hot-path microbench guarding the profile-driven fast path:
 *
 *  1. engine evaluation, legacy vs cached — a fresh engine + full plan
 *     build per point (a cold run()) against runCached()'s verified
 *     in-place rebuild;
 *  2. plan evaluation backends — analytic evaluatePlan and the
 *     event-driven simulatePlan over one HILOS decode plan, plus the
 *     Prefill-phase plan's build/evaluate cost and the deterministic
 *     chunked-prefill overhead ratio (4 chunks vs monolithic);
 *  3. event-queue throughput — the calendar queue on a pre-filled
 *     drain plus a schedule-on-pop workload;
 *  4. end-to-end sweep rate — runGrid against a plain loop of cold
 *     makeEngine(...)->run() on a Fig-10 style engine x batch x
 *     context grid, same binary.
 *
 * Deterministic workloads (seeded schedules, fixed grids); wall times
 * of course vary run to run, so the checked-in baseline is compared
 * with a wide relative tolerance (scripts/check_bench_regression.py).
 * Exits non-zero when the cached sweep speedup falls below
 * --min-speedup (default 10): that ratio is the PR's contract, not a
 * tuning suggestion.
 *
 * Results land in BENCH_sim_perf.json via the shared bench-JSON writer.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/cli.h"
#include "common/random.h"
#include "common/table.h"
#include "core/hilos.h"
#include "runtime/event_sim.h"
#include "runtime/plan_cache.h"
#include "sim/event_queue.h"

using namespace hilos;

namespace {

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "FAILED: " << what << "\n";
        std::exit(1);
    }
}

/** Median-of-repeats wall time of fn(), in seconds. */
double
timeSeconds(const std::function<void()> &fn, int repeats)
{
    using SteadyClock = std::chrono::steady_clock;
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(repeats));
    for (int rep = 0; rep < repeats; rep++) {
        const auto t0 = SteadyClock::now();
        fn();
        const auto t1 = SteadyClock::now();
        samples.push_back(
            std::chrono::duration<double>(t1 - t0).count());
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** Drive `q` through `n` pre-filled events plus `n` schedule-on-pop
 *  descendants; returns a checksum so the work cannot be elided. */
std::uint64_t
eventQueueWorkload(EventQueue &q, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < n; i++) {
        const Seconds when = Seconds(rng.uniform(0.0, 1.0));
        q.scheduleAt(when, [&q, &fired, &rng] {
            fired++;
            // Half the events reschedule: the simulation-like pattern
            // (transfer completion enqueues the dependent op).
            if ((fired & 1) == 0) {
                q.scheduleAfter(Seconds(rng.uniform(0.0, 1e-3)),
                                [&fired] { fired++; });
            }
        });
    }
    q.run();
    return fired;
}

/** Fig-10-style sweep grid: every baseline plus HILOS across batch x
 *  context, dominated (like the figure) by the storage baselines whose
 *  per-point setup runGrid's plan cache amortises.  Points are ordered
 *  engine-major — each engine sweeps its whole batch x context grid
 *  before the next, exactly how the figure is produced — which is the
 *  ordering runGrid's per-worker engine slot amortises. */
std::vector<GridPoint>
sweepGrid(const ModelConfig &model, std::size_t repeats)
{
    std::vector<GridPoint> grid;
    const std::uint64_t batches[] = {4, 8, 16, 32};
    const std::uint64_t contexts[] = {8192, 16384, 32768};
    for (const EngineKind kind :
         {EngineKind::FlexSsd, EngineKind::FlexSsd,
          EngineKind::FlexSmartSsdRaw, EngineKind::FlexDram,
          EngineKind::DeepSpeedUvm, EngineKind::VllmMultiGpu,
          EngineKind::Hilos}) {
        for (std::size_t rep = 0; rep < repeats; rep++) {
            for (const std::uint64_t batch : batches) {
                for (const std::uint64_t ctx : contexts) {
                    GridPoint p;
                    p.kind = kind;
                    p.run = RunConfig{model, batch, ctx, 64};
                    grid.push_back(p);
                }
            }
        }
    }
    return grid;
}

}  // namespace

int
main(int argc, char **argv)
{
    // This bench times the production hot path; the opt-in semantic
    // analyzer gate (HILOS_ANALYZE_PLANS, DESIGN.md section 15) adds a
    // per-applyPlan cost to both sweep arms that compresses the
    // cached-vs-legacy ratio below its contract floor. Scrub it before
    // the first plan evaluation caches the flag.
    unsetenv("HILOS_ANALYZE_PLANS");
    ArgParser args("bench_sim_perf");
    args.addOption("events", "20000", "pre-filled events per queue run");
    args.addOption("grid-repeats", "3",
                   "repetitions of the base sweep grid");
    args.addOption("repeats", "5", "timing repeats (median taken)");
    args.addOption("min-speedup", "10",
                   "fail if cached sweep speedup drops below this");
    args.addOption("json-dir", ".",
                   "where BENCH_sim_perf.json goes (empty = skip)");
    if (!args.parse(argc, argv) || args.helpRequested()) {
        std::cerr << args.usage();
        return args.helpRequested() ? 0 : 2;
    }
    const std::size_t events =
        static_cast<std::size_t>(args.getInt("events"));
    const std::size_t grid_repeats =
        static_cast<std::size_t>(args.getInt("grid-repeats"));
    const int repeats = static_cast<int>(args.getInt("repeats"));
    const double min_speedup = args.getDouble("min-speedup");
    if (!args.ok()) {
        std::cerr << "error: " << args.error() << "\n";
        return 2;
    }

    const SystemConfig sys = defaultSystem();
    const ModelConfig model = opt66b();
    const RunConfig headline{model, 16, 32768, 64};

    TextTable table({"case", "unit", "value"});
    bench::BenchJson json("sim_perf");
    json.meta("model", model.name)
        .meta("events", static_cast<std::uint64_t>(events))
        .meta("grid_repeats", static_cast<std::uint64_t>(grid_repeats));

    const auto report = [&](const std::string &name,
                            const std::string &unit, double value) {
        table.row().cell(name).cell(unit).num(value, 3);
        json.row().cell("case", name).cell("unit", unit).cell("value",
                                                              value);
    };

    // --- 1. engine evaluation: fresh-engine legacy vs cached rebuild ---
    const std::vector<std::uint64_t> batches = {4, 8, 16, 32};
    const int eval_iters = 20;
    const double legacy_flex = timeSeconds(
        [&] {
            for (int i = 0; i < eval_iters; i++) {
                RunConfig cfg = headline;
                cfg.batch =
                    batches[static_cast<std::size_t>(i) % batches.size()];
                const auto engine =
                    makeEngine(EngineKind::FlexSsd, sys);
                const RunResult r = engine->run(cfg);
                check(r.feasible, "legacy FLEX(SSD) point infeasible");
            }
        },
        repeats);
    PlanCache flex_cache;
    const auto flex_engine = makeEngine(EngineKind::FlexSsd, sys);
    flex_engine->runCached(headline, flex_cache);  // warm the cache
    const double cached_flex = timeSeconds(
        [&] {
            for (int i = 0; i < eval_iters; i++) {
                RunConfig cfg = headline;
                cfg.batch =
                    batches[static_cast<std::size_t>(i) % batches.size()];
                const RunResult r =
                    flex_engine->runCached(cfg, flex_cache);
                check(r.feasible, "cached FLEX(SSD) point infeasible");
            }
        },
        repeats);
    report("flex_ssd_legacy", "us/point",
           1e6 * legacy_flex / eval_iters);
    report("flex_ssd_cached", "us/point",
           1e6 * cached_flex / eval_iters);
    report("flex_ssd_point_speedup", "x", legacy_flex / cached_flex);

    PlanCache hilos_cache;
    const auto hilos_engine = makeEngine(EngineKind::Hilos, sys);
    hilos_engine->runCached(headline, hilos_cache);
    const double legacy_hilos = timeSeconds(
        [&] {
            for (int i = 0; i < eval_iters; i++) {
                const auto engine = makeEngine(EngineKind::Hilos, sys);
                (void)engine->run(headline);
            }
        },
        repeats);
    const double cached_hilos = timeSeconds(
        [&] {
            for (int i = 0; i < eval_iters; i++)
                (void)hilos_engine->runCached(headline, hilos_cache);
        },
        repeats);
    report("hilos_legacy", "us/point", 1e6 * legacy_hilos / eval_iters);
    report("hilos_cached", "us/point", 1e6 * cached_hilos / eval_iters);

    // --- 2. plan evaluation backends over one HILOS decode plan ---
    const StepPlan plan =
        decodeStepPlanFor(EngineKind::Hilos, sys, headline);
    check(plan.feasible, "headline HILOS plan infeasible");
    const int eval_plan_iters = 200;
    double sink = 0.0;
    const double analytic = timeSeconds(
        [&] {
            for (int i = 0; i < eval_plan_iters; i++)
                sink += evaluatePlan(plan).decode_step_time;
        },
        repeats);
    const double event_sim = timeSeconds(
        [&] {
            for (int i = 0; i < eval_plan_iters; i++)
                sink += simulatePlan(plan).decode_step_time;
        },
        repeats);
    check(sink > 0.0, "plan evaluation produced zero time");
    report("evaluate_plan_analytic", "us/op",
           1e6 * analytic / eval_plan_iters);
    report("simulate_plan_event", "us/op",
           1e6 * event_sim / eval_plan_iters);

    // --- 2b. Prefill-phase plans: build/evaluate cost + chunk ratio ---
    const double prefill_build = timeSeconds(
        [&] {
            for (int i = 0; i < eval_plan_iters; i++) {
                const StepPlan p =
                    prefillStepPlanFor(EngineKind::Hilos, sys, headline);
                sink += static_cast<double>(p.layer_ops.size());
            }
        },
        repeats);
    const StepPlan prefill_plan =
        prefillStepPlanFor(EngineKind::Hilos, sys, headline);
    check(prefill_plan.feasible, "headline HILOS prefill plan infeasible");
    const double prefill_eval = timeSeconds(
        [&] {
            for (int i = 0; i < eval_plan_iters; i++)
                sink += evaluatePlan(prefill_plan).decode_step_time;
        },
        repeats);
    report("prefill_plan_build", "us/op",
           1e6 * prefill_build / eval_plan_iters);
    report("prefill_plan_evaluate", "us/op",
           1e6 * prefill_eval / eval_plan_iters);
    // Deterministic model ratios: machine-portable, so enforced against
    // the baseline like the speedups. Chunking re-streams weights per
    // pass, so 4 chunks cost >= 1x the monolithic prefill.
    const Seconds mono_prefill =
        evaluatePlan(prefill_plan).decode_step_time;
    Seconds chunk4_sum = 0.0;
    for (std::uint64_t k = 0; k < 4; ++k)
        chunk4_sum += evaluatePlan(prefillStepPlanFor(
                                       EngineKind::Hilos, sys, headline,
                                       k, 4))
                          .decode_step_time;
    check(chunk4_sum >= mono_prefill,
          "chunked prefill cheaper than monolithic");
    report("prefill_chunk4_overhead", "x", chunk4_sum / mono_prefill);
    const RunResult headline_run =
        makeEngine(EngineKind::Hilos, sys)->run(headline);
    check(headline_run.feasible, "headline HILOS run infeasible");
    report("prefill_share_of_total", "x",
           headline_run.prefill_time / headline_run.total_time);

    // --- 3. event-queue throughput ---
    std::uint64_t fired_calendar = 0;
    const double calendar_t = timeSeconds(
        [&] {
            EventQueue q;
            fired_calendar = eventQueueWorkload(q, events, 0xE0E0);
        },
        repeats);
    check(fired_calendar >= events, "event queue dropped events");
    report("event_queue_calendar", "Mev/s",
           static_cast<double>(fired_calendar) / calendar_t / 1e6);

    // --- 4. end-to-end sweep: runGrid vs a cold run() per point ---
    const std::vector<GridPoint> grid = sweepGrid(model, grid_repeats);
    std::vector<RunResult> legacy_results;
    std::vector<RunResult> cached_results;
    const double sweep_legacy = timeSeconds(
        [&] {
            legacy_results.clear();
            for (const GridPoint &p : grid)
                legacy_results.push_back(
                    makeEngine(p.kind, sys, p.hilos)->run(p.run));
        },
        repeats);
    const double sweep_cached = timeSeconds(
        [&] { cached_results = runGrid(sys, grid, 1); }, repeats);
    check(legacy_results.size() == cached_results.size(),
          "sweep result count mismatch");
    for (std::size_t i = 0; i < grid.size(); i++) {
        check(legacy_results[i].decodeThroughput() ==
                  cached_results[i].decodeThroughput(),
              "cached sweep diverged from legacy at point " +
                  std::to_string(i));
    }
    const double pts = static_cast<double>(grid.size());
    const double speedup = sweep_legacy / sweep_cached;
    report("sweep_legacy", "points/s", pts / sweep_legacy);
    report("sweep_cached", "points/s", pts / sweep_cached);
    report("sweep_speedup", "x", speedup);

    table.print(std::cout);
    std::cout << "sweep: " << grid.size() << " points, cached speedup "
              << bench::jsonNumber(speedup) << "x (floor "
              << bench::jsonNumber(min_speedup) << "x)\n";
    if (!args.get("json-dir").empty())
        json.write(args.get("json-dir"));
    check(speedup >= min_speedup,
          "cached sweep speedup below the contract floor");
    std::cout << "OK\n";
    return 0;
}

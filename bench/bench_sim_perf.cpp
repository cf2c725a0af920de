/**
 * @file
 * Simulator hot-path microbench: absolute per-layer costs, each also
 * normalised to an in-process calibration kernel.
 *
 *  0. calibration — a fixed allocation-heavy loop that calls nothing
 *     in the library, so its time tracks only the host;
 *  1. engine evaluation, cold vs cached — a fresh engine + full plan
 *     build per point (a cold run()) and runCached()'s verified
 *     in-place rebuild;
 *  2. plan evaluation backends — analytic evaluatePlan, the
 *     event-driven simulatePlan and the semantic analyzer (analyzePlan)
 *     over one HILOS decode plan, plus the
 *     Prefill-phase plan's build/evaluate cost and the deterministic
 *     chunked-prefill overhead ratio (4 chunks vs monolithic);
 *  3. serving — ServingSimulator::run on a saturated open-loop Poisson
 *     stream (HILOS, OPT-66B, batch cap 16), per request served, under
 *     FCFS (serving_saturated) and under SJF (serving_saturated_sjf),
 *     whose pending queue is a heap rather than a slice of arrivals;
 *  4. end-to-end sweep rate — runGrid and a plain loop of cold
 *     makeEngine(...)->run() on a Fig-10 style engine x batch x
 *     context grid, same binary; the two must agree bit for bit;
 *  5. fleet — one FleetEngine::run of 8 hosts losing host 1 a third of
 *     the way through decode (bench_fleet's node-loss scenario), per
 *     run: epoch re-placement, shard rebuild and the epoch fold. The
 *     repeated run() re-prices its plans in run()'s per-thread
 *     PlanCache (fleet_faulted); the same run through a fresh cache
 *     builds every plan cold (fleet_faulted_first).
 *
 * Every wall-time row is the minimum over --repeats (after one
 * untimed warm-up; each repeat is the median of several runs) and
 * records its spread, max/min over the repeats. Next to it goes a
 * "_norm" row: the same time in calibration kernel runs, per thousand
 * units ("cal/kpoint", "cal/kplan", ...). A host that is slower or
 * busier moves both the row and the kernel, so the _norm rows travel
 * between runs where raw times do not.
 * scripts/check_bench_regression.py enforces the _norm rows and the
 * deterministic ratio rows against the checked-in baseline, and fails
 * an enforced row whose own spread is too wide to judge. The bench
 * itself exits non-zero only when a correctness check fails (cold and
 * cached sweeps must match exactly).
 *
 * Results land in BENCH_sim_perf.json via the shared bench-JSON writer.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/cli.h"
#include "common/random.h"
#include "common/table.h"
#include "core/hilos.h"
#include "runtime/event_sim.h"
#include "runtime/plan_analyzer.h"
#include "runtime/plan_cache.h"
#include "runtime/serving.h"
#include "runtime/serving_workload.h"

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

/**
 * The calibration kernel: builds and indexes a table of 64 labelled
 * records with short dependency lists, eight times over. That is the
 * allocation-heavy mix of small strings, small vectors and hash
 * lookups a plan build does, but it calls nothing in the library. On a
 * shared 4-vCPU Xeon VM its time tracked the plan rows' slowdowns more
 * closely than a heap-and-map event loop did. Returns a value so the
 * work cannot be elided.
 */
double
calibrationKernel()
{
    struct Record {
        std::string label;
        std::vector<std::uint32_t> deps;
        double weight = 0.0;
    };
    double acc = 0.0;
    for (int pass = 0; pass < 8; pass++) {
        std::vector<Record> records;
        std::unordered_map<std::string, std::size_t> index;
        for (std::uint32_t i = 0; i < 64; i++) {
            Record r;
            r.label = "op_" + std::to_string(i * 2654435761u % 997);
            r.weight = 1.0 + i;
            for (std::uint32_t d = 0; d < i % 4; d++)
                r.deps.push_back(i - d - 1);
            index[r.label] = records.size();
            records.push_back(std::move(r));
        }
        for (const Record &r : records)
            acc += r.weight * static_cast<double>(index.at(r.label)) +
                   static_cast<double>(r.deps.size());
    }
    return acc;
}

/** Calibration kernel runs timed next to each run of a row. */
constexpr int kCalibrationRuns = 8;

/**
 * Runs per repeat. A repeat takes the median of its runs: on a shared
 * host a run now and then stalls, and now and then lands on a quiet
 * core and runs a quarter faster than usual; the median drops both.
 */
constexpr int kRunsPerRepeat = 15;

/** A wall-time row, raw and normalised to the calibration kernel. */
struct Timing {
    double best = 0.0;         ///< seconds per call, the fastest repeat
    double spread = 1.0;       ///< slowest repeat over the fastest
    double norm_best = 0.0;    ///< kernel runs per call, lowest repeat
    double norm_spread = 1.0;  ///< highest repeat over the lowest
};

double
secondsFor(const std::function<void()> &fn)
{
    using SteadyClock = std::chrono::steady_clock;
    const auto t0 = SteadyClock::now();
    fn();
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double
medianOf(std::vector<double> v)
{
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

/**
 * Time fn() over `repeats` repeats after one untimed warm-up call.
 * Every run of fn() follows a run of the calibration kernel, and a
 * repeat's normalised time is the median of those pairs' ratios: the
 * two halves of a pair see the same host load. Repeats are
 * interleaved (run k belongs to repeat k % repeats), so a host whose
 * load drifts over the row's runs moves every repeat alike; the
 * spread then measures how well the repeats agree, not how the load
 * drifted.
 */
Timing
timeSeconds(const std::function<void()> &fn, int repeats)
{
    double cal_sink = 0.0;
    const auto calibrate = [&cal_sink] {
        for (int i = 0; i < kCalibrationRuns; i++)
            cal_sink += calibrationKernel();
    };
    fn();
    const auto n = static_cast<std::size_t>(repeats);
    std::vector<std::vector<double>> row_runs(n);
    std::vector<std::vector<double>> cal_runs(n);
    for (int run = 0; run < kRunsPerRepeat; run++) {
        for (std::size_t rep = 0; rep < n; rep++) {
            cal_runs[rep].push_back(secondsFor(calibrate));
            row_runs[rep].push_back(secondsFor(fn));
        }
    }
    check(cal_sink > 0.0, "calibration kernel produced nothing");
    std::vector<double> raw;
    std::vector<double> norm;
    for (std::size_t rep = 0; rep < n; rep++) {
        std::vector<double> ratios;
        for (int run = 0; run < kRunsPerRepeat; run++)
            ratios.push_back(row_runs[rep][run] /
                             (cal_runs[rep][run] / kCalibrationRuns));
        raw.push_back(medianOf(row_runs[rep]));
        norm.push_back(medianOf(ratios));
    }
    const auto [raw_lo, raw_hi] = std::minmax_element(raw.begin(), raw.end());
    const auto [norm_lo, norm_hi] =
        std::minmax_element(norm.begin(), norm.end());
    return {*raw_lo, *raw_hi / *raw_lo, *norm_lo, *norm_hi / *norm_lo};
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
    // analyzer gate (HILOS_ANALYZE_PLANS, DESIGN.md section 15) would
    // add a per-applyPlan cost to every timed plan evaluation and make
    // the rows incomparable with the baseline. Scrub it before the
    // first plan evaluation caches the flag.
    unsetenv("HILOS_ANALYZE_PLANS");
    ArgParser args("bench_sim_perf");
    args.addCount("grid-repeats", "3", "repetitions of the base sweep grid",
                  1);
    args.addCount("repeats", "5", "timing repeats (minimum taken)", 1,
                  std::numeric_limits<int>::max());
    args.addOption("json-dir", ".",
                   "where BENCH_sim_perf.json goes (empty = skip)");
    args.parseOrExit(argc, argv);
    const std::size_t grid_repeats = args.getCount("grid-repeats");
    const auto repeats = static_cast<int>(args.getCount("repeats"));

    const SystemConfig sys = defaultSystem();
    const ModelConfig model = opt66b();
    const RunConfig headline{model, 16, 32768, 64};

    TextTable table({"case", "unit", "value", "spread"});
    bench::BenchJson json("sim_perf");
    json.meta("model", model.name)
        .meta("grid_repeats", static_cast<std::uint64_t>(grid_repeats))
        .meta("repeats", static_cast<std::uint64_t>(repeats));

    /** A timed row and its spread over the repeats. */
    const auto reportRow = [&](const std::string &name,
                               const std::string &unit, double value,
                               double spread) {
        table.row().cell(name).cell(unit).num(value, 3).num(spread, 3);
        json.row()
            .cell("case", name)
            .cell("unit", unit)
            .cell("value", value)
            .cell("spread", spread);
    };
    /** A wall-time row in us/<per>, and its _norm row in cal/k<per>:
     *  calibration kernel runs per thousand <per>. */
    const auto reportTime = [&](const std::string &name,
                                const std::string &per, const Timing &t,
                                double count) {
        reportRow(name, "us/" + per, 1e6 * t.best / count, t.spread);
        reportRow(name + "_norm", "cal/k" + per, 1e3 * t.norm_best / count,
                  t.norm_spread);
    };
    /** A deterministic model ratio (no timing, no spread). */
    const auto reportRatio = [&](const std::string &name, double value) {
        table.row().cell(name).cell("x").num(value, 3).cell("-");
        json.row().cell("case", name).cell("unit", std::string("x")).cell(
            "value", value);
    };

    // --- 0. calibration: host speed, measured without the library ---
    const Timing cal = timeSeconds([] { (void)calibrationKernel(); },
                                   repeats);
    reportRow("calibration", "us/run", 1e6 * cal.best, cal.spread);

    // --- 1. engine evaluation: fresh-engine cold vs cached rebuild ---
    const std::vector<std::uint64_t> batches = {4, 8, 16, 32};
    const int eval_iters = 200;
    const auto batchOf = [&](int i) {
        RunConfig cfg = headline;
        cfg.batch = batches[static_cast<std::size_t>(i) % batches.size()];
        return cfg;
    };
    const Timing cold_flex = timeSeconds(
        [&] {
            for (int i = 0; i < eval_iters; i++) {
                const auto engine = makeEngine(EngineKind::FlexSsd, sys);
                const RunResult r = engine->run(batchOf(i));
                check(r.feasible, "cold FLEX(SSD) point infeasible");
            }
        },
        repeats);
    PlanCache flex_cache;
    const auto flex_engine = makeEngine(EngineKind::FlexSsd, sys);
    const Timing cached_flex = timeSeconds(
        [&] {
            for (int i = 0; i < eval_iters; i++) {
                const RunResult r =
                    flex_engine->runCached(batchOf(i), flex_cache);
                check(r.feasible, "cached FLEX(SSD) point infeasible");
            }
        },
        repeats);
    reportTime("flex_ssd_cold", "point", cold_flex, eval_iters);
    reportTime("flex_ssd_cached", "point", cached_flex, eval_iters);

    PlanCache hilos_cache;
    const auto hilos_engine = makeEngine(EngineKind::Hilos, sys);
    const Timing cold_hilos = timeSeconds(
        [&] {
            for (int i = 0; i < eval_iters; i++) {
                const auto engine = makeEngine(EngineKind::Hilos, sys);
                (void)engine->run(headline);
            }
        },
        repeats);
    const Timing cached_hilos = timeSeconds(
        [&] {
            for (int i = 0; i < eval_iters; i++)
                (void)hilos_engine->runCached(headline, hilos_cache);
        },
        repeats);
    reportTime("hilos_cold", "point", cold_hilos, eval_iters);
    reportTime("hilos_cached", "point", cached_hilos, eval_iters);

    // --- 2. plan evaluation backends over one HILOS decode plan ---
    const StepPlan plan =
        decodeStepPlanFor(EngineKind::Hilos, sys, headline);
    check(plan.feasible, "headline HILOS plan infeasible");
    const int plan_iters = 2000;
    const int replay_iters = 50;
    const int analyze_iters = 200;
    double sink = 0.0;
    const Timing analytic = timeSeconds(
        [&] {
            for (int i = 0; i < plan_iters; i++)
                sink += evaluatePlan(plan).decode_step_time;
        },
        repeats);
    const Timing event_sim = timeSeconds(
        [&] {
            for (int i = 0; i < replay_iters; i++)
                sink += simulatePlan(plan).decode_step_time;
        },
        repeats);
    const Timing analyze = timeSeconds(
        [&] {
            for (int i = 0; i < analyze_iters; i++)
                sink += analyzePlan(plan).layer_critical_path;
        },
        repeats);
    check(sink > 0.0, "plan evaluation produced zero time");
    reportTime("evaluate_plan_analytic", "plan", analytic, plan_iters);
    reportTime("simulate_plan_event", "plan", event_sim, replay_iters);
    reportTime("analyze_plan", "plan", analyze, analyze_iters);

    // --- 2b. Prefill-phase plans: build/evaluate cost + chunk ratio ---
    const Timing prefill_build = timeSeconds(
        [&] {
            for (int i = 0; i < plan_iters; i++) {
                const StepPlan p =
                    prefillStepPlanFor(EngineKind::Hilos, sys, headline);
                sink += static_cast<double>(p.layer_ops.size());
            }
        },
        repeats);
    const StepPlan prefill_plan =
        prefillStepPlanFor(EngineKind::Hilos, sys, headline);
    check(prefill_plan.feasible, "headline HILOS prefill plan infeasible");
    const Timing prefill_eval = timeSeconds(
        [&] {
            for (int i = 0; i < plan_iters; i++)
                sink += evaluatePlan(prefill_plan).decode_step_time;
        },
        repeats);
    reportTime("prefill_plan_build", "plan", prefill_build, plan_iters);
    reportTime("prefill_plan_evaluate", "plan", prefill_eval, plan_iters);
    // Deterministic model ratios: machine-portable, so enforced against
    // the baseline as they are. Chunking re-streams weights per pass,
    // so 4 chunks cost >= 1x the monolithic prefill.
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
    reportRatio("prefill_chunk4_overhead", chunk4_sum / mono_prefill);
    const RunResult headline_run =
        makeEngine(EngineKind::Hilos, sys)->run(headline);
    check(headline_run.feasible, "headline HILOS run infeasible");
    reportRatio("prefill_share_of_total",
                headline_run.prefill_time / headline_run.total_time);

    // --- 3. serving: the admit + step loop on a saturated stream ---
    // 0.25 req/s is far above what HILOS drains on OPT-66B at a batch
    // cap of 16, so the pending queue stays deep for the whole run.
    PoissonStreamConfig stream_cfg;
    stream_cfg.arrival_rate = 0.25;
    stream_cfg.count = 2000;
    Rng stream_rng(0x5345525645ull);
    const std::vector<Request> stream =
        makePoissonArrivals(stream_cfg, stream_rng);
    const auto serving_engine = makeEngine(EngineKind::Hilos, sys);
    ServingConfig serving_cfg;
    serving_cfg.model = model;
    serving_cfg.max_batch = 16;
    const auto timeServing = [&](ServingPolicy policy) {
        serving_cfg.policy = policy;
        const ServingSimulator serving(*serving_engine, serving_cfg);
        std::uint64_t served = 0;
        const Timing t = timeSeconds(
            [&] {
                const ServingResult r = serving.run(stream);
                check(r.feasible, "saturated serving stream infeasible");
                served = r.records.size();
            },
            repeats);
        check(served == stream.size(), "serving dropped requests");
        return t;
    };
    const double requests = static_cast<double>(stream.size());
    reportTime("serving_saturated", "request",
               timeServing(ServingPolicy::Fcfs), requests);
    reportTime("serving_saturated_sjf", "request",
               timeServing(ServingPolicy::Sjf), requests);

    // --- 4. end-to-end sweep: a cold run() per point vs runGrid ---
    const std::vector<GridPoint> grid = sweepGrid(model, grid_repeats);
    std::vector<RunResult> cold_results;
    std::vector<RunResult> cached_results;
    const Timing sweep_cold = timeSeconds(
        [&] {
            cold_results.clear();
            for (const GridPoint &p : grid)
                cold_results.push_back(
                    makeEngine(p.kind, sys, p.hilos)->run(p.run));
        },
        repeats);
    const Timing sweep_cached = timeSeconds(
        [&] { cached_results = runGrid(sys, grid, 1); }, repeats);
    check(cold_results.size() == cached_results.size(),
          "sweep result count mismatch");
    for (std::size_t i = 0; i < grid.size(); i++) {
        check(cold_results[i].decodeThroughput() ==
                  cached_results[i].decodeThroughput(),
              "cached sweep diverged from cold at point " +
                  std::to_string(i));
    }
    const double pts = static_cast<double>(grid.size());
    reportTime("sweep_cold", "point", sweep_cold, pts);
    reportTime("sweep_cached", "point", sweep_cached, pts);

    // --- 5. fleet: one faulted 8-host run, bench_fleet's node loss ---
    FleetConfig fleet_cfg;
    fleet_cfg.hosts = 8;
    fleet_cfg.devices_per_host = 8;
    RunConfig fleet_run = headline;
    fleet_run.batch = 16 * fleet_cfg.hosts;
    const RunResult fleet_healthy =
        FleetEngine(sys, fleet_cfg).run(fleet_run);
    check(fleet_healthy.feasible, "healthy fleet infeasible");
    fleet_cfg.fault_plan = FaultPlan{}.addHostFailure(
        fleet_healthy.prefill_time +
            (static_cast<double>(fleet_run.output_len) / 3.0) *
                fleet_healthy.decode_step_time,
        1);
    const FleetEngine faulted_fleet(sys, fleet_cfg);
    const int fleet_iters = 20;
    const Timing fleet_t = timeSeconds(
        [&] {
            for (int i = 0; i < fleet_iters; i++) {
                const RunResult r = faulted_fleet.run(fleet_run);
                check(r.feasible && r.fleet.availability < 1.0,
                      "faulted fleet must degrade, not fail");
            }
        },
        repeats);
    reportTime("fleet_faulted", "run", fleet_t, fleet_iters);
    // run() re-prices a repeated faulted run through its per-thread
    // PlanCache, so fleet_faulted times warm repeats; a fresh cache per
    // run times the cold fold a one-shot run pays.
    const Timing fleet_first_t = timeSeconds(
        [&] {
            for (int i = 0; i < fleet_iters; i++) {
                PlanCache fresh;
                const RunResult r = faulted_fleet.runCached(fleet_run, fresh);
                check(r.feasible && r.fleet.availability < 1.0,
                      "faulted fleet must degrade, not fail");
            }
        },
        repeats);
    reportTime("fleet_faulted_first", "run", fleet_first_t, fleet_iters);

    table.print(std::cout);
    std::cout << "sweep: " << grid.size() << " points, cold "
              << bench::jsonNumber(pts / sweep_cold.best)
              << " points/s, cached "
              << bench::jsonNumber(pts / sweep_cached.best)
              << " points/s\n";
    if (!args.get("json-dir").empty())
        json.write(args.get("json-dir"));
    std::cout << "OK\n";
    return 0;
}

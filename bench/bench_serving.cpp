/**
 * @file
 * Online serving saturation study (not a paper figure; the paper stops
 * at offline throughput). Sweeps Poisson arrival rate x admission
 * policy over one engine and reports the serving metrics that decide a
 * deployment: TTFT / end-to-end latency percentiles, goodput under an
 * SLO, and queue growth. Reading the sweep top to bottom shows the
 * saturation knee: below engine capacity the queue stays bounded and
 * goodput tracks the offered load; past it queue depth and tail
 * latency blow up while goodput flattens.
 *
 * Deterministic: every (rate, policy) point regenerates its arrival
 * stream from a fixed per-point seed, so the sweep is byte-identical
 * run-to-run and across --jobs. Results land in BENCH_serving.json via
 * the shared bench-JSON writer.
 *
 * A last table times the simulator itself on saturated streams of
 * growing length (the host-time column is the one that varies from run
 * to run): host time per request stays flat when admission cost does
 * not grow with queue depth. Its rows are informational, not enforced.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/hilos.h"
#include "sim/parallel.h"

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

struct SweepPoint {
    double rate = 0.0;
    ServingPolicy policy = ServingPolicy::Fcfs;
};

/** Arrival stream of one sweep point: seeded by the rate index so the
 *  same stream hits every policy at that rate. */
std::vector<Request>
pointStream(double rate, std::size_t rate_index, std::size_t count)
{
    PoissonStreamConfig pc;
    pc.arrival_rate = rate;
    pc.count = count;
    Rng rng(0x5e711 + 101 * static_cast<std::uint64_t>(rate_index));
    return makePoissonArrivals(pc, rng);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> models;
    for (const ModelConfig &m : allModels())
        models.push_back(m.name);
    ArgParser args("bench_serving");
    args.addChoice("model", "OPT-66B", "model to serve", models);
    args.addCount("devices", "8", "SmartSSDs on the host", 1, 16);
    args.addCount("max-batch", "16", "scheduler cap on in-flight batch", 1);
    args.addCount("requests", "48", "requests per sweep point", 1,
                  kMaxStreamRequests);
    // Default SLO sits between the unloaded (~10 min) and saturated
    // (hours) end-to-end latency of the headline config, so the
    // attainment column actually separates the sweep points.
    args.addReal("slo-ms", "1800000",
                 "end-to-end latency SLO in ms (0 = no SLO)", 0.0);
    args.addRealList("rates", "0.002,0.01,0.05,0.25",
                     "arrival rates (req/s)", kMinArrivalRate);
    args.addOption("json-dir", ".",
                   "where BENCH_serving.json goes (empty = skip)");
    args.addCount("jobs", "1",
                  "worker threads for the sweep (0 = all cores)", 0,
                  ArgParser::kUnsignedMax);
    args.parseOrExit(argc, argv);
    const std::size_t requests = args.getCount("requests");
    const Seconds slo = msec(args.getReal("slo-ms"));
    const auto jobs = static_cast<unsigned>(args.getCount("jobs"));
    const std::vector<double> rates = args.getReals("rates");

    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = static_cast<unsigned>(args.getCount("devices"));
    const HilosEngine engine(sys, opts);

    ServingConfig base;
    base.model = modelByName(args.get("model"));
    base.max_batch = args.getCount("max-batch");
    base.slo = slo;

    const ServingPolicy policies[] = {
        ServingPolicy::Fcfs, ServingPolicy::Sjf, ServingPolicy::SloAware};
    std::vector<SweepPoint> points;
    for (double r : rates)
        for (ServingPolicy p : policies)
            points.push_back(SweepPoint{r, p});

    SweepDriver driver(jobs);
    const std::vector<ServingResult> sweep =
        driver.map(points, [&](const SweepPoint &pt) {
            std::size_t rate_index = 0;
            while (rates[rate_index] != pt.rate)
                rate_index++;
            ServingConfig cfg = base;
            cfg.policy = pt.policy;
            const ServingSimulator sim(engine, cfg);
            return sim.run(
                pointStream(pt.rate, rate_index, requests));
        });

    printBanner(std::cout,
                "serving saturation (" + args.get("model") + ", " +
                    std::to_string(requests) + " req/point, batch cap " +
                    std::to_string(base.max_batch) + ", SLO " +
                    std::to_string(static_cast<long long>(
                        static_cast<double>(slo))) +
                    " s)");

    bench::BenchJson json("serving");
    json.meta("model", args.get("model"))
        .meta("devices", std::uint64_t{opts.num_devices})
        .meta("max_batch", base.max_batch)
        .meta("requests", std::uint64_t{requests})
        .meta("slo_s", double(slo));

    TextTable table({"rate req/s", "policy", "ttft p50 s", "ttft p99 s",
                     "e2e p99 s", "goodput r/s", "slo att",
                     "peak queue"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ServingResult &r = sweep[i];
        const std::string policy = servingPolicyName(points[i].policy);
        check(r.feasible, "sweep point must be feasible: " + r.note);
        table.row()
            .num(points[i].rate, 3)
            .cell(policy)
            .num(r.ttft_p50, 2)
            .num(r.ttft_p99, 2)
            .num(r.latency_p99, 2)
            .num(r.goodput_rps, 4)
            .num(r.slo_attainment, 3)
            .num(static_cast<double>(r.peak_queue_depth), 0);
        json.row()
            .cell("rate", points[i].rate)
            .cell("policy", policy)
            .cell("ttft_p50_s", double(r.ttft_p50))
            .cell("ttft_p99_s", double(r.ttft_p99))
            .cell("ttft_p999_s", double(r.ttft_p999))
            .cell("latency_p50_s", double(r.latency_p50))
            .cell("latency_p99_s", double(r.latency_p99))
            .cell("latency_p999_s", double(r.latency_p999))
            .cell("goodput_rps", r.goodput_rps)
            .cell("slo_attainment", r.slo_attainment)
            .cell("tokens_per_s", r.tokens_per_second)
            .cell("mean_in_flight", r.mean_in_flight)
            .cell("peak_in_flight", r.peak_in_flight)
            .cell("mean_queue_depth", r.mean_queue_depth)
            .cell("peak_queue_depth", r.peak_queue_depth)
            .cell("makespan_s", double(r.makespan));
    }
    table.print(std::cout);

    // Saturation is visible in the sweep itself: the highest rate must
    // queue at least as deep as the lowest (same stream length, less
    // inter-arrival slack). FCFS rows only — policies reorder waits.
    double low_depth = -1.0, high_depth = -1.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].policy != ServingPolicy::Fcfs)
            continue;
        if (points[i].rate == rates.front())
            low_depth = sweep[i].mean_queue_depth;
        if (points[i].rate == rates.back())
            high_depth = sweep[i].mean_queue_depth;
    }
    check(high_depth >= low_depth,
          "queue depth must not shrink as offered load grows");

    // --- chunked prefill at saturation ---------------------------------
    // At the highest rate the decode flight is always populated, so a
    // monolithic prefill stalls every in-flight request for the whole
    // prompt. Splitting prefill into chunks lets decode steps run at
    // priority between chunks (counted as preemptions), which shortens
    // the TTFT tail for everyone waiting behind a long prompt.
    //
    // The comparison runs on the multi-GPU baseline, where decode steps
    // and serving-length chunks are both short, so the interleave is
    // nearly free and the decode-side relief wins. On HILOS a
    // long-context chunk dwarfs the decode step, and every mid-prefill
    // turn (costed at the slower of the two) slows the in-flight token
    // cadence to chunk granularity — that is why the headline sweep
    // above keeps prefill_chunks = 1 (see DESIGN.md section 14).
    const auto vllm = makeEngine(EngineKind::VllmMultiGpu, sys);
    {
        const std::size_t rate_index = rates.size() - 1;
        const std::vector<Request> stream =
            pointStream(rates.back(), rate_index, requests);
        ServingConfig mono_cfg = base;
        mono_cfg.policy = ServingPolicy::Fcfs;
        const ServingResult mono =
            ServingSimulator(*vllm, mono_cfg).run(stream);
        ServingConfig chunk_cfg = mono_cfg;
        chunk_cfg.prefill_chunks = 4;
        const ServingResult chunked =
            ServingSimulator(*vllm, chunk_cfg).run(stream);
        check(mono.feasible && chunked.feasible,
              "chunked-prefill comparison point infeasible");
        check(chunked.prefill_preemptions > 0,
              "saturated chunked run must preempt prefill with decode");

        printBanner(std::cout,
                    "chunked prefill at saturation (rate " +
                        std::to_string(rates.back()) + " req/s, FCFS)");
        TextTable chunk_table({"prefill chunks", "ttft p50 s",
                               "ttft p99 s", "e2e p99 s", "preemptions",
                               "makespan s"});
        const auto chunk_row = [&](const std::string &label,
                                   const ServingResult &r) {
            chunk_table.row()
                .cell(label)
                .num(r.ttft_p50, 2)
                .num(r.ttft_p99, 2)
                .num(r.latency_p99, 2)
                .num(static_cast<double>(r.prefill_preemptions), 0)
                .num(r.makespan, 2);
            json.row()
                .cell("rate", rates.back())
                .cell("policy", "fcfs/chunks=" + label)
                .cell("ttft_p50_s", double(r.ttft_p50))
                .cell("ttft_p99_s", double(r.ttft_p99))
                .cell("latency_p99_s", double(r.latency_p99))
                .cell("prefill_chunks_run", r.prefill_chunks_run)
                .cell("prefill_preemptions", r.prefill_preemptions)
                .cell("makespan_s", double(r.makespan));
        };
        chunk_row("1", mono);
        chunk_row("4", chunked);
        chunk_table.print(std::cout);
        check(chunked.ttft_p99 <= mono.ttft_p99,
              "chunked prefill must not worsen the p99 TTFT at "
              "saturation");
    }

    // --- saturated scaling ----------------------------------------------
    // Simulator host cost, not a modeled metric. The multi-GPU baseline
    // drains far slower than 0.5 req/s, so the pending queue grows with
    // the stream; each row is the run `hilos_cli --serve --engine vllm
    // --arrival-rate 0.5 --requests N` makes (same default-seeded
    // stream), timed best of three.
    {
        constexpr double kScalingRate = 0.5;
        printBanner(std::cout, "saturated scaling (vLLM, FCFS, rate " +
                                   std::to_string(kScalingRate) +
                                   " req/s, host time best of 3)");
        TextTable scale_table({"requests", "host ms", "host us/request",
                               "decode steps", "peak queue"});
        ServingConfig cfg = base;
        cfg.policy = ServingPolicy::Fcfs;
        const ServingSimulator sim(*vllm, cfg);
        for (const std::size_t n : {1000, 10000}) {
            PoissonStreamConfig pc;
            pc.arrival_rate = kScalingRate;
            pc.count = n;
            Rng rng;  // the CLI's fixed default seed
            const std::vector<Request> stream = makePoissonArrivals(pc, rng);
            ServingResult r;
            double best_s = std::numeric_limits<double>::infinity();
            for (int rep = 0; rep < 3; rep++) {
                const auto t0 = std::chrono::steady_clock::now();
                r = sim.run(stream);
                const auto t1 = std::chrono::steady_clock::now();
                best_s = std::min(
                    best_s,
                    std::chrono::duration<double>(t1 - t0).count());
            }
            check(r.feasible, "scaling point infeasible: " + r.note);
            const double us_per_request =
                best_s * 1e6 / static_cast<double>(n);
            scale_table.row()
                .num(static_cast<double>(n), 0)
                .num(best_s * 1e3, 2)
                .num(us_per_request, 2)
                .num(static_cast<double>(r.decode_steps), 0)
                .num(static_cast<double>(r.peak_queue_depth), 0);
            json.row()
                .cell("rate", kScalingRate)
                .cell("policy", std::string("fcfs/scaling"))
                .cell("engine", vllm->name())
                .cell("requests", std::uint64_t{n})
                .cell("host_ms", best_s * 1e3)
                .cell("host_us_per_request", us_per_request)
                .cell("decode_steps", r.decode_steps)
                .cell("peak_queue_depth", r.peak_queue_depth);
        }
        scale_table.print(std::cout);
    }

    if (!args.get("json-dir").empty())
        json.write(args.get("json-dir"));
    return 0;
}

/**
 * @file
 * hilos_cli — run any engine/model/workload combination from the
 * command line and print the full report: throughput, per-stage
 * breakdown, interconnect traffic, energy, and cost-effectiveness.
 *
 *   hilos_cli --engine hilos --model OPT-66B --context 32768 \
 *             --batch 16 --devices 8
 *   hilos_cli --compare --model OPT-175B --context 131072
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/logging.h"
#include "common/table.h"
#include "core/hilos.h"
#include "hilos_cli_options.h"
#include "runtime/event_sim.h"
#include "runtime/plan_analyzer.h"
#include "runtime/report.h"

using namespace hilos;

namespace {

void
printReport(const std::string &engine_name, const RunConfig &run,
            const RunResult &r, double price)
{
    printBanner(std::cout, engine_name);
    if (!r.feasible) {
        std::cout << "infeasible: " << r.note << "\n";
        return;
    }
    if (!r.note.empty())
        std::cout << "note: " << r.note << "\n";
    std::printf("effective batch      : %llu\n",
                (unsigned long long)r.effective_batch);
    std::printf("decode step          : %s\n",
                formatSeconds(r.decode_step_time).c_str());
    std::printf("decode throughput    : %.4f tokens/s\n",
                r.decodeThroughput());
    std::printf("prefill              : %s\n",
                formatSeconds(r.prefill_time).c_str());
    std::printf("end-to-end throughput: %.4f tokens/s\n",
                r.endToEndThroughput(run.output_len));
    const double energy = r.energy.total().value();
    const std::uint64_t tokens = r.effective_batch * run.output_len;
    if (tokens == 0) {
        std::printf("energy               : %.1f kJ (n/a J/token)\n",
                    energy / 1e3);
    } else {
        std::printf("energy               : %.1f kJ (%.0f J/token)\n",
                    energy / 1e3, energy / static_cast<double>(tokens));
    }
    std::printf("cost-effectiveness   : %.3e tokens/s/$ ($%.0f)\n",
                costEffectiveness(r.decodeThroughput(), price), price);

    TextTable bt({"stage (per decode step)", "seconds", "%"});
    const double total = r.breakdown.sum();
    for (const auto &[name, t] : r.breakdown.stages()) {
        if (t <= 0.0)
            continue;
        bt.row().cell(name).num(t, 3).num(100.0 * t / total, 1);
    }
    bt.print(std::cout);

    std::printf("host interconnect    : %s read, %s written per step\n",
                formatBytes(r.traffic.host_read_bytes).c_str(),
                formatBytes(r.traffic.host_write_bytes).c_str());
    std::printf("NSP-internal traffic : %s per step\n",
                formatBytes(r.traffic.internal_bytes).c_str());

    // Only printed when a fault plan actually perturbed the run, so
    // fault-free output is unchanged.
    if (r.faults.any()) {
        printBanner(std::cout, "fault resilience");
        std::printf("availability         : %.4f\n",
                    r.faults.availability);
        std::printf("slowdown             : %.3fx\n", r.faults.slowdown);
        std::printf("devices failed       : %u (surviving %u)\n",
                    r.faults.devices_failed, r.faults.devices_surviving);
        std::printf("degraded decode step : %s\n",
                    formatSeconds(r.faults.degraded_step_time).c_str());
        std::printf("retry recovery time  : %s\n",
                    formatSeconds(r.faults.retry_time).c_str());
        std::printf("shard rebuild time   : %s\n",
                    formatSeconds(r.faults.rebuild_time).c_str());
        std::printf("NAND read errors     : %llu (%llu retry steps)\n",
                    (unsigned long long)r.faults.nand_read_errors,
                    (unsigned long long)r.faults.nand_retry_steps);
        std::printf("NVMe timeouts        : %llu (%llu retries)\n",
                    (unsigned long long)r.faults.nvme_timeouts,
                    (unsigned long long)r.faults.nvme_retries);
        std::printf("re-dispatched slices : %llu\n",
                    (unsigned long long)r.faults.redispatched_slices);
        if (r.faults.requests_degraded > 0 || r.faults.requests_failed > 0)
            std::printf("requests             : %llu degraded, %llu "
                        "failed\n",
                        (unsigned long long)r.faults.requests_degraded,
                        (unsigned long long)r.faults.requests_failed);
    }

    // Cluster accounting: only fleet runs carry a FleetSummary.
    if (r.fleet.any()) {
        printBanner(std::cout, "fleet");
        std::printf("fleet shape          : %u hosts x %u SmartSSDs "
                    "(%s)\n",
                    r.fleet.hosts, r.fleet.devices_per_host,
                    r.fleet.policy.c_str());
        std::printf("availability         : %.4f\n", r.fleet.availability);
        std::printf("slowdown             : %.3fx\n", r.fleet.slowdown);
        std::printf("hosts failed         : %u (%u stalls recovered, "
                    "%u spares activated)\n",
                    r.fleet.hosts_failed, r.fleet.host_stalls,
                    r.fleet.spares_activated);
        std::printf("shard rebuild        : %s in %s\n",
                    formatBytes(r.fleet.rebuild_bytes).c_str(),
                    formatSeconds(r.fleet.rebuild_time).c_str());
        std::printf("stall time           : %s\n",
                    formatSeconds(r.fleet.stall_time).c_str());
        std::printf("degraded fleet step  : %s\n",
                    formatSeconds(r.fleet.degraded_step_time).c_str());
        for (std::size_t i = 0; i < r.fleet.epochs.size(); ++i) {
            const FleetEpoch &e = r.fleet.epochs[i];
            std::printf("epoch %zu: t=%s serving=%u stalled=%u "
                        "failed=%u batch=%llu step=%s tokens=%llu\n",
                        i, formatSeconds(e.start).c_str(),
                        e.hosts_serving, e.hosts_stalled,
                        e.hosts_failed,
                        (unsigned long long)e.placed_batch,
                        formatSeconds(e.step_time).c_str(),
                        (unsigned long long)e.tokens);
        }
    }
}

void
printServingReport(const std::string &engine_name,
                   const ServingConfig &cfg, const ServingResult &r)
{
    printBanner(std::cout, engine_name + " serving");
    if (!r.feasible) {
        std::cout << "infeasible: " << r.note << "\n";
        return;
    }
    std::printf("policy               : %s\n",
                servingPolicyName(cfg.policy).c_str());
    std::printf("requests             : %llu (%llu met SLO)\n",
                (unsigned long long)r.requests,
                (unsigned long long)r.slo_met);
    std::printf("makespan             : %s\n",
                formatSeconds(r.makespan).c_str());
    std::printf("goodput              : %.4f req/s (attainment %.4f)\n",
                r.goodput_rps, r.slo_attainment);
    std::printf("throughput           : %.4f tokens/s\n",
                r.tokens_per_second);
    TextTable lt({"latency", "p50", "p99", "p999"});
    lt.row()
        .cell("TTFT")
        .cell(formatSeconds(r.ttft_p50))
        .cell(formatSeconds(r.ttft_p99))
        .cell(formatSeconds(r.ttft_p999));
    lt.row()
        .cell("end-to-end")
        .cell(formatSeconds(r.latency_p50))
        .cell(formatSeconds(r.latency_p99))
        .cell(formatSeconds(r.latency_p999));
    lt.print(std::cout);
    std::printf("mean queue wait      : %s\n",
                formatSeconds(r.mean_queue_wait).c_str());
    std::printf("queue depth          : %.3f mean, %llu peak\n",
                r.mean_queue_depth,
                (unsigned long long)r.peak_queue_depth);
    std::printf("in-flight batch      : %.3f mean, %llu peak\n",
                r.mean_in_flight, (unsigned long long)r.peak_in_flight);
    std::printf("decode steps         : %llu (%llu prefill batches)\n",
                (unsigned long long)r.decode_steps,
                (unsigned long long)r.prefill_batches);
    std::printf("prefill chunking     : %llu chunk(s)/group, %llu run, "
                "%llu decode preemptions\n",
                (unsigned long long)cfg.prefill_chunks,
                (unsigned long long)r.prefill_chunks_run,
                (unsigned long long)r.prefill_preemptions);
    std::printf("step-cost cache      : %llu hits, %llu misses\n",
                (unsigned long long)r.cost_cache_hits,
                (unsigned long long)r.cost_cache_misses);
}

double
priceFor(EngineKind kind, const SystemConfig &sys, unsigned devices)
{
    switch (kind) {
      case EngineKind::Hilos:
        return systemPriceUsd(sys, StorageKind::SmartSsds, devices);
      case EngineKind::FlexDram:
      case EngineKind::DeepSpeedUvm:
        return systemPriceUsd(sys, StorageKind::None, 0);
      case EngineKind::FlexSmartSsdRaw:
        return systemPriceUsd(sys, StorageKind::SmartSsds, 16);
      case EngineKind::VllmMultiGpu:
        return 2 * 28000.0;
      case EngineKind::FlexSsd:
        return systemPriceUsd(sys, StorageKind::BaselineSsds,
                              sys.num_baseline_ssds);
    }
    HILOS_PANIC("unknown engine kind");
}

int
runCli(int argc, char **argv)
{
    ArgParser args = hilosCliOptions();
    args.parseOrExit(argc, argv);

    EngineKind engine_kind = EngineKind::Hilos;
    parseEngineKind(args.get("engine"), &engine_kind);
    SystemConfig sys =
        args.get("gpu") == "h100" ? h100System() : defaultSystem();
    RunConfig run;
    run.model = modelByName(args.get("model"));
    run.batch = args.getCount("batch");
    run.context_len = args.getCount("context");
    run.output_len = args.getCount("output");
    run.prefill_chunks = args.getCount("prefill-chunks");
    // A chunk past the prompt's last token is empty yet still streams
    // the weights. Serving splits each request's own prompt instead.
    if (!args.getFlag("serve") && run.prefill_chunks > run.context_len) {
        std::cerr << "error: --prefill-chunks must be at most --context ("
                  << run.context_len << ")\n";
        return 2;
    }

    HilosOptions opts;
    opts.num_devices = static_cast<unsigned>(args.getCount("devices"));
    opts.xcache = !args.getFlag("no-xcache");
    opts.delayed_writeback = !args.getFlag("no-writeback");
    opts.alpha_override = args.getReal("alpha");
    // The declaration bounds --alpha to [-1, 1]; -1 is the one value
    // below 0 it may take.
    if (opts.alpha_override < 0.0 && opts.alpha_override != -1.0) {
        std::cerr << "error: --alpha must be -1 (scheduler-selected) or "
                     "in [0, 1]\n";
        return 2;
    }
    opts.spill_interval = static_cast<unsigned>(args.getCount("spill"));
    opts.cxl_mode = args.getFlag("cxl");
    opts.attention_window = args.getCount("window");
    const std::string fault_spec = args.get("fault-plan");
    if (!fault_spec.empty()) {
        // A malformed plan is a HILOS_FATAL; main reports it.
        opts.fault_plan = parseFaultPlan(fault_spec);
        const std::vector<std::string> problems = opts.fault_plan.validate();
        if (!problems.empty()) {
            std::cerr << "error: --fault-plan: " << problems.front() << "\n";
            return 2;
        }
        // Only HILOS (and its fleet) price fault conditions; serving,
        // --compare and --analyze-plan price healthy steps: a plan any
        // of them would drop is an error.
        if (engine_kind != EngineKind::Hilos) {
            std::cerr << "error: --fault-plan requires --engine hilos\n";
            return 2;
        }
        if (args.getFlag("serve")) {
            std::cerr << "error: --fault-plan is not supported with --serve "
                         "(serving prices healthy conditions only)\n";
            return 2;
        }
        for (const char *mode : {"compare", "analyze-plan"})
            if (args.getFlag(mode)) {
                std::cerr << "error: --fault-plan is not supported with --"
                          << mode << " (it prices every engine healthy)\n";
                return 2;
            }
    }

    if (args.getFlag("analyze-plan")) {
        std::vector<PlanWaiver> waivers;
        const std::string waiver_path = args.get("plan-waivers");
        if (!waiver_path.empty()) {
            std::ifstream in(waiver_path);
            if (!in) {
                std::cerr << "error: cannot read waiver file "
                          << waiver_path << "\n";
                return 2;
            }
            std::stringstream buf;
            buf << in.rdbuf();
            std::vector<std::string> problems;
            waivers = parsePlanWaivers(buf.str(), &problems);
            for (const std::string &p : problems)
                std::cerr << "warning: " << waiver_path << ": " << p
                          << "\n";
        }
        bool failed = false;
        const auto report = [&](const std::string &header,
                                const StepPlan &plan) {
            std::cout << "==== " << header << " ====\n";
            PlanAnalysis analysis = analyzePlan(plan);
            applyPlanWaivers(analysis, waivers);
            std::cout << serializeAnalysis(plan, analysis);
            if (hasUnwaivedErrors(analysis))
                failed = true;
        };
        for (const EngineName &e : kEngineNames) {
            report(std::string(e.name) + " decode",
                   decodeStepPlanFor(e.kind, sys, run, opts));
            report(std::string(e.name) + " prefill",
                   prefillStepPlanFor(e.kind, sys, run, 0,
                                      run.prefill_chunks, opts));
        }
        return failed ? 1 : 0;
    }

    const auto hosts = static_cast<unsigned>(args.getCount("hosts"));
    const std::string policy_name = args.get("policy");
    // A count past unsigned range acts like any count past the fleet.
    const auto spares = static_cast<unsigned>(std::min<std::uint64_t>(
        args.getCount("spares"), std::numeric_limits<unsigned>::max()));

    const std::string report_path = args.get("report");
    if (!report_path.empty()) {
        ReportConfig rc;
        rc.fault_plan = opts.fault_plan;
        rc.hosts = hosts;
        rc.fleet_policy = parsePlacementPolicy(policy_name);
        rc.jobs = static_cast<unsigned>(args.getCount("jobs"));
        const EvaluationReport rep = runEvaluation(sys, rc);
        std::ofstream out(report_path);
        if (!out) {
            std::cerr << "error: cannot write " << report_path << "\n";
            return 2;
        }
        out << rep.toMarkdown();
        std::cout << "wrote evaluation report to " << report_path
                  << " (peak speedup "
                  << rep.max_speedup << "x)\n";
        return 0;
    }

    if (args.getFlag("compare")) {
        printBanner(std::cout, "engine comparison");
        TextTable table({"engine", "tokens/s", "step", "energy kJ",
                         "note"});
        for (const auto &row :
             compareEngines(sys, run, opts.num_devices)) {
            table.row().cell(row.engine);
            if (!row.result.feasible) {
                table.cell("OOM").cell("").cell("").cell(
                    row.result.note);
                continue;
            }
            table.num(row.result.decodeThroughput(), 4)
                .cell(formatSeconds(row.result.decode_step_time))
                .num(row.result.energy.total() / 1e3, 1)
                .cell(row.result.note);
        }
        table.print(std::cout);
        return 0;
    }

    std::unique_ptr<InferenceEngine> engine;
    double price = priceFor(engine_kind, sys, opts.num_devices);
    if (hosts > 1) {
        if (engine_kind != EngineKind::Hilos) {
            std::cerr << "error: --hosts > 1 requires --engine hilos\n";
            return 2;
        }
        FleetConfig fc;
        fc.hosts = hosts;
        fc.devices_per_host = opts.num_devices;
        fc.policy = parsePlacementPolicy(policy_name);
        fc.spare_hosts = spares;
        fc.fault_plan = opts.fault_plan;
        engine = makeFleetEngine(sys, fc, opts);
        price *= static_cast<double>(hosts);
    } else {
        engine = makeEngine(engine_kind, sys, opts);
    }
    if (args.getFlag("serve")) {
        ServingConfig scfg;
        scfg.model = run.model;
        scfg.max_batch = run.batch;
        if (policy_name != "spread" &&
            !parseServingPolicy(policy_name, &scfg.policy)) {
            std::cerr << "error: --policy " << policy_name
                      << " is a fleet placement policy, not a serving "
                         "policy\n";
            return 2;
        }
        scfg.slo = Seconds(args.getReal("slo-ms") / 1e3);
        scfg.prefill_chunks = run.prefill_chunks;
        std::vector<Request> stream;
        const std::string trace_file = args.get("arrival-trace");
        if (!trace_file.empty()) {
            std::ifstream in(trace_file);
            if (!in) {
                std::cerr << "error: cannot read " << trace_file << "\n";
                return 2;
            }
            std::ostringstream text;
            text << in.rdbuf();
            stream = parseArrivalTrace(text.str());
        } else {
            PoissonStreamConfig pc;
            pc.arrival_rate = args.getReal("arrival-rate");
            pc.count = args.getCount("requests");
            Rng rng;  // fixed default seed: streams replay exactly
            stream = makePoissonArrivals(pc, rng);
        }
        if (stream.empty()) {
            std::cerr << "error: empty arrival stream\n";
            return 2;
        }
        const ServingSimulator sim(*engine, scfg);
        const ServingResult sr = sim.run(stream);
        printServingReport(engine->name(), scfg, sr);
        return sr.feasible ? 0 : 1;
    }

    const RunResult r = engine->run(run);
    printReport(engine->name(), run, r, price);

    const std::string trace_path = args.get("trace");
    if (!trace_path.empty()) {
        // HILOS and the fleet price their plans under the FaultPlan's
        // t=0 conditions; without faults that is the ideal decode plan.
        const StepPlan plan = engine->decodeStepPlanAt(run, 0.0);
        if (!plan.feasible) {
            std::cerr << "error: --trace: no decode plan to replay: "
                      << plan.note << "\n";
            return 1;
        }
        TraceRecorder recorder;
        simulatePlan(plan, &recorder);
        std::ofstream out(trace_path);
        if (!out) {
            std::cerr << "error: cannot write " << trace_path << "\n";
            return 2;
        }
        recorder.writeChromeTrace(out);
        std::cout << "\nwrote " << recorder.size()
                  << " trace events to " << trace_path
                  << " (open in chrome://tracing)\n";
    }
    return r.feasible ? 0 : 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    // HILOS_FATAL reports a user error, such as an unknown model or
    // engine name or a malformed arrival-trace line, by throwing; it
    // exits like any other bad input, under the same `error:` prefix.
    try {
        return runCli(argc, argv);
    } catch (const std::runtime_error &e) {
        std::string_view what = e.what();
        if (what.starts_with("fatal: "))
            what.remove_prefix(std::string_view("fatal: ").size());
        std::cerr << "error: " << what << "\n";
        return 2;
    }
}

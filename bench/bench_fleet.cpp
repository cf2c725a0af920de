/**
 * @file
 * Fleet scale-out study (not a paper figure; the paper stops at one
 * host). Answers the two capacity-planning questions a fleet operator
 * asks of the model:
 *  - How many nodes for a request-rate target at a per-step latency
 *    budget? A fault-free scaling sweep grows the batch with the host
 *    count and reports throughput, request rate, and fleet step.
 *  - What does a node loss cost? A host failure mid-run is charged
 *    shard-rebuild traffic over the inter-host link and the run
 *    completes degraded; the bench reports availability, slowdown,
 *    and rebuild bytes/seconds, and cross-checks the analytic fleet
 *    step against the plan-replay backend (the fuzz oracle's agreement
 *    band).
 *
 * `--replay-dir tests/fault_plans` switches to the adversarial-plan
 * library: every *.txt plan is replayed against the fleet and the
 * recovery invariants are asserted, with a non-zero exit on the first
 * violation (the nightly CI job); a directory or plan file it cannot
 * use exits 2 before any replay. Results land in BENCH_fleet.json via
 * the shared bench-JSON writer.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/hilos.h"
#include "runtime/fleet_engine.h"
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

/** The scalar surface two runs of one config must reproduce exactly. */
std::string
fingerprint(const RunResult &r)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << r.feasible << ' ' << r.decode_step_time << ' '
        << r.prefill_time << ' ' << r.total_time << ' '
        << r.fleet.availability << ' ' << r.fleet.slowdown << ' '
        << r.fleet.rebuild_bytes << ' ' << r.fleet.rebuild_time << ' '
        << r.fleet.hosts_failed << ' ' << r.fleet.host_stalls << ' '
        << r.fleet.epochs.size();
    return oss.str();
}

/**
 * Recovery invariants every fault plan must satisfy at fleet scope.
 * Returns the first violated invariant, empty when all hold.
 */
std::string
recoveryInvariants(const FleetEngine &fe, const RunConfig &run,
                   unsigned hosts)
{
    const RunResult a = fe.run(run);
    const RunResult b = fe.run(run);
    if (fingerprint(a) != fingerprint(b))
        return "non-deterministic replay (same seed, different result)";
    if (std::isnan(a.total_time) || std::isinf(a.total_time) ||
        std::isnan(a.decode_step_time))
        return "non-finite timing";
    if (a.fleet.availability < 0.0 || a.fleet.availability > 1.0)
        return "availability outside [0, 1]";
    if (!a.feasible)
        return a.note.empty() ? "infeasible without a note" : "";
    // Feasible: graceful degradation, never a crash or a free lunch.
    if (a.fleet.hosts_failed >= hosts)
        return "feasible result with every host failed";
    if (a.fleet.hosts_failed > 0 && a.fleet.availability >= 1.0)
        return "host loss must cost availability";
    if (a.fleet.rebuild_bytes > 0.0 && !(a.fleet.rebuild_time > 0.0))
        return "rebuild bytes without rebuild time";
    if (a.fleet.slowdown < 1.0 - 1e-9)
        return "slowdown below 1 (faults made the fleet faster)";
    // Analytic vs replayed fleet step at the first decode epoch
    // (pricing the replay at the epoch start keeps both backends on
    // the same serving set) and again on the end-of-run placement.
    const Seconds t0 = a.fleet.epochs.empty()
                           ? Seconds(0.0)
                           : a.fleet.epochs.front().start;
    const Seconds ideal = a.fleet.epochs.empty()
                              ? a.decode_step_time
                              : a.fleet.epochs.front().step_time;
    const double early = fe.simulatedDecodeStep(run, t0) / ideal;
    if (early < 0.4 || early > 2.5)
        return "replay disagrees with analytic step at epoch 0";
    if (a.fleet.degraded_step_time > 0.0) {
        const double late =
            fe.simulatedDecodeStep(run, a.total_time + 1.0) /
            a.fleet.degraded_step_time;
        if (late < 0.4 || late > 2.5)
            return "replay disagrees with degraded analytic step";
    }
    return "";
}

/** A user error's message without HILOS_FATAL's "fatal: " prefix. */
std::string_view
userMessage(const std::runtime_error &e)
{
    std::string_view what = e.what();
    if (what.starts_with("fatal: "))
        what.remove_prefix(std::string_view("fatal: ").size());
    return what;
}

/**
 * Replay every *.txt plan in `dir`; count of violated plans. A
 * directory that cannot be listed, or a plan file that cannot be read,
 * parsed or built into a fleet, is a user error: each gets one
 * `error: <path>: ...` line before any replay, and the result is -1.
 */
int
replayPlanLibrary(const std::string &dir, const SystemConfig &sys,
                  const FleetConfig &shape, const RunConfig &run)
{
    std::vector<std::filesystem::path> plans;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec))
        if (it->path().extension() == ".txt")
            plans.push_back(it->path());
    if (ec) {
        std::cerr << "error: " << dir << ": " << ec.message() << "\n";
        return -1;
    }
    std::sort(plans.begin(), plans.end());
    check(!plans.empty(), "no *.txt fault plans in " + dir);

    std::vector<std::unique_ptr<FleetEngine>> fleets;
    bool refused = false;
    for (const auto &path : plans) {
        std::ifstream in(path);
        std::string spec, line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;  // comment lines document the scenario
            if (!spec.empty())
                spec += ';';
            spec += line;
        }
        try {
            if (!in.eof())
                throw std::runtime_error("cannot be read");
            FleetConfig fc = shape;
            fc.fault_plan = parseFaultPlan(spec);
            fleets.push_back(std::make_unique<FleetEngine>(sys, fc));
        } catch (const std::runtime_error &e) {
            std::cerr << "error: " << path.string() << ": "
                      << userMessage(e) << "\n";
            refused = true;
        }
    }
    if (refused)
        return -1;

    int violations = 0;
    for (std::size_t i = 0; i < plans.size(); i++) {
        const std::string violated =
            recoveryInvariants(*fleets[i], run, shape.hosts);
        std::cout << (violated.empty() ? "PASS " : "FAIL ")
                  << plans[i].filename().string()
                  << (violated.empty() ? "" : ": " + violated) << "\n";
        violations += violated.empty() ? 0 : 1;
    }
    return violations;
}

}  // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_fleet");
    args.addCount("hosts", "4", "fleet size for the node-loss study", 1, 64);
    args.addCount("devices", "8", "SmartSSDs per host", 1, 16);
    args.addChoice("policy", "spread", "placement policy",
                   {"spread", "pack", "fault-aware"});
    args.addCount("spares", "1", "spare hosts under fault-aware", 0,
                  ArgParser::kUnsignedMax);
    args.addCount("max-hosts", "8", "scaling-sweep upper bound", 1, 64);
    args.addCount("batch-per-host", "16", "requests per host in the sweep",
                  1, ArgParser::kUnsignedMax);
    args.addCount("context", "32768", "context length (tokens)", 1);
    args.addCount("output", "64", "decode tokens per request", 1);
    args.addReal("target-step", "0",
                 "per-step latency budget in ms (0 = report only)", 0.0);
    args.addOption("fault-plan", "",
                   "node-loss scenario (default: host 1 fails mid-run)");
    args.addOption("replay-dir", "",
                   "replay every *.txt fault plan in this directory and "
                   "exit non-zero on a recovery-invariant violation");
    args.addOption("json-dir", ".",
                   "where BENCH_fleet.json goes (empty = skip)");
    args.addCount("jobs", "1",
                  "worker threads for the scaling sweep (0 = all cores)", 0,
                  ArgParser::kUnsignedMax);
    args.parseOrExit(argc, argv);
    const auto hosts = static_cast<unsigned>(args.getCount("hosts"));
    const auto devices = static_cast<unsigned>(args.getCount("devices"));
    const auto max_hosts = static_cast<unsigned>(args.getCount("max-hosts"));
    const std::uint64_t per_host = args.getCount("batch-per-host");
    const PlacementPolicy policy =
        parsePlacementPolicy(args.get("policy"));
    const auto spares = static_cast<unsigned>(args.getCount("spares"));
    const Seconds target_step = msec(args.getReal("target-step"));
    const auto jobs = static_cast<unsigned>(args.getCount("jobs"));

    SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt66b();
    run.context_len = args.getCount("context");
    run.output_len = args.getCount("output");

    FleetConfig shape;
    shape.hosts = hosts;
    shape.devices_per_host = devices;
    shape.policy = policy;
    shape.spare_hosts = spares;

    // The node-loss study runs `shape` under --fault-plan or, by
    // default, a loss of host 1; a combination the fleet refuses is a
    // user error, reported before any run.
    FleetConfig studied = shape;
    if (args.get("replay-dir").empty()) {
        try {
            studied.fault_plan =
                args.get("fault-plan").empty()
                    ? FaultPlan{}.addHostFailure(0.0, 1)
                    : parseFaultPlan(args.get("fault-plan"));
        } catch (const std::runtime_error &e) {
            std::cerr << "error: --fault-plan: " << userMessage(e) << "\n";
            return 2;
        }
    }
    const std::vector<std::string> problems = studied.validate();
    if (!problems.empty()) {
        std::cerr << "error: " << problems.front() << "\n";
        return 2;
    }
    run.batch = per_host * hosts;
    if (!args.get("replay-dir").empty()) {
        const int violations =
            replayPlanLibrary(args.get("replay-dir"), sys, shape, run);
        if (violations < 0)
            return 2;
        std::cout << (violations ? "replay FAILED: " : "replay OK: ")
                  << violations << " violated plan(s)\n";
        return violations ? 1 : 0;
    }

    // The node-loss study's runs go first: a --fault-plan that loses or
    // stalls no host while the run lasts, or leaves no host to serve,
    // cannot show a node loss and is refused before any output.
    const RunResult healthy = FleetEngine(sys, shape).run(run);
    check(healthy.feasible, "healthy fleet must be feasible");
    FleetConfig faulted = shape;
    if (args.get("fault-plan").empty()) {
        // Default scenario: one host lost a third of the way through.
        const Seconds mid =
            healthy.prefill_time +
            (run.output_len / 3.0) * healthy.decode_step_time;
        faulted.fault_plan = FaultPlan{}.addHostFailure(mid, 1);
    } else {
        faulted.fault_plan = studied.fault_plan;
    }
    const FleetEngine fe(sys, faulted);
    const RunResult lost = fe.run(run);
    if (!args.get("fault-plan").empty()) {
        if (!lost.feasible) {
            std::cerr << "error: --fault-plan: the node-loss study needs a "
                         "host left to serve: "
                      << lost.note << "\n";
            return 2;
        }
        if (!lost.fleet.any() || lost.fleet.availability >= 1.0) {
            std::cerr << "error: --fault-plan: the node-loss study needs a "
                         "host lost or stalled before the run's last "
                         "decode step (the healthy run ends at "
                      << healthy.total_time << " s)\n";
            return 2;
        }
    }

    bench::BenchJson json("fleet");
    json.meta("model", std::string("OPT-66B"))
        .meta("context", run.context_len)
        .meta("output_len", run.output_len)
        .meta("batch_per_host", per_host)
        .meta("devices_per_host", std::uint64_t{devices})
        .meta("policy", std::string(placementPolicyName(policy)));

    // --- Scaling sweep: how many nodes for X req/s at a step budget ---
    printBanner(std::cout,
                "fleet scaling (OPT-66B, " +
                    std::to_string(run.context_len / 1024) +
                    "K context, " + std::to_string(per_host) +
                    " req/host, " + std::to_string(devices) +
                    " SmartSSDs/host)");
    std::vector<unsigned> counts;
    for (unsigned h = 1; h <= max_hosts; ++h)
        counts.push_back(h);
    SweepDriver driver(jobs);
    const std::vector<RunResult> sweep =
        driver.map(counts, [&](unsigned h) {
            FleetConfig fc = shape;
            fc.hosts = h;
            fc.spare_hosts = std::min(spares, h - 1);
            RunConfig r = run;
            r.batch = per_host * h;
            return FleetEngine(sys, fc).run(r);
        });

    TextTable table({"hosts", "batch", "step ms", "tokens/s", "req/s",
                     "meets target"});
    unsigned needed_hosts = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const RunResult &r = sweep[i];
        const bool meets =
            r.feasible &&
            (target_step <= 0.0 || r.decode_step_time <= target_step);
        if (meets && target_step > 0.0 && needed_hosts == 0)
            needed_hosts = counts[i];
        table.row().num(counts[i], 0).num(per_host * counts[i], 0);
        if (!r.feasible) {
            table.cell("OOM").cell("-").cell("-").cell("-");
        } else {
            const double req_per_s =
                static_cast<double>(per_host * counts[i]) / r.total_time;
            table.num(r.decode_step_time * 1e3, 3)
                .num(r.decodeThroughput(), 1)
                .num(req_per_s, 3)
                .cell(target_step > 0.0 ? (meets ? "yes" : "no") : "-");
            json.row()
                .cell("kind", std::string("scale"))
                .cell("hosts", std::uint64_t{counts[i]})
                .cell("batch", per_host * counts[i])
                .cell("step_s", double(r.decode_step_time))
                .cell("tokens_per_s", r.decodeThroughput())
                .cell("req_per_s", req_per_s);
        }
    }
    table.print(std::cout);
    if (target_step > 0.0) {
        std::cout << "hosts for a " << target_step * 1e3
                  << " ms step budget: ";
        if (needed_hosts)
            std::cout << needed_hosts << "\n";
        else
            std::cout << "not reachable within " << max_hosts
                      << " hosts\n";
        json.meta("target_step_s", double(target_step))
            .meta("hosts_for_target", std::uint64_t{needed_hosts});
    }

    // --- Node-loss cost at the requested fleet size ---
    const RunResult lost2 = fe.run(run);
    check(fingerprint(lost) == fingerprint(lost2),
          "node-loss run must be deterministic per seed");
    check(lost.feasible, "node loss must degrade, not fail");
    check(lost.fleet.any() && lost.fleet.availability < 1.0,
          "node loss must be visible as availability < 1");

    printBanner(std::cout, "node-loss cost (" + std::to_string(hosts) +
                               " hosts, " +
                               std::string(placementPolicyName(policy)) +
                               ")");
    const double tput_cost =
        1.0 - lost.decodeThroughput() / healthy.decodeThroughput();
    std::cout << "healthy:   " << healthy.decodeThroughput()
              << " tokens/s, step " << healthy.decode_step_time * 1e3
              << " ms\n"
              << "node loss: " << lost.decodeThroughput()
              << " tokens/s (" << tput_cost * 100.0
              << "% throughput cost), availability "
              << lost.fleet.availability << "\n"
              << "rebuild:   " << lost.fleet.rebuild_bytes / double(GiB)
              << " GiB in " << lost.fleet.rebuild_time << " s; slowdown "
              << lost.fleet.slowdown << "x over " << lost.fleet.epochs.size()
              << " epoch(s)\n";
    json.row()
        .cell("kind", std::string("node_loss"))
        .cell("hosts", std::uint64_t{hosts})
        .cell("availability", lost.fleet.availability)
        .cell("slowdown", lost.fleet.slowdown)
        .cell("throughput_cost", tput_cost)
        .cell("rebuild_bytes", double(lost.fleet.rebuild_bytes))
        .cell("rebuild_s", double(lost.fleet.rebuild_time))
        .cell("hosts_failed", std::uint64_t{lost.fleet.hosts_failed});

    // --- Analytic vs replayed fleet step (the fuzz oracle's band) ---
    const double early =
        fe.simulatedDecodeStep(run, 0.0) / healthy.decode_step_time;
    double late = 1.0;
    if (lost.fleet.degraded_step_time > 0.0)
        late = fe.simulatedDecodeStep(run, lost.total_time + 1.0) /
               lost.fleet.degraded_step_time;
    std::cout << "replay / analytic fleet step: " << early
              << "x healthy, " << late << "x degraded (band [0.4, 2.5])\n";
    check(early > 0.4 && early < 2.5 && late > 0.4 && late < 2.5,
          "fleet backends must agree within [0.4, 2.5]");
    json.row()
        .cell("kind", std::string("agreement"))
        .cell("sim_over_analytic_healthy", early)
        .cell("sim_over_analytic_degraded", late);

    if (!args.get("json-dir").empty())
        json.write(args.get("json-dir"));
    std::cout << "\nShape checks passed: deterministic node-loss replay, "
                 "graceful degradation with availability < 1, and "
                 "analytic/replay agreement.\n";
    return 0;
}

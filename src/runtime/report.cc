#include "runtime/report.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "core/hilos.h"
#include "sim/parallel.h"

namespace hilos {

namespace {

ReportEntry
makeEntry(const std::string &model, std::uint64_t context,
          const std::string &engine, const RunResult &r, double price,
          double base_tput)
{
    ReportEntry e;
    e.model = model;
    e.context = context;
    e.engine = engine;
    e.feasible = r.feasible;
    if (!r.feasible)
        return e;
    e.tokens_per_sec = r.decodeThroughput();
    e.speedup_vs_flex_ssd =
        base_tput > 0 ? e.tokens_per_sec / base_tput : 0.0;
    e.energy_kj = r.energy.total() / 1e3;
    e.cost_effectiveness = costEffectiveness(e.tokens_per_sec, price);
    return e;
}

}  // namespace

namespace {

/** Everything one (model, context) cell contributes to the report. */
struct CellResult {
    std::vector<ReportEntry> entries;
    double max_speedup = 0;
    double max_energy_saving = 0;
};

CellResult
evaluateCell(const SystemConfig &sys, const ReportConfig &cfg,
             const std::string &model_name, std::uint64_t context)
{
    CellResult cell;
    RunConfig run;
    run.model = modelByName(model_name);
    run.batch = cfg.batch;
    run.context_len = context;
    run.output_len = cfg.output_len;

    const RunResult base = makeEngine(EngineKind::FlexSsd, sys)->run(run);
    const double base_tput = base.decodeThroughput();
    const double base_price = systemPriceUsd(
        sys, StorageKind::BaselineSsds, sys.num_baseline_ssds);
    cell.entries.push_back(makeEntry(model_name, context, "FLEX(SSD)",
                                     base, base_price, base_tput));

    const RunResult dram = makeEngine(EngineKind::FlexDram, sys)->run(run);
    cell.entries.push_back(
        makeEntry(model_name, context, "FLEX(DRAM)", dram,
                  systemPriceUsd(sys, StorageKind::None, 0), base_tput));

    for (unsigned n : cfg.device_counts) {
        HilosOptions opts;
        opts.num_devices = n;
        opts.fault_plan = cfg.fault_plan;
        const RunResult hil =
            makeEngine(EngineKind::Hilos, sys, opts)->run(run);
        ReportEntry e = makeEntry(model_name, context,
                                  "HILOS(" + std::to_string(n) + ")",
                                  hil,
                                  systemPriceUsd(
                                      sys, StorageKind::SmartSsds, n),
                                  base_tput);
        if (!cfg.fault_plan.empty()) {
            e.faulted = true;
            e.availability = hil.faults.availability;
            e.slowdown = hil.faults.slowdown;
            e.devices_failed = hil.faults.devices_failed;
            e.retry_time = hil.faults.retry_time;
        }
        cell.entries.push_back(e);
        if (e.feasible) {
            cell.max_speedup =
                std::max(cell.max_speedup, e.speedup_vs_flex_ssd);
            if (base.feasible && base.energy.total() > 0.0) {
                cell.max_energy_saving = std::max(
                    cell.max_energy_saving,
                    1.0 - hil.energy.total() / base.energy.total());
            }
        }
    }

    // Fleet entries: the same workload scaled out to `hosts` nodes.
    // Host-scope fault events only bite here; single-host entries
    // above see the device-scope subset.
    if (cfg.hosts > 1) {
        for (unsigned n : cfg.device_counts) {
            FleetConfig fc;
            fc.hosts = cfg.hosts;
            fc.devices_per_host = n;
            fc.policy = cfg.fleet_policy;
            fc.fault_plan = cfg.fault_plan;
            const FleetEngine fe(sys, fc);
            const RunResult r = fe.run(run);
            ReportEntry e = makeEntry(
                model_name, context, fe.name(), r,
                static_cast<double>(cfg.hosts) *
                    systemPriceUsd(sys, StorageKind::SmartSsds, n),
                base_tput);
            if (!cfg.fault_plan.empty()) {
                e.faulted = true;
                e.availability = r.fleet.any() ? r.fleet.availability
                                               : r.faults.availability;
                e.slowdown = r.fleet.any() ? r.fleet.slowdown
                                           : r.faults.slowdown;
                e.devices_failed =
                    r.faults.devices_failed + r.fleet.hosts_failed * n;
                e.retry_time = r.faults.retry_time;
            }
            cell.entries.push_back(e);
        }
    }
    return cell;
}

}  // namespace

EvaluationReport
runEvaluation(const SystemConfig &sys, const ReportConfig &cfg)
{
    HILOS_ASSERT(!cfg.models.empty() && !cfg.contexts.empty(),
                 "empty report grid");

    // Each (model, context) cell is independent; fan them across the
    // sweep driver and merge in grid order so the rendered report is
    // bit-identical to the serial path at any job count.
    struct Cell {
        std::string model;
        std::uint64_t context;
    };
    std::vector<Cell> grid;
    for (const std::string &model_name : cfg.models)
        for (std::uint64_t context : cfg.contexts)
            grid.push_back(Cell{model_name, context});

    SweepDriver driver(cfg.jobs);
    const std::vector<CellResult> cells =
        driver.map(grid, [&](const Cell &c) {
            return evaluateCell(sys, cfg, c.model, c.context);
        });

    EvaluationReport report;
    for (const CellResult &cell : cells) {
        report.entries.insert(report.entries.end(), cell.entries.begin(),
                              cell.entries.end());
        report.max_speedup =
            std::max(report.max_speedup, cell.max_speedup);
        report.max_energy_saving =
            std::max(report.max_energy_saving, cell.max_energy_saving);
    }
    return report;
}

std::string
EvaluationReport::toMarkdown() const
{
    std::ostringstream oss;
    oss << "# HILOS evaluation report\n\n"
        << "Peak HILOS speedup over FLEX(SSD): **"
        << static_cast<int>(max_speedup * 100) / 100.0 << "x**; peak "
        << "energy saving: **"
        << static_cast<int>(max_energy_saving * 1000) / 10.0
        << "%**.\n\n"
        << "| model | context | engine | tokens/s | vs FLEX(SSD) | "
           "energy kJ | tokens/s/$ |\n"
        << "|---|---|---|---|---|---|---|\n";
    for (const ReportEntry &e : entries) {
        oss << "| " << e.model << " | " << e.context / 1024 << "K | "
            << e.engine << " | ";
        if (!e.feasible) {
            oss << "OOM | - | - | - |\n";
            continue;
        }
        oss << e.tokens_per_sec << " | " << e.speedup_vs_flex_ssd
            << "x | " << e.energy_kj << " | " << e.cost_effectiveness
            << " |\n";
    }

    // Fault-resilience section: only rendered when the grid ran under
    // a FaultPlan, so fault-free reports stay unchanged.
    bool any_faulted = false;
    for (const ReportEntry &e : entries)
        any_faulted = any_faulted || e.faulted;
    if (any_faulted) {
        oss << "\n## Fault resilience\n\n"
            << "| model | context | engine | availability | slowdown | "
               "devices failed | retry time (s) |\n"
            << "|---|---|---|---|---|---|---|\n";
        for (const ReportEntry &e : entries) {
            if (!e.faulted)
                continue;
            oss << "| " << e.model << " | " << e.context / 1024
                << "K | " << e.engine << " | ";
            if (!e.feasible) {
                oss << "unavailable | - | - | - |\n";
                continue;
            }
            oss << e.availability << " | " << e.slowdown << "x | "
                << e.devices_failed << " | " << e.retry_time << " |\n";
        }
    }
    return oss.str();
}

}  // namespace hilos

/**
 * @file
 * Figure 10: end-to-end decoding throughput of HILOS (4/8/16 SmartSSDs)
 * versus FLEX(SSD), FLEX(DRAM), FLEX(16 PCIe 3.0 SSDs) and
 * DS+UVM(DRAM) across OPT model sizes and context lengths, normalised
 * to FLEX(SSD).
 *
 * Paper shape targets: DS+UVM > 4x slower than FLEX(DRAM);
 * FLEX(16 PCIe3 SSDs) at 0.64-0.94x of FLEX(SSD); HILOS(16) up to
 * 7.86x over FLEX(SSD) (5.3-7.8x at long contexts); HILOS(4) 1.10-1.36x
 * and HILOS(16) 1.88-2.49x over FLEX(DRAM) where the latter is feasible.
 *
 * The (model, context) x engine grid is evaluated through runGrid, so
 * `--jobs N` fans the points across worker threads; results come back
 * in grid order and the rendered table is byte-identical at any job
 * count.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "core/hilos.h"

using namespace hilos;

namespace {

std::string
fmt(const RunResult &r, const RunResult &base)
{
    if (!r.feasible)
        return "OOM";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2fx (%.3f t/s)",
                  normalizedThroughput(r, base), r.decodeThroughput());
    return buf;
}

}  // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_fig10_throughput");
    args.addCount("jobs", "1",
                  "worker threads for the sweep (0 = all cores)", 0,
                  ArgParser::kUnsignedMax);
    args.parseOrExit(argc, argv);
    const auto jobs = static_cast<unsigned>(args.getCount("jobs"));

    SystemConfig sys = defaultSystem();
    const std::vector<ModelConfig> models = {opt30b(), opt66b(),
                                             opt175b()};
    const std::vector<std::uint64_t> contexts = {4096, 16384, 32768,
                                                 65536, 131072};
    const std::vector<unsigned> device_counts = {4, 8, 16};

    // Flatten the grid: 7 engines per (model, context) cell, baselines
    // first, then HILOS fleets in device order.
    std::vector<GridPoint> grid;
    for (const auto &model : models) {
        for (const auto s : contexts) {
            RunConfig run;
            run.model = model;
            run.batch = 16;
            run.context_len = s;
            run.output_len = 64;
            for (EngineKind kind :
                 {EngineKind::FlexSsd, EngineKind::FlexDram,
                  EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm})
                grid.push_back(GridPoint{kind, HilosOptions{}, run});
            for (unsigned n : device_counts) {
                HilosOptions opts;
                opts.num_devices = n;
                grid.push_back(GridPoint{EngineKind::Hilos, opts, run});
            }
        }
    }
    const std::vector<RunResult> results = runGrid(sys, grid, jobs);
    const std::size_t stride = 4 + device_counts.size();

    printBanner(std::cout,
                "Figure 10: decoding throughput normalized to FLEX(SSD)");
    TextTable table({"model", "context", "FLEX(SSD)", "FLEX(DRAM)",
                     "FLEX(16xP3)", "DS+UVM", "HILOS(4)", "HILOS(8)",
                     "HILOS(16)"});

    std::size_t idx = 0;
    for (const auto &model : models) {
        for (const auto s : contexts) {
            const RunResult &base = results[idx];
            table.row()
                .cell(model.name)
                .cell(std::to_string(s / 1024) + "K")
                .cell("1.00x (" +
                      std::to_string(base.decodeThroughput())
                          .substr(0, 5) +
                      " t/s)")
                .cell(fmt(results[idx + 1], base))
                .cell(fmt(results[idx + 2], base))
                .cell(fmt(results[idx + 3], base));
            for (std::size_t d = 0; d < device_counts.size(); ++d)
                table.cell(fmt(results[idx + 4 + d], base));
            idx += stride;
        }
    }
    table.print(std::cout);

    std::cout << "\nShape checks (paper: DS+UVM >4x slower than "
                 "FLEX(DRAM); FLEX(16xP3) 0.64-0.94x of FLEX(SSD);\n"
                 "HILOS(16) up to ~7.9x over FLEX(SSD) at long "
                 "context).\n";
    return 0;
}

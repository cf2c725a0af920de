/**
 * @file
 * Figure 13 / §4.2: sensitivity to the X-cache ratio alpha and the
 * spill interval c.
 *  - The analytic model predicts alpha = 2 B_PCI / (B_SSD + B_PCI);
 *    with B_SSD/B_PCI ~ 3 (8 SmartSSDs) that is ~50%, and the sweep
 *    confirms alpha = 50% gives the best throughput.
 *  - c = 16 (4 KiB chunks) performs best across alpha; larger
 *    intervals pay XRT DMA-orchestration overhead, smaller ones pay
 *    sub-page spill penalties.
 *
 * Both sensitivity grids run through runGrid, so `--jobs N` fans the
 * points across worker threads with byte-identical tables.
 */

#include <iostream>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "core/hilos.h"
#include "runtime/xcache.h"

using namespace hilos;

int
main(int argc, char **argv)
{
    ArgParser args("bench_fig13_sensitivity");
    args.addCount("jobs", "1",
                  "worker threads for the sweep (0 = all cores)", 0,
                  ArgParser::kUnsignedMax);
    args.parseOrExit(argc, argv);
    const auto jobs = static_cast<unsigned>(args.getCount("jobs"));

    SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt66b();
    run.batch = 16;
    run.context_len = 32768;
    run.output_len = 64;

    // Analytic alpha.
    HilosOptions probe;
    probe.num_devices = 8;
    HilosEngine probe_engine(sys, probe);
    const XCacheScheduler sched(probe_engine.internalReadBw(),
                                probe_engine.gdsBw(),
                                sys.gpu.fp16_peak * sys.gpu.gemm_efficiency);
    printBanner(std::cout, "X-cache analytic model (8 SmartSSDs)");
    std::cout << "B_SSD = " << probe_engine.internalReadBw() / 1e9
              << " GB/s, B_PCI = " << probe_engine.gdsBw() / 1e9
              << " GB/s (ratio "
              << probe_engine.internalReadBw() / probe_engine.gdsBw()
              << ")\n"
              << "alpha* = 2*B_PCI/(B_SSD+B_PCI) = "
              << sched.analyticAlpha() << " -> selected "
              << sched.selectAlpha() << "\n";

    printBanner(std::cout,
                "Figure 13: throughput (tokens/s) across alpha and "
                "spill interval c (OPT-66B, 32K, bs 16, 8 SmartSSDs)");
    const std::vector<double> alphas = {0.0, 0.25, 0.5, 0.75, 1.0};
    const std::vector<unsigned> intervals = {4, 16, 64};

    // Flatten both sensitivity grids (alpha-major, then the CXL modes)
    // into one sweep; runGrid hands the points back in grid order so
    // the tables render identically at any `--jobs` value.
    std::vector<GridPoint> grid;
    for (double alpha : alphas) {
        for (unsigned c : intervals) {
            HilosOptions opts;
            opts.num_devices = 8;
            opts.alpha_override = alpha;
            opts.spill_interval = c;
            grid.push_back(GridPoint{EngineKind::Hilos, opts, run});
        }
    }
    for (bool cxl_mode : {false, true}) {
        for (unsigned c : intervals) {
            HilosOptions opts;
            opts.num_devices = 8;
            opts.alpha_override = 0.5;
            opts.spill_interval = c;
            opts.cxl_mode = cxl_mode;
            grid.push_back(GridPoint{EngineKind::Hilos, opts, run});
        }
    }
    const std::vector<RunResult> results = runGrid(sys, grid, jobs);

    TextTable table({"alpha", "c=4", "c=16", "c=64", "best c"});
    std::size_t idx = 0;
    for (double alpha : alphas) {
        table.row().cell(std::to_string(static_cast<int>(alpha * 100)) +
                         "%");
        double best = 0.0;
        std::string best_c;
        for (unsigned c : intervals) {
            const RunResult &r = results[idx++];
            table.num(r.decodeThroughput(), 4);
            if (r.decodeThroughput() > best) {
                best = r.decodeThroughput();
                best_c = "c=" + std::to_string(c);
            }
        }
        table.cell(best_c);
    }
    table.print(std::cout);

    printBanner(std::cout,
                "Section 7.3: spill-interval sensitivity with a "
                "CXL.mem-coherent accelerator (alpha 50%)");
    TextTable cxl({"mode", "c=4", "c=16", "c=64",
                   "c=64 vs c=16"});
    for (bool cxl_mode : {false, true}) {
        cxl.row().cell(cxl_mode ? "CXL.mem" : "PCIe + XRT DMA");
        double t16 = 0, t64 = 0;
        for (unsigned c : intervals) {
            const RunResult &r = results[idx++];
            cxl.num(r.decodeThroughput(), 4);
            if (c == 16)
                t16 = r.decodeThroughput();
            if (c == 64)
                t64 = r.decodeThroughput();
        }
        cxl.ratio(t64 / t16, 4);
    }
    cxl.print(std::cout);

    std::cout << "\nShape checks: alpha = 50% peaks (matching the "
                 "analytic prediction at B_SSD/B_PCI ~ 3); c = 16 is "
                 "best for every alpha (4 KiB page alignment); CXL.mem "
                 "removes the large-interval DMA-orchestration penalty "
                 "(paper §7.3).\n";
    return 0;
}

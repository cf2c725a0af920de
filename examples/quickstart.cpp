/**
 * @file
 * Quickstart: run OPT-66B offline batched inference (batch 16, 32K
 * context, 64 output tokens) on HILOS with 8 SmartSSDs and compare
 * against the FLEX(SSD) baseline.
 */

#include <cstdio>

#include "core/hilos.h"

int
main()
{
    using namespace hilos;

    SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt66b();
    run.batch = 16;
    run.context_len = 32768;
    run.output_len = 64;

    HilosOptions opts;
    opts.num_devices = 8;

    auto hilos_engine = makeEngine(EngineKind::Hilos, sys, opts);
    auto baseline = makeEngine(EngineKind::FlexSsd, sys);

    const RunResult ours = hilos_engine->run(run);
    const RunResult base = baseline->run(run);

    std::printf("model: %s, batch %llu, context %llu, output %llu\n",
                run.model.name.c_str(),
                (unsigned long long)run.batch,
                (unsigned long long)run.context_len,
                (unsigned long long)run.output_len);
    std::printf("%-24s %12s %14s %12s\n", "engine", "tokens/s",
                "step time (s)", "energy (kJ)");
    std::printf("%-24s %12.3f %14.3f %12.1f\n", base.feasible
                    ? baseline->name().c_str() : "FLEX(SSD) [infeasible]",
                base.decodeThroughput(), base.decode_step_time.value(),
                (base.energy.total() / 1e3).value());
    std::printf("%-24s %12.3f %14.3f %12.1f\n",
                hilos_engine->name().c_str(), ours.decodeThroughput(),
                ours.decode_step_time.value(),
                (ours.energy.total() / 1e3).value());
    std::printf("speedup over FLEX(SSD): %.2fx\n",
                normalizedThroughput(ours, base));
    std::printf("energy reduction: %.0f%%\n",
                100.0 * (1.0 - ours.energy.total() / base.energy.total()));
    return 0;
}

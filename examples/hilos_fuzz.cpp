/**
 * @file
 * hilos_fuzz — seeded differential fuzzing of the HILOS simulator.
 *
 * Drives the two differential oracles from tests/support over randomly
 * sampled valid configurations:
 *
 *   attention     accelerator AttentionKernel vs FP32 reference across
 *                 the GQA x sliding-window x sink x padding x buffered
 *                 space
 *   engine        analytic HilosEngine vs the slice-level test oracle
 *                 (agreement band + structural invariants +
 *                 monotonicity), and the replayed decodeStepPlanAt
 *                 plan held in the same band of the oracle
 *   flexgen-plan  FlexGen StepPlan evaluated analytically vs replayed
 *                 over contended resources (per-op structural invariant
 *                 + agreement band)
 *   fleet         FleetEngine determinism + graceful-degradation
 *                 invariants + analytic-vs-replay fleet step band
 *   serving       continuous-batching ServingSimulator determinism +
 *                 scheduling invariants + all-arrivals-at-zero makespan
 *                 band against OfflineBatcher
 *
 * Every failure prints a one-line `seed=... cfg=...` repro; re-running
 * with `--replay <seed>` re-executes exactly that case:
 *
 *   hilos_fuzz --oracle all --iters 200
 *   hilos_fuzz --oracle attention --replay 1234567890
 *
 * `--perturb` deliberately breaks one side (drop-padding-mask on the
 * kernel, skew-analytic on the engine, reverse-admission-order on the
 * serving order check) to demonstrate that the oracles
 * detect real defects; see tests/test_fuzz_oracles.cc for the
 * automated version of that check.
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "support/fuzzer.h"
#include "support/oracles.h"

using namespace hilos;
using namespace hilos::test;

namespace {

struct OracleSpec {
    std::string name;
    OracleOutcome (*run)(std::uint64_t, Perturbation);
};

const std::vector<OracleSpec> kOracles = {
    {"attention", &runAttentionOracle},
    {"engine", &runEngineOracle},
    {"flexgen-plan", &runFlexGenPlanOracle},
    {"fleet", &runFleetOracle},
    {"serving", &runServingOracle},
};

Perturbation
perturbByName(const std::string &name)
{
    if (name == "none")
        return Perturbation::None;
    if (name == "drop-padding-mask")
        return Perturbation::DropPaddingMask;
    if (name == "skew-analytic")
        return Perturbation::SkewAnalytic;
    if (name == "reverse-admission-order")
        return Perturbation::ReverseAdmissionOrder;
    std::cerr << "error: unknown --perturb '" << name
              << "' (none, drop-padding-mask, skew-analytic, "
                 "reverse-admission-order)\n";
    std::exit(2);
}

}  // namespace

int
main(int argc, char **argv)
{
    ArgParser args("hilos_fuzz");
    args.addOption("oracle", "all",
                   "which oracle to run: attention, engine, "
                   "flexgen-plan, fleet, serving, all")
        .addOption("iters", "200", "fuzz iterations per oracle")
        .addOption("seed", "4994579712861519", "base seed for the run")
        .addOption("replay", "",
                   "re-execute one failure from its repro seed "
                   "(requires --oracle attention|engine)")
        .addOption("perturb", "none",
                   "deliberately break one side: none, "
                   "drop-padding-mask (attention), skew-analytic "
                   "(engine), reverse-admission-order (serving)");
    if (!args.parse(argc, argv) || args.helpRequested()) {
        std::cerr << args.usage();
        return args.helpRequested() ? 0 : 2;
    }

    const std::string which = args.get("oracle");
    std::vector<OracleSpec> oracles;
    for (const OracleSpec &o : kOracles)
        if (which == "all" || which == o.name)
            oracles.push_back(o);
    if (oracles.empty()) {
        std::cerr << "error: unknown --oracle '" << which
                  << "' (attention, engine, flexgen-plan, fleet, "
                     "serving, all)\n";
        return 2;
    }
    const Perturbation perturb = perturbByName(args.get("perturb"));

    const std::string replay = args.get("replay");
    if (!replay.empty()) {
        if (oracles.size() != 1) {
            std::cerr << "error: --replay needs a single --oracle "
                         "(the repro line names it)\n";
            return 2;
        }
        const std::uint64_t seed = std::stoull(replay);
        const OracleOutcome out = oracles[0].run(seed, perturb);
        std::cout << "replay oracle=" << oracles[0].name
                  << " seed=" << seed << " cfg={" << out.cfg << "}\n";
        if (out.skipped) {
            std::cout << "SKIP (case infeasible on this system)\n";
            return 0;
        }
        std::cout << (out.ok ? "PASS" : "FAIL: " + out.detail) << "\n";
        return out.ok ? 0 : 1;
    }

    const std::uint64_t base =
        static_cast<std::uint64_t>(args.getInt("seed"));
    const std::uint64_t iters =
        static_cast<std::uint64_t>(args.getInt("iters"));
    if (!args.ok()) {
        std::cerr << "error: " << args.error() << "\n";
        return 2;
    }

    int total_failures = 0;
    for (const OracleSpec &o : oracles) {
        std::uint64_t ran = 0, skipped = 0, failures = 0;
        for (std::uint64_t i = 0; i < iters; i++) {
            const std::uint64_t seed = fuzzSeedForIteration(base, i);
            const OracleOutcome out = o.run(seed, perturb);
            if (out.skipped) {
                skipped++;
                continue;
            }
            ran++;
            if (!out.ok) {
                failures++;
                std::cout << "FAIL oracle=" << o.name << " "
                          << out.reproLine(o.name) << "\n    "
                          << out.detail << "\n";
            }
        }
        std::cout << "oracle " << o.name << ": " << ran << " run, "
                  << skipped << " skipped (infeasible), " << failures
                  << " failed\n";
        total_failures += static_cast<int>(failures);
    }
    return total_failures ? 1 : 0;
}

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

const struct {
    const char *name;
    Perturbation perturbation;
} kPerturbations[] = {
    {"none", Perturbation::None},
    {"drop-padding-mask", Perturbation::DropPaddingMask},
    {"skew-analytic", Perturbation::SkewAnalytic},
    {"reverse-admission-order", Perturbation::ReverseAdmissionOrder},
};

}  // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> oracle_names = {"all"};
    for (const OracleSpec &o : kOracles)
        oracle_names.push_back(o.name);
    std::vector<std::string> perturb_names;
    for (const auto &p : kPerturbations)
        perturb_names.emplace_back(p.name);
    ArgParser args("hilos_fuzz");
    args.addChoice("oracle", "all", "which oracle to run", oracle_names)
        .addCount("iters", "200", "fuzz iterations per oracle", 0)
        .addCount("seed", "4994579712861519", "base seed for the run", 0)
        .addCount("replay", "",
                  "re-execute one failure from its repro seed "
                  "(requires a single --oracle)",
                  0)
        .addChoice("perturb", "none",
                   "deliberately break one side: drop-padding-mask "
                   "(attention), skew-analytic (engine), "
                   "reverse-admission-order (serving)",
                   perturb_names);
    args.parseOrExit(argc, argv);

    const std::string which = args.get("oracle");
    std::vector<OracleSpec> oracles;
    for (const OracleSpec &o : kOracles)
        if (which == "all" || which == o.name)
            oracles.push_back(o);
    Perturbation perturb = Perturbation::None;
    for (const auto &p : kPerturbations)
        if (args.get("perturb") == p.name)
            perturb = p.perturbation;

    if (!args.get("replay").empty()) {
        if (oracles.size() != 1) {
            std::cerr << "error: --replay needs a single --oracle "
                         "(the repro line names it)\n";
            return 2;
        }
        const std::uint64_t seed = args.getCount("replay");
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

    const std::uint64_t base = args.getCount("seed");
    const std::uint64_t iters = args.getCount("iters");

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

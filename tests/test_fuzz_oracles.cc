/**
 * @file
 * The per-PR differential-fuzz budget plus meta-tests of the harness:
 * the oracles pass over >= 200 seeded random configurations, a
 * deliberately perturbed kernel/engine is caught, every failure's repro
 * seed replays to the identical outcome, and the config fuzzer itself
 * is deterministic and only emits valid cases.
 *
 * The per-PR iteration budget lives here so plain `ctest` enforces it;
 * the nightly CI job runs examples/hilos_fuzz at 50x this budget.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "support/fuzzer.h"
#include "support/oracles.h"

namespace hilos {
namespace test {
namespace {

constexpr std::uint64_t kBaseSeed = 0x48494c4f53ull;
// Per-PR budgets; together >= 200 iterations (acceptance floor).
constexpr std::uint64_t kAttentionIters = 150;
constexpr std::uint64_t kEngineIters = 80;
constexpr std::uint64_t kFlexGenPlanIters = 60;
constexpr std::uint64_t kServingIters = 40;

TEST(FuzzSeeds, IterationSeedsAreStableAndDistinct)
{
    // Repro lines embed these seeds; they must never drift.
    EXPECT_EQ(fuzzSeedForIteration(kBaseSeed, 0),
              fuzzSeedForIteration(kBaseSeed, 0));
    EXPECT_NE(fuzzSeedForIteration(kBaseSeed, 0),
              fuzzSeedForIteration(kBaseSeed, 1));
    EXPECT_NE(fuzzSeedForIteration(kBaseSeed, 1),
              fuzzSeedForIteration(kBaseSeed + 1, 1));
}

TEST(ConfigFuzzerTest, SameSeedSameCase)
{
    for (std::uint64_t i = 0; i < 32; i++) {
        const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, i);
        ConfigFuzzer a(seed), b(seed);
        EXPECT_EQ(a.attentionCase().describe(),
                  b.attentionCase().describe());
        ConfigFuzzer c(seed), d(seed);
        EXPECT_EQ(c.engineCase().describe(), d.engineCase().describe());
    }
}

TEST(ConfigFuzzerTest, AttentionCasesAreValidByConstruction)
{
    for (std::uint64_t i = 0; i < 500; i++) {
        ConfigFuzzer fuzzer(fuzzSeedForIteration(kBaseSeed, i));
        const FuzzAttentionCase c = fuzzer.attentionCase();
        EXPECT_LE(c.valid_len, c.s) << c.describe();
        EXPECT_LE(c.window_start, c.valid_len) << c.describe();
        EXPECT_GT(c.d, 0u);
        EXPECT_GE(c.g, 1u);
        EXPECT_GT(c.block_tokens, 0u);
        const bool sinks = c.sink_tokens > 0 && c.valid_len > 0;
        EXPECT_TRUE(c.window_start < c.valid_len || sinks || c.n_buf > 0)
            << "empty attended context: " << c.describe();
    }
}

TEST(ConfigFuzzerTest, EngineCasesAreValidByConstruction)
{
    for (std::uint64_t i = 0; i < 500; i++) {
        ConfigFuzzer fuzzer(fuzzSeedForIteration(kBaseSeed, i));
        const FuzzEngineCase c = fuzzer.engineCase();
        EXPECT_GE(c.run.batch, 1u);
        EXPECT_GE(c.run.context_len, 2048u) << c.describe();
        EXPECT_LE(c.run.context_len, c.run.model.max_position)
            << c.describe();
        EXPECT_GE(c.opts.num_devices, 1u);
        EXPECT_LE(c.opts.num_devices, 16u);
        // Fault plans never schedule the whole fleet away.
        unsigned failures = 0;
        for (const FaultEvent &e : c.opts.fault_plan.events)
            if (e.kind == FaultKind::DeviceFail)
                failures++;
        EXPECT_LT(failures, c.opts.num_devices) << c.describe();
    }
}

TEST(AttentionOracle, PassesAcrossTheSeededBudget)
{
    for (std::uint64_t i = 0; i < kAttentionIters; i++) {
        const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, i);
        const OracleOutcome out = runAttentionOracle(seed);
        EXPECT_FALSE(out.skipped);  // attention cases always run
        ASSERT_TRUE(out.ok) << out.reproLine("attention") << "\n"
                            << out.detail;
    }
}

TEST(EngineOracle, PassesAcrossTheSeededBudget)
{
    std::uint64_t ran = 0;
    for (std::uint64_t i = 0; i < kEngineIters; i++) {
        const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, i);
        const OracleOutcome out = runEngineOracle(seed);
        if (out.skipped)
            continue;
        ran++;
        ASSERT_TRUE(out.ok) << out.reproLine("engine") << "\n"
                            << out.detail;
    }
    // The config space must not degenerate into infeasible corners.
    EXPECT_GE(ran, kEngineIters / 2);
}

TEST(FlexGenPlanOracle, PassesAcrossTheSeededBudget)
{
    // Analytic-vs-replay agreement for a second engine: the FlexGen
    // StepPlan evaluated by both backends must satisfy the structural
    // per-op invariant and the decode-step band on every seed.
    std::uint64_t ran = 0;
    for (std::uint64_t i = 0; i < kFlexGenPlanIters; i++) {
        const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, i);
        const OracleOutcome out = runFlexGenPlanOracle(seed);
        if (out.skipped)
            continue;
        ran++;
        ASSERT_TRUE(out.ok) << out.reproLine("flexgen-plan") << "\n"
                            << out.detail;
    }
    EXPECT_GE(ran, kFlexGenPlanIters / 2);
}

TEST(FlexGenPlanOracle, ReplaysDeterministically)
{
    for (std::uint64_t i = 0; i < 10; i++) {
        const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, i);
        const OracleOutcome a = runFlexGenPlanOracle(seed);
        const OracleOutcome b = runFlexGenPlanOracle(seed);
        EXPECT_EQ(a.ok, b.ok);
        EXPECT_EQ(a.skipped, b.skipped);
        EXPECT_EQ(a.cfg, b.cfg);
        EXPECT_EQ(a.detail, b.detail);
    }
}

TEST(AttentionOracle, PerturbedKernelIsCaught)
{
    // A kernel that forgets the padding mask must be detected on every
    // seed: the un-masked tail rows carry random data, so the outputs
    // diverge far beyond the FP16 tolerance.
    for (std::uint64_t i = 0; i < 25; i++) {
        const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, i);
        const OracleOutcome out =
            runAttentionOracle(seed, Perturbation::DropPaddingMask);
        EXPECT_FALSE(out.ok)
            << "dropped padding mask went undetected: " << out.cfg;
    }
}

TEST(AttentionOracle, PerturbedFailureReplaysDeterministically)
{
    const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, 3);
    const OracleOutcome first =
        runAttentionOracle(seed, Perturbation::DropPaddingMask);
    ASSERT_FALSE(first.ok);
    // The printed repro (seed) re-executes to the identical outcome,
    // byte for byte: same cfg, same first-divergence detail.
    const OracleOutcome replay =
        runAttentionOracle(first.seed, Perturbation::DropPaddingMask);
    EXPECT_FALSE(replay.ok);
    EXPECT_EQ(replay.cfg, first.cfg);
    EXPECT_EQ(replay.detail, first.detail);
    EXPECT_EQ(replay.reproLine("attention"), first.reproLine("attention"));
}

TEST(EngineOracle, SkewedAnalyticModelIsCaught)
{
    // Skewing the analytic decode step 3x pushes the sim/analytic
    // ratio out of the agreement band on most non-skipped cases (the
    // band's low edge at 0.4 leaves cases whose natural ratio sits
    // above 1.2 undetected); require a strong majority.
    std::uint64_t ran = 0, caught = 0;
    for (std::uint64_t i = 0; i < 20; i++) {
        const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, i);
        const OracleOutcome out =
            runEngineOracle(seed, Perturbation::SkewAnalytic);
        if (out.skipped)
            continue;
        ran++;
        if (!out.ok)
            caught++;
    }
    ASSERT_GT(ran, 0u);
    EXPECT_GE(caught * 5, ran * 4)
        << "skewed analytic model detected on only " << caught << "/"
        << ran << " cases";
}

TEST(EngineOracle, ReplaysDeterministically)
{
    for (std::uint64_t i = 0; i < 10; i++) {
        const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, i);
        const OracleOutcome a = runEngineOracle(seed);
        const OracleOutcome b = runEngineOracle(seed);
        EXPECT_EQ(a.ok, b.ok);
        EXPECT_EQ(a.skipped, b.skipped);
        EXPECT_EQ(a.cfg, b.cfg);
        EXPECT_EQ(a.detail, b.detail);
    }
}

TEST(ServingOracle, PassesAcrossTheSeededBudget)
{
    // Serving simulator vs offline batcher: determinism, lifecycle /
    // occupancy invariants, and the all-at-zero FCFS agreement band on
    // every non-skipped seed.
    std::uint64_t ran = 0;
    for (std::uint64_t i = 0; i < kServingIters; i++) {
        const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, i);
        const OracleOutcome out = runServingOracle(seed);
        if (out.skipped)
            continue;
        ran++;
        ASSERT_TRUE(out.ok) << out.reproLine("serving") << "\n"
                            << out.detail;
    }
    EXPECT_GE(ran, kServingIters / 2);
}

TEST(ServingOracle, ReplaysDeterministically)
{
    for (std::uint64_t i = 0; i < 10; i++) {
        const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, i);
        const OracleOutcome a = runServingOracle(seed);
        const OracleOutcome b = runServingOracle(seed);
        EXPECT_EQ(a.ok, b.ok);
        EXPECT_EQ(a.skipped, b.skipped);
        EXPECT_EQ(a.cfg, b.cfg);
        EXPECT_EQ(a.detail, b.detail);
    }
}

TEST(ServingOracle, SkewedServingMakespanIsCaught)
{
    // The perturbation skews the serving-side makespan past the band's
    // dynamic range (8x > 2.5 / 0.4), so every naturally in-band case
    // must land outside [0.4, 2.5] — proof the band actually detects a
    // broken scheduler rather than vacuously passing.
    std::uint64_t ran = 0, caught = 0;
    for (std::uint64_t i = 0; i < 20; i++) {
        const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, i);
        const OracleOutcome out =
            runServingOracle(seed, Perturbation::SkewAnalytic);
        if (out.skipped)
            continue;
        ran++;
        if (!out.ok)
            caught++;
    }
    ASSERT_GT(ran, 0u);
    EXPECT_EQ(caught, ran)
        << "skewed serving makespan detected on only " << caught << "/"
        << ran << " cases";
}

TEST(ServingOracle, ReversedAdmissionOrderIsCaught)
{
    // A comparator that disagrees with the simulator's pending order
    // trips the no-leapfrog check wherever requests compete for
    // admission, which most fuzzed streams do; a check that passes
    // either order validates nothing.
    std::uint64_t ran = 0, caught = 0;
    for (std::uint64_t i = 0; i < 20; i++) {
        const std::uint64_t seed = fuzzSeedForIteration(kBaseSeed, i);
        const OracleOutcome out =
            runServingOracle(seed, Perturbation::ReverseAdmissionOrder);
        if (out.skipped)
            continue;
        ran++;
        if (!out.ok) {
            caught++;
            EXPECT_NE(out.detail.find("admission order"),
                      std::string::npos)
                << out.detail;
        }
    }
    ASSERT_GT(ran, 0u);
    EXPECT_GE(caught * 2, ran)
        << "reversed admission order detected on only " << caught << "/"
        << ran << " cases";
}

TEST(OracleOutcomeTest, ReproLineCarriesSeedCfgAndReplayCommand)
{
    OracleOutcome out;
    out.seed = 42;
    out.cfg = "s=1 d=2";
    const std::string line = out.reproLine("attention");
    EXPECT_NE(line.find("seed=42"), std::string::npos);
    EXPECT_NE(line.find("cfg={s=1 d=2}"), std::string::npos);
    EXPECT_NE(line.find("--oracle attention --replay 42"),
              std::string::npos);
}

}  // namespace
}  // namespace test
}  // namespace hilos

/**
 * @file
 * Differential oracles over the random configuration space.
 *
 * Two independent implementations exist for each surface we care
 * about, and each oracle runs both on a ConfigFuzzer-sampled case and
 * cross-checks them — mirroring the paper's estimator-vs-hardware
 * validation (§5.1, Pearson 0.93) with the analytic engine standing in
 * for the estimator and the event simulator / FP32 reference for the
 * ground truth:
 *
 *  - attention oracle: the accelerator's AttentionKernel (FP16 storage,
 *    blocked two-pass softmax, mask module) against naiveAttention over
 *    the explicitly gathered attended rows, across the GQA x window x
 *    sink x padding x buffered-tail shape space;
 *
 *  - engine oracle: the closed-form HilosEngine against the
 *    slice-level HilosEventSimulator (support/slice_sim.h), with an
 *    agreement band on the decode-step time for fault-free cases, the
 *    production replay of HilosEngine::decodeStepPlanAt held in the
 *    same band of the slice simulator for every case, plus structural
 *    invariants that hold for every case (utilisations <= 1, traffic
 *    subsets conserved, monotonicity in context and batch,
 *    fault-summary consistency).
 *
 * Every failure carries a `seed=... cfg=...` repro line; re-running the
 * oracle on that seed deterministically reproduces the identical
 * outcome (see examples/hilos_fuzz --replay).
 *
 * Perturbation hooks deliberately break one side so tests can verify
 * the oracles actually detect divergence (a validation harness that
 * cannot fail validates nothing).
 */

#ifndef HILOS_TESTS_SUPPORT_ORACLES_H_
#define HILOS_TESTS_SUPPORT_ORACLES_H_

#include <cstdint>
#include <string>

#include "runtime/engine.h"
#include "runtime/event_sim.h"
#include "support/fuzzer.h"
#include "support/slice_sim.h"
#include "support/tolerances.h"

namespace hilos {
namespace test {

/** Deliberate defect injected into one side of an oracle. */
enum class Perturbation {
    None,
    /**
     * Attention oracle: the kernel "forgets" the padding mask (runs
     * with valid_len == s while the reference masks the tail) — the
     * dropped-mask-row defect class.
     */
    DropPaddingMask,
    /** Engine oracle: analytic decode-step time skewed 3x. */
    SkewAnalytic,
    /**
     * Serving oracle: the no-leapfrog check ranks requests by the
     * reverse of `admitsBefore`, as a simulator whose pending order
     * disagrees with its policy would — the broken-comparator class.
     */
    ReverseAdmissionOrder,
};

/** Outcome of one oracle evaluation. */
struct OracleOutcome {
    bool ok = true;
    bool skipped = false;  ///< case infeasible on this system; not run
    std::uint64_t seed = 0;
    std::string cfg;     ///< one-line case description
    std::string detail;  ///< first violated check when !ok

    /** The one-line repro a fuzz failure prints. */
    std::string reproLine(const std::string &oracle) const;
};

/**
 * Run the attention differential oracle on the case derived from
 * `seed`. Tolerance: kFp16StorageTol per output element.
 */
OracleOutcome runAttentionOracle(std::uint64_t seed,
                                 Perturbation perturb = Perturbation::None);

/**
 * Run the engine differential oracle on the case derived from `seed`.
 * Fault-free cases check the analytic/slice agreement band and
 * monotonicity; faulted cases check structural/fault invariants only
 * against the analytic side (it uses closed-form expectations over the
 * whole run, the simulator samples one step, so their times are not
 * directly comparable). Every case also replays the production plan
 * decodeStepPlanAt(run, 0) — the t=0 conditions the slice simulator
 * samples — and holds it within the band of the slice simulator.
 */
OracleOutcome runEngineOracle(std::uint64_t seed,
                              Perturbation perturb = Perturbation::None);

/**
 * Run the plan-replay differential oracle on the FlexGen engine: emit
 * the StepPlan for a fuzzed workload (KV tier derived from the seed so
 * all three placements get coverage), evaluate it analytically and
 * replay it over contended resources, then check the structural per-op
 * invariant — contention can only delay, so every replayed op finishes
 * no earlier than its analytic finish — plus the sim/analytic
 * decode-step agreement band and per-resource utilisation bounds.
 * Extends the analytic-vs-event-sim validation beyond HILOS to a
 * second, independently-shaped engine.
 */
OracleOutcome runFlexGenPlanOracle(
    std::uint64_t seed, Perturbation perturb = Perturbation::None);

/**
 * Run the fleet differential oracle on the case derived from `seed`:
 * a FleetEngine over a fuzzed cluster shape and host-scope fault plan
 * (never the whole fleet — survivors always exist). Checks that the
 * run is deterministic, degrades gracefully (feasible with
 * availability in [0, 1], epochs accounting for every output token,
 * rebuild bytes and time consistent), and that the event-sim fleet
 * step agrees with the analytic epoch-0 step within the band.
 * Perturbation::SkewAnalytic skews the analytic side 3x so tests can
 * verify the band detects divergence.
 */
OracleOutcome runFleetOracle(std::uint64_t seed,
                             Perturbation perturb = Perturbation::None);

/**
 * Run the serving differential oracle on the case derived from `seed`:
 * a ServingSimulator over a fuzzed engine, policy, and homogeneous
 * Poisson arrival stream. Checks that the simulation is deterministic
 * (two runs serialize identically), that scheduling invariants hold
 * (lifecycle timestamps ordered, in-flight batch within the cap, SLO
 * and percentile accounting consistent), that admission follows the
 * policy without leapfrogging — read from the records alone: whenever
 * `b` ranks before `a` under `admitsBefore` and had arrived by the time
 * `a` was admitted, `b` was admitted no later — and that with every arrival
 * moved to t=0 under FCFS the serving makespan agrees with
 * OfflineBatcher::serve on the same request set within the band —
 * continuous batching and offline bucketing are two independent
 * schedulers over the same engine cost model.
 * Perturbation::SkewAnalytic skews the serving makespan 3x so tests
 * can verify the band detects divergence; ReverseAdmissionOrder
 * reverses the order the no-leapfrog check expects.
 */
OracleOutcome runServingOracle(
    std::uint64_t seed, Perturbation perturb = Perturbation::None);

/** Result of one analytic-vs-replay agreement check. */
struct AgreementCheck {
    bool ok = true;
    double ratio = 0;    ///< sim / analytic decode-step time
    std::string detail;  ///< violated bound when !ok
};

/**
 * The shared agreement band (support/tolerances.h) + per-result
 * invariants used by both the engine oracle and bench_crossval_eventsim:
 * the slice simulator's step against the analytic one, with its four
 * utilisations in [0, 1].
 */
AgreementCheck checkEngineAgreement(const RunResult &analytic,
                                    const EventSimResult &sim,
                                    double lo = kReplayAgreementLo,
                                    double hi = kReplayAgreementHi);

/** The same check for a plan replay, over every replayed resource's
 *  and compute unit's utilisation. */
AgreementCheck checkEngineAgreement(const RunResult &analytic,
                                    const PlanSimResult &sim,
                                    double lo = kReplayAgreementLo,
                                    double hi = kReplayAgreementHi);

}  // namespace test
}  // namespace hilos

#endif  // HILOS_TESTS_SUPPORT_ORACLES_H_

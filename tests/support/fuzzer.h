/**
 * @file
 * Seeded random-configuration generation for the differential oracles.
 *
 * A ConfigFuzzer seeded with S always produces the same case, so a
 * failure is fully described by (oracle, seed): the repro line a fuzz
 * run prints is enough to regenerate the exact configuration and input
 * data. Iteration seeds are derived from a base seed with splitmix64
 * (fuzzSeedForIteration), so replaying iteration k never requires
 * replaying iterations 0..k-1.
 *
 * Every sampled case is valid by construction: attention cases satisfy
 * the kernel's shape/mask contract (non-empty attended context,
 * window_start <= valid_len <= s), engine cases stay inside Table 2
 * position limits and the fleet-size range, and fault plans never kill
 * the whole fleet.
 */

#ifndef HILOS_TESTS_SUPPORT_FUZZER_H_
#define HILOS_TESTS_SUPPORT_FUZZER_H_

#include <cstdint>
#include <string>

#include <vector>

#include "common/random.h"
#include "core/hilos.h"
#include "runtime/engine.h"
#include "runtime/fleet_engine.h"
#include "runtime/hilos_engine.h"
#include "runtime/serving.h"
#include "runtime/serving_workload.h"

namespace hilos {
namespace test {

/** Derive the seed of fuzz iteration `iter` from a base seed. */
std::uint64_t fuzzSeedForIteration(std::uint64_t base_seed,
                                   std::uint64_t iter);

/**
 * One attention-oracle case: a kernel request shape across the
 * GQA x sliding-window x sink-token x padding x buffered-tail space.
 * Input data is generated from `seed` as well.
 */
struct FuzzAttentionCase {
    std::uint64_t seed = 0;
    std::size_t s = 0;             ///< stored context rows
    std::size_t d = 0;             ///< head dimension
    std::size_t g = 1;             ///< query heads per KV head
    std::size_t valid_len = 0;     ///< <= s; rest is padding
    std::size_t window_start = 0;  ///< sliding-window mask start
    std::size_t sink_tokens = 0;   ///< StreamingLLM-style sinks
    std::size_t n_buf = 0;         ///< host-buffered tail entries
    std::size_t block_tokens = 128;

    /** One-line `k=v` rendering for repro messages. */
    std::string describe() const;
};

/**
 * One engine-oracle case: workload plus HILOS options (possibly with a
 * fault plan) for the analytic-engine-vs-event-sim comparison.
 */
struct FuzzEngineCase {
    std::uint64_t seed = 0;
    RunConfig run;
    HilosOptions opts;

    bool faulted() const { return !opts.fault_plan.empty(); }
    /** One-line `k=v` rendering for repro messages. */
    std::string describe() const;
};

/**
 * One fleet-oracle case: workload plus cluster shape and a fault plan
 * that never kills every host (stall escalation counted as a loss), so
 * graceful degradation is always the required outcome.
 */
struct FuzzFleetCase {
    std::uint64_t seed = 0;
    RunConfig run;
    FleetConfig fleet;

    /** One-line `k=v` rendering for repro messages. */
    std::string describe() const;
};

/**
 * One serving-oracle case: an engine, a serving configuration, and a
 * pre-generated homogeneous-class Poisson arrival stream, with about a
 * quarter of its arrivals tied to the one before. The stream is
 * single-class (with per-request length jitter) so the all-arrivals-
 * at-zero comparison against OfflineBatcher stays inside the agreement
 * band — mixed-class streams pad the continuous batch to the longest
 * in-flight context, a modelling choice the band is not calibrated for
 * (see DESIGN.md §12).
 */
struct FuzzServingCase {
    std::uint64_t seed = 0;
    EngineKind kind = EngineKind::Hilos;
    HilosOptions opts;  ///< applies only to EngineKind::Hilos
    ServingConfig serving;
    double arrival_rate = 1.0;  ///< requests/s of the generated stream
    std::vector<Request> requests;

    /** One-line `k=v` rendering for repro messages. */
    std::string describe() const;
};

/**
 * Samples valid oracle cases from a seeded RNG stream.
 */
class ConfigFuzzer
{
  public:
    explicit ConfigFuzzer(std::uint64_t seed);

    /** Sample one attention-kernel case. */
    FuzzAttentionCase attentionCase();

    /** Sample one engine case. @param allow_faults include fault plans */
    FuzzEngineCase engineCase(bool allow_faults = true);

    /** Sample one fleet case (cluster shape + host-scope fault plan). */
    FuzzFleetCase fleetCase();

    /** Sample one serving case (engine + policy + arrival stream). */
    FuzzServingCase servingCase();

  private:
    std::uint64_t seed_;
    Rng rng_;
};

}  // namespace test
}  // namespace hilos

#endif  // HILOS_TESTS_SUPPORT_FUZZER_H_

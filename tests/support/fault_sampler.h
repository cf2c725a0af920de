/**
 * @file
 * Sampled per-operation fault draws for the slice-level test oracle:
 * the ECC read-retry and NVMe timeout/backoff outcomes of individual
 * reads and commands, drawn from one seeded RNG stream per device. The
 * engines price the same plans through their closed-form expectations
 * (RetryPolicy); the timed conditions both read come from
 * ConditionTimeline (sim/fault.h).
 */

#ifndef HILOS_TESTS_SUPPORT_FAULT_SAMPLER_H_
#define HILOS_TESTS_SUPPORT_FAULT_SAMPLER_H_

#include <cstdint>
#include <random>
#include <vector>

#include "sim/fault.h"

namespace hilos {
namespace test {

/** Counters accumulated by a FaultInjector over one simulation. */
struct FaultStats {
    std::uint64_t nand_read_errors = 0;
    std::uint64_t nand_retry_steps = 0;
    std::uint64_t nvme_timeouts = 0;
    std::uint64_t nvme_retries = 0;
    std::uint64_t nvme_failures = 0;  ///< retries exhausted
    std::uint64_t redispatched_slices = 0;
    Seconds retry_time = 0.0;  ///< total latency added by recovery
};

/**
 * Samples a FaultPlan's probabilistic events per operation. Each query
 * consumes one deterministic per-device RNG stream, so results depend
 * only on (seed, plan, per-device call order); the slice oracle issues
 * them in deterministic loop order. An empty plan allocates no RNG
 * state and draws nothing.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan, unsigned num_devices);

    /** True when the plan contains at least one event. */
    bool active() const { return active_; }

    /** Outcome of one NVMe command on device `dev`. */
    struct NvmeOutcome {
        Seconds extra_latency = 0.0;
        unsigned retries = 0;
        bool failed = false;  ///< retries exhausted; re-dispatch needed
    };

    /**
     * Sample the ECC read-retry penalty of one NAND read on `dev`
     * (0 when the read succeeds first try).
     */
    Seconds nandReadPenalty(unsigned dev);

    /** Sample the timeout/backoff outcome of one NVMe command. */
    NvmeOutcome nvmeCommand(unsigned dev);

    /** Record one slice re-dispatched off a failed device. */
    void noteRedispatch() { stats_.redispatched_slices++; }

    const FaultStats &stats() const { return stats_; }

  private:
    std::mt19937_64 &rngFor(unsigned dev);

    bool active_ = false;
    RetryPolicy retry_;
    ConditionTimeline timeline_;
    std::vector<std::mt19937_64> rng_;
    FaultStats stats_;
};

}  // namespace test
}  // namespace hilos

#endif  // HILOS_TESTS_SUPPORT_FAULT_SAMPLER_H_

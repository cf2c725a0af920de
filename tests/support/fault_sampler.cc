#include "support/fault_sampler.h"

#include "common/logging.h"

namespace hilos {
namespace test {

FaultInjector::FaultInjector(const FaultPlan &plan, unsigned num_devices)
    : active_(!plan.empty()), retry_(plan.retry),
      timeline_(plan, num_devices)
{
    if (!active_)
        return;
    // One independent stream per device: draws on one device never
    // shift another device's sequence (splitmix-style seeding).
    rng_.reserve(num_devices);
    for (unsigned d = 0; d < num_devices; d++) {
        std::uint64_t z = plan.seed + 0x9e3779b97f4a7c15ull *
                                          (static_cast<std::uint64_t>(d) + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        rng_.emplace_back(z ^ (z >> 31));
    }
}

std::mt19937_64 &
FaultInjector::rngFor(unsigned dev)
{
    HILOS_ASSERT(dev < rng_.size(), "no RNG stream for device ", dev);
    return rng_[dev];
}

Seconds
FaultInjector::nandReadPenalty(unsigned dev)
{
    const double p = timeline_.nandErrorProbability(dev);
    if (!active_ || p <= 0.0)
        return 0.0;
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(rngFor(dev)) >= p)
        return 0.0;
    std::uniform_int_distribution<unsigned> steps_dist(
        1, retry_.ecc_max_steps);
    const unsigned steps = steps_dist(rngFor(dev));
    const Seconds penalty =
        static_cast<double>(steps) * retry_.ecc_step_latency;
    stats_.nand_read_errors++;
    stats_.nand_retry_steps += steps;
    stats_.retry_time += penalty;
    return penalty;
}

FaultInjector::NvmeOutcome
FaultInjector::nvmeCommand(unsigned dev)
{
    NvmeOutcome out;
    const double p = timeline_.nvmeTimeoutProbability(dev);
    if (!active_ || p <= 0.0)
        return out;
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (unsigned attempt = 1; attempt <= retry_.nvme_max_attempts;
         attempt++) {
        if (u(rngFor(dev)) >= p)
            return out;  // this attempt completed
        stats_.nvme_timeouts++;
        if (attempt == retry_.nvme_max_attempts) {
            out.failed = true;  // retries exhausted
            stats_.nvme_failures++;
            return out;
        }
        const Seconds delay =
            retry_.nvme_timeout + retry_.backoffDelay(attempt);
        out.extra_latency += delay;
        out.retries++;
        stats_.nvme_retries++;
        stats_.retry_time += delay;
    }
    return out;
}

}  // namespace test
}  // namespace hilos

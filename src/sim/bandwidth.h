/**
 * @file
 * Bandwidth-resource model.
 *
 * A BandwidthResource is a shared channel (a PCIe link, a flash channel,
 * a DRAM interface) that serialises transfers at a fixed byte rate with
 * an optional fixed per-request latency. Transfers issued while the
 * channel is busy queue behind it — this is what creates the contention
 * effects (host PCIe saturation) central to the paper's motivation.
 */

#ifndef HILOS_SIM_BANDWIDTH_H_
#define HILOS_SIM_BANDWIDTH_H_

#include <cstdint>
#include <string>

#include "common/units.h"

namespace hilos {

/**
 * A serialised, fixed-rate channel.
 *
 * The model is analytic: `transfer(start, bytes)` returns the completion
 * time assuming FIFO service, and advances the channel's busy horizon.
 * Busy time accumulates so benches can report per-link occupancy
 * (Fig. 4(c)).
 */
class BandwidthResource
{
  public:
    /**
     * @param name name used in diagnostics
     * @param rate channel bandwidth in bytes/second
     * @param latency fixed per-request latency in seconds
     */
    BandwidthResource(std::string name, Bandwidth rate,
                      Seconds latency = 0.0);

    /**
     * Issue a transfer of `bytes` that becomes ready at `start`.
     * @return completion time (>= start + latency + bytes/rate).
     */
    Seconds transfer(Seconds start, std::uint64_t bytes);

    /**
     * Pure service time of `bytes` on an idle channel (no queueing).
     */
    Seconds serviceTime(std::uint64_t bytes) const;

    /**
     * Occupy the channel for a fixed `duration` starting no earlier
     * than `start` (retry stalls, ECC recovery): the channel is busy
     * but moves no payload bytes.
     * @return completion time of the stall
     */
    Seconds occupy(Seconds start, Seconds duration);

    /** Earliest time a new transfer could begin service. */
    Seconds busyUntil() const { return busy_until_; }

    /** Total time the channel spent busy. */
    Seconds busyTime() const { return busy_time_; }

    /**
     * Fraction of [0, horizon] the channel was busy. Reports the true
     * busy_time/horizon ratio with no clamping; querying with a
     * horizon that does not cover the full busy span (i.e. before
     * busyUntil()) is an accounting error and asserts once the ratio
     * exceeds 1 + epsilon, so bugs surface instead of saturating.
     */
    double utilization(Seconds horizon) const;

    Seconds latency() const { return latency_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    Bandwidth rate_;
    Seconds latency_;
    Seconds busy_until_ = 0.0;
    Seconds busy_time_ = 0.0;
};

}  // namespace hilos

#endif  // HILOS_SIM_BANDWIDTH_H_

/**
 * @file
 * Placement policy layer of the fleet subsystem: decides which hosts
 * serve which share of the request batch, separately from the engines
 * that execute the placement (the scheduler/server split ScaleLLM
 * uses). Policies are pure functions of (workload, alive set), so a
 * fleet run can re-place deterministically at every fault epoch.
 */

#ifndef HILOS_RUNTIME_FLEET_SCHEDULER_H_
#define HILOS_RUNTIME_FLEET_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "runtime/hilos_engine.h"
#include "runtime/system_config.h"

namespace hilos {

/** How a FleetScheduler spreads request load across hosts. */
enum class PlacementPolicy {
    Spread,      ///< even split over every alive host
    Pack,        ///< fewest hosts filled to capacity, rest idle
    FaultAware,  ///< even split, but `spare_hosts` held in reserve
};

/** Stable lower-case policy name (CLI flags, reports, serialization). */
const char *placementPolicyName(PlacementPolicy policy);

/** Parse a policy name; raises a fatal error on unknown input. */
PlacementPolicy parsePlacementPolicy(const std::string &name);

/** The host mask with hosts 0..hosts-1 set (hosts <= 64). */
constexpr std::uint64_t
allHostsMask(unsigned hosts)
{
    return hosts >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << hosts) - 1;
}

/** Share of the batch one host serves under a placement. */
struct HostAssignment {
    unsigned host = 0;
    std::uint64_t batch = 0;  ///< requests decoding on this host
    bool spare = false;       ///< alive but held empty in reserve
};

/** One deterministic placement of the batch over the alive hosts. */
struct FleetPlacement {
    std::vector<HostAssignment> assignments;  ///< one per alive host
    std::uint64_t placed_batch = 0;   ///< requests that found a host
    std::uint64_t dropped_batch = 0;  ///< requests beyond fleet capacity
    unsigned serving_hosts = 0;       ///< hosts with batch > 0
    unsigned spare_hosts = 0;         ///< alive hosts kept in reserve

    /** Largest per-host share (the host that binds the fleet step). */
    std::uint64_t maxHostBatch() const;
};

/**
 * Places request load across the alive hosts of a fleet under one
 * PlacementPolicy. Per-host capacity comes from the same analytic
 * capacity model the single-host engine applies (KV + resident bytes
 * against the fleet's aggregate device memory), so a placement is
 * feasible exactly when every per-host share is.
 */
class FleetScheduler
{
  public:
    FleetScheduler(const SystemConfig &sys, const HilosOptions &host_opts,
                   PlacementPolicy policy, unsigned spare_hosts);

    /**
     * Place `batch` requests over the hosts whose bit is set in the
     * host mask `alive` (bit h is host h; a fleet has at most 64
     * hosts). FaultAware reserves up to `spare_hosts` alive hosts
     * (highest indices first) as long as at least one host keeps
     * serving; requests beyond the serving capacity are dropped, not
     * queued. Allocates only the assignments.
     */
    FleetPlacement place(const RunConfig &cfg, std::uint64_t batch,
                         std::uint64_t alive) const;

    /** Requests one host can decode for this workload (may be 0). */
    std::uint64_t hostCapacity(const RunConfig &cfg) const;

  private:
    SystemConfig sys_;
    HilosOptions host_opts_;
    PlacementPolicy policy_ = PlacementPolicy::Spread;
    unsigned spare_hosts_ = 0;
};

}  // namespace hilos

#endif  // HILOS_RUNTIME_FLEET_SCHEDULER_H_

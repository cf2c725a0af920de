#include "runtime/fleet_scheduler.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.h"
#include "runtime/cost_model.h"

namespace hilos {

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::Spread:
        return "spread";
      case PlacementPolicy::Pack:
        return "pack";
      case PlacementPolicy::FaultAware:
        return "fault-aware";
    }
    return "unknown";
}

PlacementPolicy
parsePlacementPolicy(const std::string &name)
{
    if (name == "spread")
        return PlacementPolicy::Spread;
    if (name == "pack")
        return PlacementPolicy::Pack;
    if (name == "fault-aware")
        return PlacementPolicy::FaultAware;
    HILOS_FATAL("unknown placement policy '", name,
                "' (spread, pack, fault-aware)");
}

std::uint64_t
FleetPlacement::maxHostBatch() const
{
    std::uint64_t max_batch = 0;
    for (const HostAssignment &a : assignments)
        max_batch = std::max(max_batch, a.batch);
    return max_batch;
}

FleetScheduler::FleetScheduler(const SystemConfig &sys,
                               const HilosOptions &host_opts,
                               PlacementPolicy policy,
                               unsigned spare_hosts)
    : sys_(sys), host_opts_(host_opts), policy_(policy),
      spare_hosts_(spare_hosts)
{
}

std::uint64_t
FleetScheduler::hostCapacity(const RunConfig &cfg) const
{
    const ModelConfig &m = cfg.model;
    std::uint64_t kept_seq = cfg.context_len + cfg.output_len;
    if (host_opts_.attention_window > 0)
        kept_seq = std::min(kept_seq, host_opts_.attention_window);
    const Bytes fleet_capacity =
        static_cast<double>(host_opts_.num_devices) *
        static_cast<double>(sys_.smartssd.nand.capacity);
    const WeightHome home = chooseWeightHome(m, sys_.dram.capacity);
    const Bytes resident = home == WeightHome::Storage
                               ? static_cast<double>(m.weightBytesTotal())
                               : 0.0;
    return maxFittingBatch(
        m, std::numeric_limits<std::uint64_t>::max() / 2, kept_seq,
        fleet_capacity, resident);
}

FleetPlacement
FleetScheduler::place(const RunConfig &cfg, std::uint64_t batch,
                      std::uint64_t alive) const
{
    FleetPlacement out;
    const std::uint64_t capacity = hostCapacity(cfg);
    const auto alive_hosts = static_cast<unsigned>(std::popcount(alive));
    if (alive_hosts == 0 || capacity == 0) {
        out.dropped_batch = batch;
        return out;
    }

    // FaultAware holds spare capacity back so a later host loss can
    // promote a warm spare instead of re-packing the survivors; it
    // never reserves the whole alive set.
    unsigned spares = 0;
    if (policy_ == PlacementPolicy::FaultAware)
        spares = std::min(spare_hosts_, alive_hosts - 1);
    const unsigned servers = alive_hosts - spares;

    // Pack fills hosts in index order to capacity; later hosts stay
    // idle (implicit spares, but not counted as reserved). Spread and
    // FaultAware split evenly over the serving hosts, the first
    // `batch % servers` hosts taking one extra request.
    std::uint64_t left = batch;
    const std::uint64_t base = batch / servers;
    const std::uint64_t extra = batch % servers;
    out.assignments.reserve(alive_hosts);
    unsigned i = 0;
    for (std::uint64_t rest = alive; rest != 0; rest &= rest - 1, i++) {
        HostAssignment a;
        a.host = static_cast<unsigned>(std::countr_zero(rest));
        if (policy_ == PlacementPolicy::Pack) {
            a.batch = std::min(left, capacity);
            left -= a.batch;
        } else if (i < servers) {
            a.batch = std::min(base + (i < extra ? 1 : 0), capacity);
        }
        a.spare = policy_ == PlacementPolicy::FaultAware && i >= servers;
        out.placed_batch += a.batch;
        if (a.batch > 0)
            out.serving_hosts++;
        if (a.spare)
            out.spare_hosts++;
        out.assignments.push_back(a);
    }
    out.dropped_batch = batch - out.placed_batch;
    return out;
}

}  // namespace hilos

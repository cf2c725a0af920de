/**
 * @file
 * Fleet-scale NSP scale-out: N hosts of M SmartSSDs each, data-parallel
 * over the request batch, coordinated over an inter-host interconnect
 * (the vLLM baseline's InfiniBand model generalized to N nodes). The
 * FleetEngine executes a FleetScheduler placement through the one epoch
 * fold every engine runs: a host loss triggers deterministic
 * re-placement and shard rebuild, a host stall runs the retry/backoff
 * ladder, and throughput degrades gracefully instead of erroring.
 */

#ifndef HILOS_RUNTIME_FLEET_ENGINE_H_
#define HILOS_RUNTIME_FLEET_ENGINE_H_

#include <string>
#include <vector>

#include "runtime/engine.h"
#include "runtime/fleet_scheduler.h"
#include "runtime/hilos_engine.h"
#include "runtime/step_plan.h"
#include "runtime/system_config.h"
#include "sim/fault.h"

namespace hilos {

/** Cluster shape of a SmartSSD fleet. */
struct FleetConfig {
    unsigned hosts = 2;
    unsigned devices_per_host = 8;  ///< SmartSSDs per host (1..16)
    PlacementPolicy policy = PlacementPolicy::Spread;
    /** Hosts FaultAware holds in reserve (ignored by other policies). */
    unsigned spare_hosts = 1;
    /** Inter-host interconnect (InfiniBand EDR, as the vLLM baseline). */
    Bandwidth inter_host_bw = 12.5 * GB;
    /** One-way inter-host message latency (per-step coordination). */
    Seconds inter_host_latency = usec(15);
    /**
     * Fault schedule for the whole fleet, on one condition timeline:
     * host-scope events re-place the batch; device-scope events apply
     * to that device index on every host. Both cut the fleet's decode
     * epochs. Empty = the zero-fault fast path.
     */
    FaultPlan fault_plan;

    /**
     * Shape and plan checks, one named diagnostic per violation (empty
     * = valid). FleetEngine construction is gated on it.
     */
    std::vector<std::string> validate() const;
};

/**
 * Data-parallel fleet of single-host HILOS engines under one scheduler.
 *
 * A fleet decode step is the slowest serving host's step plus the
 * per-step coordination exchange; with one host and no faults the
 * result is bit-identical to the underlying HilosEngine. Fault events
 * partition the run into epochs; every boundary re-places the batch
 * deterministically, charges shard-rebuild traffic over the (possibly
 * degraded) inter-host link, and the run completes with availability
 * < 1 rather than failing, as long as any host survives.
 */
class FleetEngine : public InferenceEngine
{
  public:
    FleetEngine(const SystemConfig &sys, const FleetConfig &fleet,
                const HilosOptions &host_opts = HilosOptions{});

    std::string name() const override;

    /**
     * The healthy fleet's decode step: the host engine's decode plan
     * at the largest per-host share of the all-hosts placement. With
     * more than one host it gains an `inter_host_sync` stage, one
     * InterNode resource and a tail op priced as the per-step
     * coordination exchange, so its evaluation is run()'s healthy
     * decode step bit-for-bit. `res` gets the host engine's capacity
     * decisions at that share.
     */
    void buildDecodePlan(const RunConfig &cfg, RunResult &res,
                         StepPlan &plan) const override;
    /**
     * The host engine's prefill plan at the same per-host share as
     * buildDecodePlan(): hosts prefill their shares in parallel, and
     * run() adopts exactly this prefill.
     */
    void buildPrefillPlan(const RunConfig &cfg, std::uint64_t chunk_index,
                          std::uint64_t chunk_count,
                          StepPlan &plan) const override;

    /**
     * The fleet decode step at run time `now`: the placement over the
     * hosts serving at `now`, the host plan under the device conditions
     * in force then and the coordination exchange over the inter-host
     * link's derate at `now`. Infeasible, with a note, when no host can
     * serve.
     */
    void buildDecodePlanAt(const RunConfig &cfg, Seconds now,
                           RunResult &res, StepPlan &plan) const override;
    /** The host prefill plan at the share of the placement at `now`. */
    void buildPrefillPlanAt(const RunConfig &cfg, Seconds now,
                            std::uint64_t chunk_index,
                            std::uint64_t chunk_count,
                            StepPlan &plan) const override;
    /**
     * The host engine's device rebuild at the placement held since
     * `since`, plus the KV cache of the requests homed on hosts lost by
     * `now` re-homed over the (possibly degraded) inter-host link.
     */
    StepPlan rebuildPlanAt(const RunConfig &cfg, Seconds since, Seconds now,
                           std::uint64_t done) const override;
    const ConditionTimeline &timeline() const override { return timeline_; }
    /**
     * Cluster accounting: the FleetSummary of the epochs, the host
     * engine's FaultSummary when the plan has device-scope events, and
     * traffic, busy time and energy of the serving hosts (each epoch
     * weighs its serving hosts' whole-run host accounting).
     */
    void summarize(const RunConfig &cfg, const EpochLog &log,
                   RunResult &res) const override;

    /**
     * Replay backend of the fleet decode step: simulatePlan over
     * decodeStepPlanAt(cfg, now). 0 when no host or no device can
     * serve. Agreement with run()'s epoch step is an oracle invariant.
     */
    Seconds simulatedDecodeStep(const RunConfig &cfg,
                                Seconds now = 0.0) const;

  private:
    /** Per-step token/coordination exchange (0 for a one-host fleet). */
    Seconds coordinationTime(std::uint64_t placed_batch,
                             double derate) const;

    /**
     * Append to `plan`, a host decode plan at a placement's largest
     * share, the coordination exchange of `placed_batch` requests over
     * a link at `derate` as a tail op (nothing for one host or an
     * infeasible plan).
     */
    void appendCoordination(StepPlan &plan, std::uint64_t placed_batch,
                            double derate) const;

    /** The batch placed over every host (no fault in force). */
    FleetPlacement healthyPlacement(const RunConfig &cfg) const;

    /** The batch placed over the hosts alive and not stalled at `now`. */
    FleetPlacement placementAt(const RunConfig &cfg, Seconds now) const;

    SystemConfig sys_;
    FleetConfig fleet_;
    HilosOptions host_opts_;
    FleetScheduler sched_;
    HilosEngine host_engine_;
    ConditionTimeline timeline_;
};

}  // namespace hilos

#endif  // HILOS_RUNTIME_FLEET_ENGINE_H_

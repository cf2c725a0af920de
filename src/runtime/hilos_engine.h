/**
 * @file
 * The HILOS inference engine (§4): attention near storage on a fleet of
 * SmartSSDs, optionally composed with cooperative X-cache (§4.2) and
 * delayed KV cache writeback (§4.3). Flags expose the Fig. 15 ablation
 * points (ANS, ANS+WB, ANS+X, full HILOS).
 */

#ifndef HILOS_RUNTIME_HILOS_ENGINE_H_
#define HILOS_RUNTIME_HILOS_ENGINE_H_

#include <string>

#include "runtime/engine.h"
#include "runtime/step_plan.h"
#include "runtime/system_config.h"
#include "runtime/xcache.h"
#include "sim/fault.h"

namespace hilos {

/** HILOS feature configuration. */
struct HilosOptions {
    unsigned num_devices = 8;        ///< SmartSSD count (4/8/16 in §6.3)
    bool delayed_writeback = true;   ///< §4.3; false = naive commits
    bool xcache = true;              ///< §4.2 cooperative X-cache
    /** X-cache ratio; negative selects the scheduler's analytic alpha. */
    double alpha_override = -1.0;
    unsigned spill_interval = 16;    ///< writeback spill interval c
    /**
     * Model a CXL.mem-attached accelerator (§7.3): coherent access to
     * the staging buffers removes the XRT DMA-orchestration overhead.
     */
    bool cxl_mode = false;
    /**
     * Sliding-window attention (§5.1 attention variants): each step
     * attends only the most recent `attention_window` tokens (0 = full
     * attention). Bounds KV reads and the cache footprint; the kernel
     * honours it via AttentionRequest::window_start.
     */
    std::uint64_t attention_window = 0;
    /**
     * Injected fault schedule. An empty plan takes the zero-fault fast
     * path, which is byte-identical to the engine without this field;
     * a non-empty plan runs the epoch fold over its device-scope
     * conditions (closed-form fault expectations, alpha re-selected per
     * surviving fleet, shard rebuild on device failure). Host-scope
     * events are the fleet's and do not reach a single chassis.
     */
    FaultPlan fault_plan;
};

/**
 * HILOS engine: analytic end-to-end model mirroring the real system's
 * execution schedule.
 */
class HilosEngine : public InferenceEngine
{
  public:
    HilosEngine(const SystemConfig &sys, const HilosOptions &opts);

    std::string name() const override;
    /** The zero-fault (ideal-fleet) decode step; its capacity checks,
     *  fault accounting and fpga power into `res`. */
    void buildDecodePlan(const RunConfig &cfg, RunResult &res,
                         StepPlan &plan) const override;
    /** The zero-fault (ideal-fleet) prefill plan for one chunk. */
    void buildPrefillPlan(const RunConfig &cfg, std::uint64_t chunk_index,
                          std::uint64_t chunk_count,
                          StepPlan &plan) const override;
    /**
     * The decode-step plan under the fleet conditions the FaultPlan
     * puts in force at run time `now`: surviving devices, link derates
     * and expected retry cost. With an empty plan this is the ideal
     * plan. Infeasible, with a note, when no device survives at `now`.
     */
    void buildDecodePlanAt(const RunConfig &cfg, Seconds now,
                           RunResult &res, StepPlan &plan) const override;
    /** The prefill plan for one chunk under the conditions at `now`. */
    void buildPrefillPlanAt(const RunConfig &cfg, Seconds now,
                            std::uint64_t chunk_index,
                            std::uint64_t chunk_count,
                            StepPlan &plan) const override;
    /**
     * The KV/X shards of the devices lost between `since` and `now`
     * rebuilt onto the survivors over the narrower of the uplink and
     * their aggregate P2P write path: one tail transfer op.
     */
    StepPlan rebuildPlanAt(const RunConfig &cfg, Seconds since, Seconds now,
                           std::uint64_t done) const override;
    const ConditionTimeline &timeline() const override { return timeline_; }
    /**
     * The FaultSummary of a faulted run: surviving devices,
     * availability and slowdown, plus the closed-form expectations of
     * retry time and discrete fault counts over the decode epochs.
     * Nothing for an empty fault plan.
     */
    void summarize(const RunConfig &cfg, const EpochLog &log,
                   RunResult &res) const override;

    /** Aggregate internal P2P read bandwidth of the fleet. */
    Bandwidth internalReadBw() const;
    /** Effective host-path (GDS) bandwidth for X-cache loads. */
    Bandwidth gdsBw() const;

    /** The scheduler-selected alpha for a given workload shape. */
    double selectedAlpha(const RunConfig &cfg) const;

    const HilosOptions &options() const { return opts_; }

  private:
    /**
     * Operating conditions of one fleet epoch: the surviving device
     * count plus the fault-derived derates and per-read expected retry
     * probabilities in force during that epoch. The defaults describe a
     * healthy fleet (identity derates, zero probabilities), under which
     * makePlan() reproduces the zero-fault engine bit-for-bit.
     */
    struct FleetConditions {
        unsigned devices = 0;          ///< surviving SmartSSDs
        unsigned failed_devices = 0;   ///< removed from the fleet
        double p2p_derate = 1.0;       ///< internal-path multiplier
        double uplink_derate = 1.0;    ///< chassis-uplink multiplier
        double nand_error_prob = 0.0;  ///< per-read ECC error prob
        double nvme_timeout_prob = 0.0;  ///< per-command timeout prob
        RetryPolicy retry;             ///< recovery-cost knobs
    };

    FleetConditions idealConditions() const;

    /**
     * Conditions the timeline puts in force at run time `now`; the only
     * place a FaultPlan turns into plan pricing.
     */
    FleetConditions conditionsAt(Seconds now) const;

    /** Scheduler alpha for a given fleet/GDS bandwidth pair. */
    double alphaFor(const RunConfig &cfg, Bandwidth fleet_read,
                    Bandwidth gds) const;
    /** Scheduler alpha on the fleet `cond` describes. */
    double alphaUnder(const RunConfig &cfg,
                      const FleetConditions &cond) const;

    /**
     * Expected ECC read-retry and NVMe timeout/backoff recovery per
     * layer of one decode step under `cond` at X-cache ratio `alpha`:
     * one KV-slice read per slice on each device's internal path.
     * Exactly 0 under zero fault probability.
     */
    Seconds retryPerLayer(const RunConfig &cfg, const FleetConditions &cond,
                          double alpha) const;

    /**
     * buildDecodePlan under the given fleet conditions: capacity
     * checks, fault accounting and fpga power into `res`; the decode
     * step itself built into `plan`.
     */
    void makePlan(const RunConfig &cfg, const FleetConditions &cond,
                  RunResult &res, StepPlan &plan) const;

    /**
     * Prefill-phase plan for one chunk under the given fleet
     * conditions: GPU prefill compute races the weight stream, then the
     * chunk's KV/X cache commits to the fleet over the narrower of the
     * uplink and the aggregate P2P write path.
     */
    void makePrefillPlan(const RunConfig &cfg, const FleetConditions &cond,
                         std::uint64_t chunk_index,
                         std::uint64_t chunk_count, StepPlan &plan) const;

    SystemConfig sys_;
    HilosOptions opts_;
    ConditionTimeline timeline_;
    Gpu gpu_;
    Cpu cpu_;
    PowerSpec power_;
};

}  // namespace hilos

#endif  // HILOS_RUNTIME_HILOS_ENGINE_H_

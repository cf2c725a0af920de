/**
 * @file
 * Transfer-granularity simulation of a HILOS decoding step.
 *
 * The analytic engine (hilos_engine.*) composes closed-form stage times
 * with max/sum rules; this simulator replays the same decoding step as
 * individual slice-sized transfers over contended resources — the
 * chassis uplink, the GDS path, each SmartSSD's internal P2P link and
 * accelerator, and the GPU — with cross-layer weight prefetching. It
 * exists to validate the analytic model (the two must agree within
 * tens of percent; see bench_crossval_eventsim and the tests) and to
 * expose per-resource utilisation at finer granularity.
 */

#ifndef HILOS_RUNTIME_EVENT_SIM_H_
#define HILOS_RUNTIME_EVENT_SIM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/engine.h"
#include "runtime/hilos_engine.h"
#include "runtime/step_plan.h"
#include "runtime/system_config.h"
#include "sim/bandwidth.h"
#include "sim/trace.h"

namespace hilos {

/** Per-resource outcome of one simulated decoding step. */
struct EventSimResult {
    Seconds decode_step_time = 0;
    double uplink_utilization = 0;
    double gds_utilization = 0;
    double internal_utilization = 0;  ///< mean over devices
    double gpu_utilization = 0;
    Seconds mean_layer_time = 0;
    std::vector<Seconds> layer_times;

    // Fault-injection outcome (all zero / true without a FaultPlan).
    bool completed = true;  ///< false: no surviving device could serve
    std::string note;       ///< failure reason when !completed
    unsigned devices_failed = 0;
    std::uint64_t redispatched_slices = 0;
    std::uint64_t nand_read_errors = 0;
    std::uint64_t nvme_timeouts = 0;
    std::uint64_t nvme_retries = 0;
    Seconds retry_time = 0;  ///< latency added by retry recovery
};

/**
 * Slice-level simulator of the HILOS decode pipeline.
 */
class HilosEventSimulator
{
  public:
    HilosEventSimulator(const SystemConfig &sys, const HilosOptions &opts);

    /**
     * Simulate one full decoding step (all layers).
     *
     * When the options carry a FaultPlan, fault conditions (failed
     * devices, link derates) are sampled at `start_time`; slices homed
     * on failed devices re-dispatch round-robin onto survivors, and
     * per-slice NAND/NVMe recovery penalties are drawn from the plan's
     * seeded per-device RNG streams, so the same (seed, plan,
     * start_time) always reproduces an identical result.
     *
     * @param trace optional recorder; when supplied every transfer and
     *        compute interval lands on its own track (exportable to
     *        chrome://tracing via TraceRecorder::writeChromeTrace)
     * @param start_time absolute run time at which this step begins
     *        (used to evaluate timed fault events)
     */
    EventSimResult simulateDecodeStep(const RunConfig &cfg,
                                      TraceRecorder *trace = nullptr,
                                      Seconds start_time = 0.0) const;

  private:
    SystemConfig sys_;
    HilosOptions opts_;
};

/** Outcome of replaying one StepPlan over contended resources. */
struct PlanSimResult {
    Seconds decode_step_time = 0;
    /** Pre-divisor end of the layered phase (step start = 0). */
    Seconds layered_end = 0;
    std::vector<Seconds> layer_times;
    /**
     * Completion time of each layer-0 op (indexed like
     * StepPlan::layer_ops, relative to step start). Shadow ops hold
     * their dependency-propagated finish; offline ops hold 0. Under
     * contention each entry is >= the analytic PlanEvaluation's
     * op_finish for the same op — the structural agreement invariant
     * the oracles check.
     */
    std::vector<Seconds> first_layer_finish;
    /** Mean utilisation per referenced resource, by planResourceName. */
    std::vector<std::pair<std::string, double>> resource_utilization;
    /** Utilisation per referenced compute unit, by computeUnitName. */
    std::vector<std::pair<std::string, double>> unit_utilization;
};

/**
 * Replay a StepPlan over contended BandwidthPools: every transfer op
 * occupies one pool instance per fanout replica (round-robin striped),
 * compute ops occupy a single-instance pool per unit, prefetch ops
 * become ready with the previous layer's start, shadow ops contribute
 * timing only, offline ops are skipped. The layered timeline divided by
 * `layer_time_divisor` plus the serial tail gives the decode step —
 * under an uncontended plan this reproduces the analytic evaluator;
 * contention (several ops sharing one pool instance) can only delay it.
 */
PlanSimResult simulatePlan(const StepPlan &plan,
                           TraceRecorder *trace = nullptr);

/**
 * Adapt a plan replay to the EventSimResult shape the agreement
 * checkers consume. Utilisations map by name (uplink or host_pcie ->
 * uplink; gds -> gds; mean of p2p/storage/intra_node -> internal; gpu
 * unit -> gpu); absent resources report 0.
 */
EventSimResult toEventSimResult(const PlanSimResult &r);

}  // namespace hilos

#endif  // HILOS_RUNTIME_EVENT_SIM_H_

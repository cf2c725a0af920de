/**
 * @file
 * The replay backend: one StepPlan queued over contended resources.
 *
 * The analytic evaluator (evaluatePlan in runtime/step_plan.h) prices a
 * plan with max/sum rules; simulatePlan replays the same plan op by op
 * on per-instance resource timelines, so ops that share a resource
 * instance queue behind each other. It is the only replay in the
 * library: every engine's decode and prefill plans run through it, a
 * faulted HILOS step replays the plan HilosEngine::decodeStepPlanAt
 * prices under that time's fleet conditions, and its per-pool tracks
 * are what `hilos_cli --trace` writes. The traced and untraced replays
 * are one loop compiled twice, with a trace sink and with a recorder
 * that does nothing, so recording a trace never changes a result bit
 * and the untraced replay does no trace work. The independent
 * slice-level oracle that both backends are checked against lives in
 * tests/support/slice_sim.h.
 */

#ifndef HILOS_RUNTIME_EVENT_SIM_H_
#define HILOS_RUNTIME_EVENT_SIM_H_

#include <string>
#include <utility>
#include <vector>

#include "runtime/step_plan.h"
#include "sim/trace.h"

namespace hilos {

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
 * Replay a StepPlan over contended resource instances: every transfer
 * op occupies one instance of its resource per fanout replica (replica
 * k on instance k mod the declared instance count), compute ops occupy
 * a single-instance pool per unit, prefetch ops become ready with the
 * previous layer's start, shadow ops contribute timing only, offline
 * ops are skipped. The layered timeline divided by
 * `layer_time_divisor` plus the serial tail gives the decode step —
 * under an uncontended plan this reproduces the analytic evaluator;
 * contention (several ops sharing one pool instance) can only delay it.
 *
 * The resolved ops, their flat dependency array, the per-op finish
 * times and the pool slots live in scratch this thread keeps across
 * calls, so a warm call allocates only the result's four vectors
 * (layer_times, first_layer_finish and the two utilisation vectors).
 * A call is therefore not reentrant on one thread: `trace` must not
 * replay another plan from inside a record().
 */
PlanSimResult simulatePlan(const StepPlan &plan,
                           TraceRecorder *trace = nullptr);

}  // namespace hilos

#endif  // HILOS_RUNTIME_EVENT_SIM_H_

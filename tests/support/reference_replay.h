/**
 * @file
 * A reference StepPlan replay: the straightforward form of
 * simulatePlan (runtime/event_sim.h), kept as a bitwise oracle.
 *
 * It walks every layer, every op and every fanout replica, keeping one
 * BandwidthResource per resource instance in a per-pool vector and
 * occupying instance `k % size` for replica k. The production replay
 * resolves ops once, keeps the instances in flat slot vectors and
 * collapses pools whose instances have seen identical occupy
 * sequences; every result bit and every trace interval of the two must
 * agree.
 */

#ifndef HILOS_TESTS_SUPPORT_REFERENCE_REPLAY_H_
#define HILOS_TESTS_SUPPORT_REFERENCE_REPLAY_H_

#include "runtime/event_sim.h"
#include "runtime/step_plan.h"
#include "sim/trace.h"

namespace hilos {
namespace test {

/** Replay `plan` the reference way; same contract as simulatePlan. */
PlanSimResult referenceSimulatePlan(const StepPlan &plan,
                                    TraceRecorder *trace = nullptr);

}  // namespace test
}  // namespace hilos

#endif  // HILOS_TESTS_SUPPORT_REFERENCE_REPLAY_H_

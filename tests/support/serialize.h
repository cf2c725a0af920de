/**
 * @file
 * Canonical text serialisation of user-visible result types, the
 * substrate of the golden-snapshot tests. One stable `key = value` line
 * per field, fixed field order, doubles printed with %.9g (enough to
 * expose any real behavioural change while leaving last-ulp headroom),
 * so that serialisations are byte-identical run-to-run and diff cleanly
 * when a refactor moves a number.
 */

#ifndef HILOS_TESTS_SUPPORT_SERIALIZE_H_
#define HILOS_TESTS_SUPPORT_SERIALIZE_H_

#include <string>

#include "runtime/batcher.h"
#include "runtime/engine.h"
#include "runtime/serving.h"
#include "runtime/step_plan.h"
#include "sim/trace.h"
#include "support/slice_sim.h"

namespace hilos {
namespace test {

/** Canonical %.9g rendering (nan/inf spelled out, -0 folded to 0). */
std::string formatDouble(double v);

/** Every field of a RunResult, breakdown/traffic/energy included. */
std::string serialize(const RunResult &r);

/** Every field of a FaultSummary. */
std::string serialize(const FaultSummary &f);

/**
 * Every field of a FleetSummary, one line per epoch. Serialized into a
 * RunResult only when the result came from a fleet run (any() == true),
 * so non-fleet goldens are unchanged.
 */
std::string serialize(const FleetSummary &f);

/** Every scalar field of an EventSimResult plus the layer-time vector. */
std::string serialize(const EventSimResult &r);

/**
 * Canonical dump of a StepPlan: header scalars, declared stages and
 * resources, then one line per op carrying every field (kind, target,
 * label, seconds, bytes, fanout, stage, busy mask, role flags, deps,
 * traffic shares), then busy fractions and the energy spec. Pins the
 * exact IR an engine emits, so golden diffs localise a behavioural
 * change to the op that moved.
 */
std::string serialize(const StepPlan &plan);

/**
 * Every field of a ServingResult: headline metrics, exact latency
 * percentiles, queue/batch occupancy, then one line per request record
 * (lifecycle timestamps) and one per queue-depth sample — so a golden
 * diff localises a scheduling change to the request it moved.
 */
std::string serialize(const ServingResult &r);

/**
 * Offline batcher outcome: the scheduled batches plus the makespan /
 * throughput / padding-overhead accounting.
 */
std::string serialize(const BatchPlanResult &r);

/**
 * Per-track summary of a recorded trace: event count, busy seconds,
 * and first/last timestamps, one line per track in first-appearance
 * order. Summarises rather than dumps: the full event list is huge and
 * incidental, while occupancy per track is the behavioural surface.
 */
std::string traceSummary(const TraceRecorder &trace);

}  // namespace test
}  // namespace hilos

#endif  // HILOS_TESTS_SUPPORT_SERIALIZE_H_

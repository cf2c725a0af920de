#ifndef HILOS_RUNTIME_PLAN_ANALYZER_H_
#define HILOS_RUNTIME_PLAN_ANALYZER_H_

/**
 * Semantic analysis over a validated StepPlan: a registry of
 * independent passes that walk the layer/tail op DAG and report
 * *meaning*-level defects validate() cannot see — dead ops, redundant
 * dependency edges, prefetches serialized behind timed work, traffic
 * invisible to the energy spec, accounting that violates conservation,
 * and ops whose role contradicts the plan's phase.
 *
 * Each finding carries a stable diagnostic ID (PA001..), a severity,
 * and the offending op's name, mirroring the one-diagnostic-per-
 * violation contract of StepPlan::validate(). Error-severity findings
 * are builder bugs; warnings are intentional modelling choices that a
 * waiver file (tests/plan_waivers.txt) pins by ID + op label so they
 * cannot drift silently.
 *
 * The analysis also annotates the layer DAG with per-op slack (how far
 * an op can slip without growing the layer critical path) and the
 * bottleneck chain realizing that critical path.
 *
 * Deterministic and bit-stable: analysing the same plan twice yields
 * byte-identical findings and serialisation.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/step_plan.h"

namespace hilos {

/** Severity of one analyzer finding. */
enum class FindingSeverity : std::uint8_t {
    Error,  ///< builder bug; gates ctest/fuzz lanes and CI
    Warn,   ///< intentional modelling choice; must be waived to pass CI
    Info,   ///< advisory only
};

/** Stable lower-case name for serialisation ("error", "warn", "info"). */
const char *findingSeverityName(FindingSeverity s);

/** One analyzer finding: a stable ID, the offending op, the message. */
struct PlanFinding {
    const char *id = "";  ///< stable "PAnnn" diagnostic ID
    FindingSeverity severity = FindingSeverity::Error;
    /** Label of the offending op ("" for plan-scoped findings); the
     *  waiver key alongside `id`. */
    std::string op;
    /** Full diagnostic, opRef-style: "layer op #3 'kv_fetch': ...". */
    std::string message;
    bool waived = false;  ///< set by applyPlanWaivers
};

/** Everything one analysis produces. */
struct PlanAnalysis {
    /** Findings in pass order, then op order — deterministic. */
    std::vector<PlanFinding> findings;
    /** Critical path over one layer's op DAG (== evaluatePlan's). */
    Seconds layer_critical_path = 0;
    /** Per layer-op slack: how much the op can slip without growing
     *  the layer critical path. Offline ops (finish pinned at 0) get
     *  the full critical path as slack. */
    std::vector<Seconds> op_slack;
    /** Layer-op ids of the bottleneck chain realizing the critical
     *  path, source to sink (ties broken toward the lowest id). */
    std::vector<std::size_t> bottleneck_chain;
};

/**
 * Run every registered pass plus the slack annotator over `plan`,
 * whose analytic evaluation `ev` (evaluatePlan(plan)) the caller
 * already holds. The plan must already be structurally valid
 * (validate() empty); the analyzer checks semantics, not structure.
 * Infeasible plans yield an empty analysis — there is nothing to
 * analyse.
 *
 * The reach rows, the slack pass's latest finishes, the findings and
 * the buffer each message is rendered into live in scratch this
 * thread keeps across calls, so a warm call allocates only what it
 * returns: op_slack, bottleneck_chain, findings and each finding's
 * strings. A call is not reentrant on one thread.
 */
PlanAnalysis analyzePlan(const StepPlan &plan, const PlanEvaluation &ev);

/**
 * analyzePlan(plan, evaluatePlan(plan)), with the evaluation written
 * into this thread's scratch instead of a fresh PlanEvaluation.
 */
PlanAnalysis analyzePlan(const StepPlan &plan);

/**
 * Append `v` as findings and serializeAnalysis render numbers: what
 * printf's "%.9g" prints in the C locale, whatever the process locale,
 * with nan, the infinities and -0 spelled "nan", "inf"/"-inf" and "0".
 */
void appendFindingNumber(std::string &out, double v);

/** One waiver: finding `id` on op label `op` ("*" matches any op). */
struct PlanWaiver {
    std::string id;
    std::string op;
};

/**
 * Parse the waiver-file format: one `PAnnn <op-label|*>` per line,
 * `#` starts a comment, blank lines ignored. Malformed lines are
 * reported into `problems` (when non-null) and skipped.
 */
std::vector<PlanWaiver> parsePlanWaivers(const std::string &text,
                                         std::vector<std::string> *problems);

/** Mark findings matched by a waiver (same ID, op label or "*"). */
void applyPlanWaivers(PlanAnalysis &analysis,
                      const std::vector<PlanWaiver> &waivers);

/** True when any error-severity finding is not waived. */
bool hasUnwaivedErrors(const PlanAnalysis &analysis);

/** Message of the first unwaived error ("" when none). */
std::string firstUnwaivedError(const PlanAnalysis &analysis);

/**
 * Canonical report serialisation (findings, slack table, bottleneck
 * chain), byte-stable and golden-comparable: floats render through
 * appendFindingNumber, as %.9g like tests/support/serialize.cc.
 */
std::string serializeAnalysis(const StepPlan &plan,
                              const PlanAnalysis &analysis);

/**
 * True when HILOS_ANALYZE_PLANS is set non-empty and not "0": the
 * opt-in gate under which applyPlan/applyPrefillPlan assert zero
 * error-severity findings on every plan they evaluate (the ctest and
 * nightly fuzz lanes run with it on). Cached on first call.
 */
bool analyzePlansEnabled();

}  // namespace hilos

#endif  // HILOS_RUNTIME_PLAN_ANALYZER_H_

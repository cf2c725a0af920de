#include "runtime/plan_analyzer.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "common/logging.h"

namespace hilos {

const char *
findingSeverityName(FindingSeverity s)
{
    switch (s) {
        case FindingSeverity::Error: return "error";
        case FindingSeverity::Warn: return "warn";
        case FindingSeverity::Info: return "info";
    }
    return "unknown";
}

namespace {

/** Shortest round-trippable float rendering, matching the golden
 *  serialiser (tests/support/serialize.cc): %.9g with nan/inf/-0
 *  folded to stable spellings. */
std::string
fmt9(double v)
{
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v > 0 ? "inf" : "-inf";
    if (v == 0.0)
        v = 0.0;  // fold -0 into 0
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** "layer op #3 'kv_fetch'" — the prefix every diagnostic starts with
 *  (same shape as StepPlan::validate()). */
std::string
opRef(const char *kind, std::size_t id, std::string_view label)
{
    std::string s = std::string(kind) + " op #" + std::to_string(id);
    if (!label.empty())
        s += " '" + std::string(label) + "'";
    return s;
}

/**
 * The single construction point for findings: stamps the pass's
 * stable ID and severity so no diagnostic can ship without one
 * (scripts/lint_hilos.py check 7 pins this).
 */
void
emitFinding(PlanAnalysis &out, const AnalyzerPassInfo &pass,
            std::string_view op_label, std::string message)
{
    PlanFinding f;
    f.id = pass.id;
    f.severity = pass.severity;
    f.op = std::string(op_label);
    f.message = std::move(message);
    out.findings.push_back(std::move(f));
}

/** Derived DAG facts shared by the passes. */
struct PassContext {
    const PlanEvaluation &ev;
    /** Layer op i is a dep of some later layer op. */
    std::vector<char> has_dependents;
    /** 64-bit words per reach row: ceil(layer ops / 64). */
    std::size_t words = 0;
    /** Row i (words `words * i` on) has bit j set when layer op j is
     *  transitively reachable from i via dependency edges (j < i
     *  always, deps are topologically ordered). */
    std::vector<std::uint64_t> reach;

    bool reaches(std::size_t i, std::size_t j) const
    {
        return (reach[i * words + j / 64] >> (j % 64)) & 1u;
    }
};

PassContext
buildContext(const StepPlan &plan, const PlanEvaluation &ev)
{
    const std::size_t n = plan.layer_ops.size();
    const std::size_t words = (n + 63) / 64;
    PassContext ctx{ev, std::vector<char>(n, 0), words,
                    std::vector<std::uint64_t>(n * words, 0)};
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t *row = ctx.reach.data() + i * words;
        for (const std::uint32_t d : plan.layer_ops[i].deps) {
            ctx.has_dependents[d] = 1;
            row[d / 64] |= std::uint64_t{1} << (d % 64);
            const std::uint64_t *dep_row = ctx.reach.data() + d * words;
            for (std::size_t w = 0; w < words; ++w)
                row[w] |= dep_row[w];
        }
    }
    return ctx;
}

bool
opAccounted(const StepOpView &op)
{
    return !op.shadow &&
           (!op.stage.empty() || !op.traffic.empty() || op.busy != 0);
}

// --- PA001: dead ops ------------------------------------------------------

void
passDeadOp(const StepPlan &plan, const PassContext &ctx,
           const AnalyzerPassInfo &pass, PlanAnalysis &out)
{
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i) {
        const StepOpView op = plan.layer_ops[i];
        const auto ref = [&] { return opRef("layer", i, op.label); };
        if (op.shadow) {
            if (op.seconds <= Seconds(0.0) && !ctx.has_dependents[i])
                emitFinding(out, pass, op.label,
                            ref() + ": shadow op has zero duration and no "
                                    "dependents — shadow ops exist only "
                                    "to be timed");
        } else if (op.offline) {
            if (!opAccounted(op))
                emitFinding(out, pass, op.label,
                            ref() + ": offline op contributes to no "
                                    "stage, traffic, or busy field — "
                                    "offline ops exist only to be "
                                    "accounted");
        } else {
            if (!opAccounted(op) && !ctx.has_dependents[i])
                emitFinding(out, pass, op.label,
                            ref() + ": op contributes to no stage, "
                                    "traffic, or busy field and nothing "
                                    "depends on it");
        }
    }
    for (std::size_t i = 0; i < plan.tail_ops.size(); ++i) {
        const StepOpView op = plan.tail_ops[i];
        if (!opAccounted(op) && op.seconds <= Seconds(0.0))
            emitFinding(out, pass, op.label,
                        opRef("tail", i, op.label) +
                            ": tail op contributes no time, stage, "
                            "traffic, or busy");
    }
}

// --- PA002: redundant dependency edges ------------------------------------

void
passRedundantEdge(const StepPlan &plan, const PassContext &ctx,
                  const AnalyzerPassInfo &pass, PlanAnalysis &out)
{
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i) {
        const StepOpView op = plan.layer_ops[i];
        if (op.deps.size() < 2)
            continue;
        for (const std::uint32_t d : op.deps) {
            for (const std::uint32_t other : op.deps) {
                if (other == d || !ctx.reaches(other, d))
                    continue;
                const StepOpView dep_op = plan.layer_ops[d];
                const StepOpView other_op = plan.layer_ops[other];
                emitFinding(
                    out, pass, op.label,
                    opRef("layer", i, op.label) + ": dependency on " +
                        opRef("layer", d, dep_op.label) +
                        " is already implied by the dependency on " +
                        opRef("layer", other, other_op.label));
                break;
            }
        }
    }
}

// --- PA003: defeated prefetch/shadow overlap ------------------------------

void
passDefeatedPrefetch(const StepPlan &plan, const PassContext &ctx,
                     const AnalyzerPassInfo &pass, PlanAnalysis &out)
{
    const std::size_t n = plan.layer_ops.size();
    for (std::size_t i = 0; i < n; ++i) {
        const StepOpView op = plan.layer_ops[i];
        if (!op.prefetch && !op.shadow)
            continue;
        for (std::size_t j = 0; j < n; ++j) {
            if (!ctx.reaches(i, j))
                continue;
            const StepOpView anchor = plan.layer_ops[j];
            if (anchor.prefetch || anchor.seconds <= Seconds(0.0))
                continue;
            const char *role = op.prefetch ? "prefetch" : "shadow";
            const char *why =
                op.prefetch
                    ? "the replay cannot issue it a layer ahead — it "
                      "overlaps nothing"
                    : "the race it models is serialized behind the work "
                      "it should overlap";
            emitFinding(out, pass, op.label,
                        opRef("layer", i, op.label) + ": " + role +
                            " op waits on timed " +
                            opRef("layer", j, anchor.label) + ", so " +
                            why);
            break;
        }
    }
}

// --- PA004: work invisible to the energy spec -----------------------------

void
passEnergyCoverage(const StepPlan &plan, const PassContext &,
                   const AnalyzerPassInfo &pass, PlanAnalysis &out)
{
    if (!plan.energy.enabled)
        return;
    const auto check = [&](const char *kind, std::size_t i,
                           const StepOpView &op) {
        if (op.shadow || op.busy != 0)
            return;
        if (op.seconds <= Seconds(0.0) && op.bytes <= Bytes(0.0))
            return;
        emitFinding(out, pass, op.label,
                    opRef(kind, i, op.label) + ": op carries " +
                        fmt9(op.seconds) + " s / " + fmt9(op.bytes) +
                        " bytes with no kBusy* tag; computeEnergy prices "
                        "busy lanes only, so this work is billed at idle "
                        "power");
    };
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i)
        check("layer", i, plan.layer_ops[i]);
    for (std::size_t i = 0; i < plan.tail_ops.size(); ++i)
        check("tail", i, plan.tail_ops[i]);
}

// --- PA005: attention traffic must be a subset of host traffic ------------

void
passAccountingConservation(const StepPlan &plan, const PassContext &,
                           const AnalyzerPassInfo &pass, PlanAnalysis &out)
{
    const auto check = [&](const char *kind, std::size_t i,
                           const StepOpView &op) {
        if (op.shadow)
            return;  // shadow traffic never reaches the counters
        double host_read = 0, host_write = 0;
        double attn_read = 0, attn_write = 0;
        for (const TrafficShare &s : op.traffic) {
            switch (s.field) {
                case TrafficField::HostRead: host_read += s.bytes; break;
                case TrafficField::HostWrite: host_write += s.bytes; break;
                case TrafficField::AttnHostRead:
                    attn_read += s.bytes;
                    break;
                case TrafficField::AttnHostWrite:
                    attn_write += s.bytes;
                    break;
                default: break;
            }
        }
        const auto exceeds = [](double attn, double host) {
            return attn > host + (1e-6 + 1e-9 * host);
        };
        if (exceeds(attn_read, host_read))
            emitFinding(out, pass, op.label,
                        opRef(kind, i, op.label) +
                            ": attention host-read share (" +
                            fmt9(attn_read) +
                            " bytes) exceeds the op's host-read share (" +
                            fmt9(host_read) +
                            " bytes); attention traffic must be a subset "
                            "of host traffic");
        if (exceeds(attn_write, host_write))
            emitFinding(out, pass, op.label,
                        opRef(kind, i, op.label) +
                            ": attention host-write share (" +
                            fmt9(attn_write) +
                            " bytes) exceeds the op's host-write share (" +
                            fmt9(host_write) +
                            " bytes); attention traffic must be a subset "
                            "of host traffic");
    };
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i)
        check("layer", i, plan.layer_ops[i]);
    for (std::size_t i = 0; i < plan.tail_ops.size(); ++i)
        check("tail", i, plan.tail_ops[i]);
}

// --- PA006: op/stage names must match the plan's phase --------------------

bool
containsWord(std::string_view haystack, std::string_view needle)
{
    return haystack.find(needle) != std::string_view::npos;
}

void
passPhaseMismatch(const StepPlan &plan, const PassContext &,
                  const AnalyzerPassInfo &pass, PlanAnalysis &out)
{
    const bool decode = plan.phase == PlanPhase::Decode;
    const std::string_view foreign = decode ? "prefill" : "decode";
    const char *own = planPhaseName(plan.phase);
    const auto check = [&](const char *kind, std::size_t i,
                           const StepOpView &op) {
        if (containsWord(op.label, foreign) ||
            containsWord(op.stage, foreign))
            emitFinding(out, pass, op.label,
                        opRef(kind, i, op.label) +
                            ": op named for the " + std::string(foreign) +
                            " phase inside a " + own + " plan");
    };
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i)
        check("layer", i, plan.layer_ops[i]);
    for (std::size_t i = 0; i < plan.tail_ops.size(); ++i)
        check("tail", i, plan.tail_ops[i]);
    for (const std::string &stage : plan.stage_order)
        if (containsWord(stage, foreign))
            emitFinding(out, pass, "",
                        "declared stage '" + stage + "' names the " +
                            std::string(foreign) + " phase inside a " +
                            own + " plan");
}

// --- PA007: prefill plans must not carry an enabled energy spec -----------

void
passPrefillEnergySpec(const StepPlan &plan, const PassContext &,
                      const AnalyzerPassInfo &pass, PlanAnalysis &out)
{
    if (plan.phase == PlanPhase::Prefill && plan.energy.enabled)
        emitFinding(out, pass, "",
                    "Prefill-phase plan enables the energy spec, which "
                    "only applyPlan consumes on Decode plans; prefill "
                    "energy folds through busy accounting "
                    "(applyPrefillPlan) and this spec is silently "
                    "ignored");
}

// --- registry -------------------------------------------------------------

using PassFn = void (*)(const StepPlan &, const PassContext &,
                        const AnalyzerPassInfo &, PlanAnalysis &);

struct Pass {
    AnalyzerPassInfo info;
    PassFn fn;
};

const std::vector<Pass> &
passRegistry()
{
    static const std::vector<Pass> registry = {
        {{"PA001", "dead-op", FindingSeverity::Error,
          "op contributes to no stage/traffic/busy field and nothing "
          "depends on it"},
         passDeadOp},
        {{"PA002", "redundant-edge", FindingSeverity::Warn,
          "dependency edge implied by the transitive closure of the "
          "op's other dependencies"},
         passRedundantEdge},
        {{"PA003", "defeated-prefetch", FindingSeverity::Warn,
          "prefetch/shadow op serialized behind timed work it should "
          "overlap"},
         passDefeatedPrefetch},
        {{"PA004", "energy-coverage", FindingSeverity::Warn,
          "timed or traffic-bearing op invisible to the enabled energy "
          "spec (no busy tag)"},
         passEnergyCoverage},
        {{"PA005", "accounting-conservation", FindingSeverity::Error,
          "attention traffic share exceeds the host traffic it must be "
          "a subset of"},
         passAccountingConservation},
        {{"PA006", "phase-mismatch", FindingSeverity::Error,
          "op or declared stage named for the opposite phase of its "
          "plan"},
         passPhaseMismatch},
        {{"PA007", "prefill-energy-spec", FindingSeverity::Error,
          "Prefill-phase plan carries an enabled energy spec nothing "
          "consumes"},
         passPrefillEnergySpec},
    };
    return registry;
}

// --- critical-path / slack annotator --------------------------------------

void
annotateSlack(const StepPlan &plan, const PlanEvaluation &ev,
              PlanAnalysis &out)
{
    const std::size_t n = plan.layer_ops.size();
    const double cp = ev.layer_critical_path;
    out.layer_critical_path = ev.layer_critical_path;
    out.op_slack.assign(n, Seconds(0.0));
    if (n == 0)
        return;

    // Backward pass: late_finish[i] = min over dependents c of
    // (late_finish[c] - seconds[c]); sinks finish at the critical path.
    std::vector<double> late(n, cp);
    for (std::size_t i = n; i-- > 0;) {
        const StepOpView op = plan.layer_ops[i];
        if (op.offline)
            continue;
        for (const std::uint32_t d : op.deps)
            late[d] = std::min(late[d],
                               late[i] - static_cast<double>(op.seconds));
    }
    for (std::size_t i = 0; i < n; ++i) {
        const StepOpView op = plan.layer_ops[i];
        // Offline ops never gate the critical path: full slack.
        out.op_slack[i] =
            op.offline ? Seconds(cp)
                       : Seconds(late[i] -
                                 static_cast<double>(ev.op_finish[i]));
    }

    // Bottleneck chain: walk back from the latest finisher through the
    // dependency with the maximal finish (ties toward the lowest id).
    if (cp <= 0.0)
        return;
    std::size_t cur = 0;
    for (std::size_t i = 1; i < n; ++i)
        if (ev.op_finish[i] > ev.op_finish[cur])
            cur = i;
    std::vector<std::size_t> chain{cur};
    while (!plan.layer_ops[cur].deps.empty()) {
        const StepOpView op = plan.layer_ops[cur];
        std::size_t best = op.deps[0];
        for (const std::uint32_t d : op.deps)
            if (ev.op_finish[d] > ev.op_finish[best])
                best = d;
        chain.push_back(best);
        cur = best;
    }
    out.bottleneck_chain.assign(chain.rbegin(), chain.rend());
}

}  // namespace

const std::vector<AnalyzerPassInfo> &
analyzerPasses()
{
    static const std::vector<AnalyzerPassInfo> infos = [] {
        std::vector<AnalyzerPassInfo> v;
        for (const Pass &p : passRegistry())
            v.push_back(p.info);
        return v;
    }();
    return infos;
}

PlanAnalysis
analyzePlan(const StepPlan &plan)
{
    PlanAnalysis out;
    if (!plan.feasible)
        return out;
    const PlanEvaluation ev = evaluatePlan(plan);
    const PassContext ctx = buildContext(plan, ev);
    for (const Pass &p : passRegistry())
        p.fn(plan, ctx, p.info, out);
    annotateSlack(plan, ev, out);
    return out;
}

std::vector<PlanWaiver>
parsePlanWaivers(const std::string &text, std::vector<std::string> *problems)
{
    std::vector<PlanWaiver> waivers;
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    const auto problem = [&](const std::string &msg) {
        if (problems != nullptr)
            problems->push_back("line " + std::to_string(lineno) + ": " +
                                msg);
    };
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        std::string id, op, extra;
        if (!(fields >> id))
            continue;  // blank or comment-only line
        if (id.size() != 5 || id[0] != 'P' || id[1] != 'A' ||
            !std::all_of(id.begin() + 2, id.end(), [](unsigned char c) {
                return std::isdigit(c) != 0;
            })) {
            problem("'" + id + "' is not a PAnnn diagnostic ID");
            continue;
        }
        if (!(fields >> op)) {
            problem("waiver for " + id + " names no op label (use '*' "
                                         "to match any op)");
            continue;
        }
        if (fields >> extra) {
            problem("trailing token '" + extra + "' after waiver");
            continue;
        }
        waivers.push_back(PlanWaiver{id, op});
    }
    return waivers;
}

std::string
formatPlanWaivers(const std::vector<PlanWaiver> &waivers)
{
    std::string out;
    for (const PlanWaiver &w : waivers)
        out += w.id + " " + w.op + "\n";
    return out;
}

void
applyPlanWaivers(PlanAnalysis &analysis,
                 const std::vector<PlanWaiver> &waivers)
{
    for (PlanFinding &f : analysis.findings)
        for (const PlanWaiver &w : waivers)
            if (w.id == f.id && (w.op == "*" || w.op == f.op)) {
                f.waived = true;
                break;
            }
}

bool
hasUnwaivedErrors(const PlanAnalysis &analysis)
{
    return std::any_of(analysis.findings.begin(), analysis.findings.end(),
                       [](const PlanFinding &f) {
                           return f.severity == FindingSeverity::Error &&
                                  !f.waived;
                       });
}

std::string
firstUnwaivedError(const PlanAnalysis &analysis)
{
    for (const PlanFinding &f : analysis.findings)
        if (f.severity == FindingSeverity::Error && !f.waived)
            return std::string(f.id) + ": " + f.message;
    return "";
}

std::string
serializeAnalysis(const StepPlan &plan, const PlanAnalysis &analysis)
{
    std::string out;
    out += std::string("phase = ") + planPhaseName(plan.phase) + "\n";
    if (!plan.feasible) {
        out += "infeasible = " + plan.note + "\n";
        return out;
    }
    out += "layer_critical_path = " +
           fmt9(analysis.layer_critical_path) + "\n";
    out += "bottleneck = ";
    if (analysis.bottleneck_chain.empty()) {
        out += "(none)";
    } else {
        for (std::size_t k = 0; k < analysis.bottleneck_chain.size(); ++k) {
            const std::size_t id = analysis.bottleneck_chain[k];
            if (k > 0)
                out += " -> ";
            out += "'" + std::string(plan.layer_ops[id].label) + "'";
        }
    }
    out += "\n";
    out += "ops = " + std::to_string(plan.layer_ops.size()) + "\n";
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i) {
        const StepOpView op = plan.layer_ops[i];
        out += "slack[" + std::to_string(i) + "] = '" +
               std::string(op.label) + "' ";
        if (op.offline) {
            out += "offline";
        } else {
            out += fmt9(analysis.op_slack[i]);
            if (analysis.op_slack[i] == Seconds(0.0))
                out += " (critical)";
        }
        out += "\n";
    }
    out += "findings = " + std::to_string(analysis.findings.size()) + "\n";
    for (std::size_t i = 0; i < analysis.findings.size(); ++i) {
        const PlanFinding &f = analysis.findings[i];
        out += "finding[" + std::to_string(i) + "] = " + f.id + " " +
               findingSeverityName(f.severity) +
               (f.waived ? " (waived): " : ": ") + f.message + "\n";
    }
    return out;
}

bool
analyzePlansEnabled()
{
    static const bool enabled = [] {
        const char *env = std::getenv("HILOS_ANALYZE_PLANS");
        return env != nullptr && env[0] != '\0' &&
               !(env[0] == '0' && env[1] == '\0');
    }();
    return enabled;
}

}  // namespace hilos

#include "runtime/plan_analyzer.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
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

void
appendFindingNumber(std::string &out, double v)
{
    if (std::isnan(v)) {
        out += "nan";
        return;
    }
    if (std::isinf(v)) {
        out += v > 0 ? "inf" : "-inf";
        return;
    }
    if (v == 0.0)
        v = 0.0;  // fold -0 into 0
    // to_chars' general format at precision 9 is printf's "%.9g" in the
    // C locale; 32 bytes hold its longest output, "-1.23456789e-308".
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, 9);
    out.append(buf, r.ptr);
}

namespace {

/** Registry entry for one analyzer pass (DESIGN.md catalogs them). */
struct AnalyzerPassInfo {
    const char *id;            ///< the "PAnnn" ID its findings carry
    FindingSeverity severity;  ///< severity of every finding it emits
};

/** Append the decimal digits of `v`. */
void
appendCount(std::string &out, std::uint64_t v)
{
    char buf[20];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, r.ptr);
}

/** "layer op #3 'kv_fetch'" — the prefix every diagnostic starts with
 *  (same shape as StepPlan::validate()). */
struct OpRef {
    const char *kind;
    std::size_t id;
    std::string_view label;
};

/** The pieces a diagnostic is written from: text, numbers, op refs. */
void
appendPart(std::string &out, std::string_view text)
{
    out += text;
}

void
appendPart(std::string &out, double v)
{
    appendFindingNumber(out, v);
}

void
appendPart(std::string &out, const OpRef &ref)
{
    out += ref.kind;
    out += " op #";
    appendCount(out, ref.id);
    if (!ref.label.empty()) {
        out += " '";
        out += ref.label;
        out += '\'';
    }
}

/**
 * The findings of one analysis in emission order, and the buffer each
 * message is rendered into before it is copied out at its exact size.
 */
struct Findings {
    std::vector<PlanFinding> findings;
    std::string message;
};

/**
 * The single construction point for findings: stamps the pass's
 * stable ID and severity so no diagnostic can ship without one
 * (scripts/lint_hilos.py check 7 pins this). The message is `parts`
 * appended in order.
 */
template <typename... Parts>
void
emitFinding(Findings &out, const AnalyzerPassInfo &pass,
            std::string_view op_label, const Parts &...parts)
{
    out.message.clear();
    (appendPart(out.message, parts), ...);
    PlanFinding f;
    f.id = pass.id;
    f.severity = pass.severity;
    f.op = op_label;
    f.message = out.message;
    out.findings.push_back(std::move(f));
}

/**
 * What an analysis works in besides its result, kept per thread so a
 * warm analysis allocates only what it returns.
 */
struct AnalyzerScratch {
    PlanEvaluation ev;  ///< analyzePlan(plan)'s own evaluation
    std::vector<char> has_dependents;
    std::vector<std::uint64_t> reach;
    std::vector<double> late;  ///< annotateSlack's latest finishes
    Findings findings;
};

AnalyzerScratch &
analyzerScratch()
{
    thread_local AnalyzerScratch scratch;
    return scratch;
}

/** Derived DAG facts shared by the passes, over the scratch rows. */
struct PassContext {
    const PlanEvaluation &ev;
    /** Layer op i is a dep of some later layer op. */
    const char *has_dependents;
    /** 64-bit words per reach row: ceil(layer ops / 64). */
    std::size_t words;
    /** Row i (words `words * i` on) has bit j set when layer op j is
     *  transitively reachable from i via dependency edges (j < i
     *  always, deps are topologically ordered). */
    const std::uint64_t *reach;

    bool reaches(std::size_t i, std::size_t j) const
    {
        return (reach[i * words + j / 64] >> (j % 64)) & 1u;
    }
};

PassContext
buildContext(const StepPlan &plan, const PlanEvaluation &ev,
             AnalyzerScratch &s)
{
    const std::size_t n = plan.layer_ops.size();
    const std::size_t words = (n + 63) / 64;
    s.has_dependents.assign(n, 0);
    s.reach.assign(n * words, 0);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t *row = s.reach.data() + i * words;
        for (const std::uint32_t d : plan.layer_ops[i].deps) {
            s.has_dependents[d] = 1;
            row[d / 64] |= std::uint64_t{1} << (d % 64);
            const std::uint64_t *dep_row = s.reach.data() + d * words;
            for (std::size_t w = 0; w < words; ++w)
                row[w] |= dep_row[w];
        }
    }
    return PassContext{ev, s.has_dependents.data(), words, s.reach.data()};
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
           const AnalyzerPassInfo &pass, Findings &out)
{
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i) {
        const StepOpView op = plan.layer_ops[i];
        const OpRef ref{"layer", i, op.label};
        if (op.shadow) {
            if (op.seconds <= Seconds(0.0) && !ctx.has_dependents[i])
                emitFinding(out, pass, op.label, ref,
                            ": shadow op has zero duration and no "
                            "dependents — shadow ops exist only to be "
                            "timed");
        } else if (op.offline) {
            if (!opAccounted(op))
                emitFinding(out, pass, op.label, ref,
                            ": offline op contributes to no stage, "
                            "traffic, or busy field — offline ops exist "
                            "only to be accounted");
        } else {
            if (!opAccounted(op) && !ctx.has_dependents[i])
                emitFinding(out, pass, op.label, ref,
                            ": op contributes to no stage, traffic, or "
                            "busy field and nothing depends on it");
        }
    }
    for (std::size_t i = 0; i < plan.tail_ops.size(); ++i) {
        const StepOpView op = plan.tail_ops[i];
        if (!opAccounted(op) && op.seconds <= Seconds(0.0))
            emitFinding(out, pass, op.label, OpRef{"tail", i, op.label},
                        ": tail op contributes no time, stage, traffic, "
                        "or busy");
    }
}

// --- PA002: redundant dependency edges ------------------------------------

void
passRedundantEdge(const StepPlan &plan, const PassContext &ctx,
                  const AnalyzerPassInfo &pass, Findings &out)
{
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i) {
        const StepOpView op = plan.layer_ops[i];
        if (op.deps.size() < 2)
            continue;
        for (const std::uint32_t d : op.deps) {
            for (const std::uint32_t other : op.deps) {
                if (other == d || !ctx.reaches(other, d))
                    continue;
                emitFinding(out, pass, op.label, OpRef{"layer", i, op.label},
                            ": dependency on ",
                            OpRef{"layer", d, plan.layer_ops[d].label},
                            " is already implied by the dependency on ",
                            OpRef{"layer", other,
                                  plan.layer_ops[other].label});
                break;
            }
        }
    }
}

// --- PA003: defeated prefetch/shadow overlap ------------------------------

void
passDefeatedPrefetch(const StepPlan &plan, const PassContext &ctx,
                     const AnalyzerPassInfo &pass, Findings &out)
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
            emitFinding(out, pass, op.label, OpRef{"layer", i, op.label},
                        ": ", role, " op waits on timed ",
                        OpRef{"layer", j, anchor.label}, ", so ", why);
            break;
        }
    }
}

// --- PA004: work invisible to the energy spec -----------------------------

void
passEnergyCoverage(const StepPlan &plan, const PassContext &,
                   const AnalyzerPassInfo &pass, Findings &out)
{
    if (!plan.energy.enabled)
        return;
    const auto check = [&](const char *kind, std::size_t i,
                           const StepOpView &op) {
        if (op.shadow || op.busy != 0)
            return;
        if (op.seconds <= Seconds(0.0) && op.bytes <= Bytes(0.0))
            return;
        emitFinding(out, pass, op.label, OpRef{kind, i, op.label},
                    ": op carries ", op.seconds, " s / ", op.bytes,
                    " bytes with no kBusy* tag; computeEnergy prices busy "
                    "lanes only, so this work is billed at idle power");
    };
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i)
        check("layer", i, plan.layer_ops[i]);
    for (std::size_t i = 0; i < plan.tail_ops.size(); ++i)
        check("tail", i, plan.tail_ops[i]);
}

// --- PA005: attention traffic must be a subset of host traffic ------------

void
passAccountingConservation(const StepPlan &plan, const PassContext &,
                           const AnalyzerPassInfo &pass, Findings &out)
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
            emitFinding(out, pass, op.label, OpRef{kind, i, op.label},
                        ": attention host-read share (", attn_read,
                        " bytes) exceeds the op's host-read share (",
                        host_read,
                        " bytes); attention traffic must be a subset of "
                        "host traffic");
        if (exceeds(attn_write, host_write))
            emitFinding(out, pass, op.label, OpRef{kind, i, op.label},
                        ": attention host-write share (", attn_write,
                        " bytes) exceeds the op's host-write share (",
                        host_write,
                        " bytes); attention traffic must be a subset of "
                        "host traffic");
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
                  const AnalyzerPassInfo &pass, Findings &out)
{
    const bool decode = plan.phase == PlanPhase::Decode;
    const std::string_view foreign = decode ? "prefill" : "decode";
    const char *own = planPhaseName(plan.phase);
    const auto check = [&](const char *kind, std::size_t i,
                           const StepOpView &op) {
        if (containsWord(op.label, foreign) ||
            containsWord(op.stage, foreign))
            emitFinding(out, pass, op.label, OpRef{kind, i, op.label},
                        ": op named for the ", foreign,
                        " phase inside a ", own, " plan");
    };
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i)
        check("layer", i, plan.layer_ops[i]);
    for (std::size_t i = 0; i < plan.tail_ops.size(); ++i)
        check("tail", i, plan.tail_ops[i]);
    for (const std::string &stage : plan.stage_order)
        if (containsWord(stage, foreign))
            emitFinding(out, pass, "", "declared stage '", stage,
                        "' names the ", foreign, " phase inside a ", own,
                        " plan");
}

// --- PA007: prefill plans must not carry an enabled energy spec -----------

void
passPrefillEnergySpec(const StepPlan &plan, const PassContext &,
                      const AnalyzerPassInfo &pass, Findings &out)
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
                        const AnalyzerPassInfo &, Findings &);

struct Pass {
    AnalyzerPassInfo info;
    PassFn fn;
};

constexpr Pass kPasses[] = {
    {{"PA001", FindingSeverity::Error}, passDeadOp},
    {{"PA002", FindingSeverity::Warn}, passRedundantEdge},
    {{"PA003", FindingSeverity::Warn}, passDefeatedPrefetch},
    {{"PA004", FindingSeverity::Warn}, passEnergyCoverage},
    {{"PA005", FindingSeverity::Error}, passAccountingConservation},
    {{"PA006", FindingSeverity::Error}, passPhaseMismatch},
    {{"PA007", FindingSeverity::Error}, passPrefillEnergySpec},
};

// --- critical-path / slack annotator --------------------------------------

/** The dependency of layer op `i` that finishes last (ties toward the
 *  first in dependency order); `i` must have one. */
std::size_t
latestDep(const StepPlan &plan, const PlanEvaluation &ev, std::size_t i)
{
    const StepOpView op = plan.layer_ops[i];
    std::size_t best = op.deps[0];
    for (const std::uint32_t d : op.deps)
        if (ev.op_finish[d] > ev.op_finish[best])
            best = d;
    return best;
}

void
annotateSlack(const StepPlan &plan, const PlanEvaluation &ev,
              std::vector<double> &late, PlanAnalysis &out)
{
    const std::size_t n = plan.layer_ops.size();
    const double cp = ev.layer_critical_path;
    out.layer_critical_path = ev.layer_critical_path;
    out.op_slack.assign(n, Seconds(0.0));
    if (n == 0)
        return;

    // Backward pass: late_finish[i] = min over dependents c of
    // (late_finish[c] - seconds[c]); sinks finish at the critical path.
    late.assign(n, cp);
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
    // dependency with the maximal finish (ties toward the lowest id),
    // once to size the chain and once to fill it sink first.
    if (cp <= 0.0)
        return;
    std::size_t sink = 0;
    for (std::size_t i = 1; i < n; ++i)
        if (ev.op_finish[i] > ev.op_finish[sink])
            sink = i;
    std::size_t len = 1;
    for (std::size_t cur = sink; !plan.layer_ops[cur].deps.empty(); ++len)
        cur = latestDep(plan, ev, cur);
    out.bottleneck_chain.resize(len);
    std::size_t cur = sink;
    for (std::size_t k = len; k-- > 0;) {
        out.bottleneck_chain[k] = cur;
        if (k > 0)
            cur = latestDep(plan, ev, cur);
    }
}

}  // namespace

PlanAnalysis
analyzePlan(const StepPlan &plan, const PlanEvaluation &ev)
{
    PlanAnalysis out;
    if (!plan.feasible)
        return out;
    HILOS_ASSERT(ev.op_finish.size() == plan.layer_ops.size(),
                 "analyzePlan: the evaluation is not of this plan");
    AnalyzerScratch &s = analyzerScratch();
    s.findings.findings.clear();
    const PassContext ctx = buildContext(plan, ev, s);
    for (const Pass &p : kPasses)
        p.fn(plan, ctx, p.info, s.findings);
    out.findings.assign(std::make_move_iterator(s.findings.findings.begin()),
                        std::make_move_iterator(s.findings.findings.end()));
    annotateSlack(plan, ev, s.late, out);
    return out;
}

PlanAnalysis
analyzePlan(const StepPlan &plan)
{
    if (!plan.feasible)
        return PlanAnalysis{};
    PlanEvaluation &ev = analyzerScratch().ev;
    evaluatePlan(plan, ev);
    return analyzePlan(plan, ev);
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
    out += "phase = ";
    out += planPhaseName(plan.phase);
    out += "\n";
    if (!plan.feasible) {
        out += "infeasible = " + plan.note + "\n";
        return out;
    }
    out += "layer_critical_path = ";
    appendFindingNumber(out, analysis.layer_critical_path);
    out += "\nbottleneck = ";
    if (analysis.bottleneck_chain.empty()) {
        out += "(none)";
    } else {
        for (std::size_t k = 0; k < analysis.bottleneck_chain.size(); ++k) {
            if (k > 0)
                out += " -> ";
            out += '\'';
            out += plan.layer_ops[analysis.bottleneck_chain[k]].label;
            out += '\'';
        }
    }
    out += "\nops = ";
    appendCount(out, plan.layer_ops.size());
    out += "\n";
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i) {
        const StepOpView op = plan.layer_ops[i];
        out += "slack[";
        appendCount(out, i);
        out += "] = '";
        out += op.label;
        out += "' ";
        if (op.offline) {
            out += "offline";
        } else {
            appendFindingNumber(out, analysis.op_slack[i]);
            if (analysis.op_slack[i] == Seconds(0.0))
                out += " (critical)";
        }
        out += "\n";
    }
    out += "findings = ";
    appendCount(out, analysis.findings.size());
    out += "\n";
    for (std::size_t i = 0; i < analysis.findings.size(); ++i) {
        const PlanFinding &f = analysis.findings[i];
        out += "finding[";
        appendCount(out, i);
        out += "] = ";
        out += f.id;
        out += ' ';
        out += findingSeverityName(f.severity);
        out += f.waived ? " (waived): " : ": ";
        out += f.message;
        out += "\n";
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

#include "support/oracles.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "accel/attention_kernel.h"
#include "core/hilos.h"
#include "llm/attention_ref.h"
#include "llm/tensor.h"
#include "runtime/batcher.h"
#include "runtime/flexgen.h"
#include "runtime/serving.h"
#include "runtime/event_sim.h"
#include "runtime/fleet_engine.h"
#include "runtime/hilos_engine.h"
#include "runtime/plan_analyzer.h"
#include "runtime/step_plan.h"
#include "runtime/system_config.h"
#include "support/serialize.h"
#include "support/tolerances.h"

namespace hilos {
namespace test {

namespace {

/** Relative slack for checks that should hold exactly up to FP noise. */
constexpr double kRelEps = 1e-9;

bool
finiteNonNegative(double v)
{
    return std::isfinite(v) && v >= 0.0;
}

std::string
fmt(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

}  // namespace

std::string
OracleOutcome::reproLine(const std::string &oracle) const
{
    std::ostringstream os;
    os << "seed=" << seed << " cfg={" << cfg << "} | replay: hilos_fuzz"
       << " --oracle " << oracle << " --replay " << seed;
    return os.str();
}

OracleOutcome
runAttentionOracle(std::uint64_t seed, Perturbation perturb)
{
    ConfigFuzzer fuzzer(seed);
    FuzzAttentionCase c = fuzzer.attentionCase();
    if (perturb == Perturbation::DropPaddingMask) {
        // Guarantee a wide masked tail so the dropped mask is visible.
        c.s = std::max<std::size_t>(c.s, 96);
        c.valid_len = c.s - 48;
        c.window_start = std::min(c.window_start, c.valid_len / 2);
    }

    OracleOutcome out;
    out.seed = seed;
    out.cfg = c.describe();

    // Input data, derived from the same seed via an independent stream.
    Rng data_rng(fuzzSeedForIteration(seed, 0xda7a));
    const Matrix q = Matrix::random(c.g, c.d, data_rng, 0.5f);
    const Matrix k = Matrix::random(c.s + c.n_buf, c.d, data_rng, 0.5f);
    const Matrix v = Matrix::random(c.s + c.n_buf, c.d, data_rng, 0.5f);
    const std::vector<Half> qh = toHalf(q), kh = toHalf(k), vh = toHalf(v);
    const float scale = 1.0f / std::sqrt(static_cast<float>(c.d));

    // The FP16-quantised inputs widened back to FP32: the fair
    // reference sees exactly what the kernel sees.
    const Matrix qf = fromHalf(qh, c.g, c.d);
    const Matrix kf = fromHalf(kh, c.s + c.n_buf, c.d);
    const Matrix vf = fromHalf(vh, c.s + c.n_buf, c.d);

    // Host side of the delayed-writeback split: partial QK^T scores for
    // the buffered tail, from the widened FP16 inputs.
    std::vector<float> partial(c.g * c.n_buf, 0.0f);
    for (std::size_t gi = 0; gi < c.g; gi++)
        for (std::size_t i = 0; i < c.n_buf; i++) {
            float acc = 0;
            for (std::size_t col = 0; col < c.d; col++)
                acc += qf.at(gi, col) * kf.at(c.s + i, col);
            partial[gi * c.n_buf + i] = acc * scale;
        }

    const std::vector<Half> k_stored(kh.begin(), kh.begin() + c.s * c.d);
    const std::vector<Half> v_stored(vh.begin(), vh.begin() + c.s * c.d);
    const std::vector<Half> v_buf(vh.begin() + c.s * c.d, vh.end());

    AttentionRequest req;
    req.queries = viewOf(qh, c.g, c.d);
    req.keys = c.s > 0 ? viewOf(k_stored, c.s, c.d)
                       : HalfMatrixView{nullptr, 0, c.d};
    req.values = c.s > 0 ? viewOf(v_stored, c.s, c.d)
                         : HalfMatrixView{nullptr, 0, c.d};
    req.valid_len =
        perturb == Perturbation::DropPaddingMask ? c.s : c.valid_len;
    req.window_start = c.window_start;
    req.sink_tokens = c.sink_tokens;
    req.scale = scale;
    req.partial_scores = partial;
    req.buffered_values = c.n_buf > 0 ? viewOf(v_buf, c.n_buf, c.d)
                                      : HalfMatrixView{nullptr, 0, c.d};

    AttentionKernelConfig kcfg;
    kcfg.d_group = c.g;
    kcfg.block_tokens = c.block_tokens;
    const AttentionKernel kernel(kcfg);
    const AttentionResult res = kernel.run(req);

    // Independent reference: gather exactly the attended rows (the
    // published mask semantics) and run textbook FP32 attention.
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < c.s; i++) {
        const bool attended =
            (i >= c.window_start || i < c.sink_tokens) && i < c.valid_len;
        if (attended)
            rows.push_back(i);
    }
    for (std::size_t i = 0; i < c.n_buf; i++)
        rows.push_back(c.s + i);
    Matrix kr(rows.size(), c.d), vr(rows.size(), c.d);
    for (std::size_t i = 0; i < rows.size(); i++)
        for (std::size_t col = 0; col < c.d; col++) {
            kr.at(i, col) = kf.at(rows[i], col);
            vr.at(i, col) = vf.at(rows[i], col);
        }
    const Matrix expected = naiveAttention(qf, kr, vr, scale);

    if (res.outputs.size() != c.g * c.d) {
        out.ok = false;
        out.detail = "output size " + std::to_string(res.outputs.size()) +
                     " != " + std::to_string(c.g * c.d);
        return out;
    }
    for (std::size_t i = 0; i < res.outputs.size(); i++) {
        const float got = res.outputs[i];
        const float want = expected.data()[i];
        if (!std::isfinite(got)) {
            out.ok = false;
            out.detail = "non-finite output[" + std::to_string(i) + "]";
            return out;
        }
        if (std::fabs(got - want) > kFp16StorageTol) {
            out.ok = false;
            out.detail = "output[" + std::to_string(i) + "] kernel=" +
                         fmt(got) + " ref=" + fmt(want) +
                         " |diff|=" + fmt(std::fabs(got - want)) +
                         " > tol=" + fmt(kFp16StorageTol);
            return out;
        }
    }
    return out;
}

namespace {

/**
 * Band check of a replayed decode step against the analytic one, after
 * every named utilisation of the replay is checked to lie in [0, 1].
 */
AgreementCheck
checkAgreement(const RunResult &analytic, Seconds sim_step,
               const std::vector<std::pair<std::string, double>> &utils,
               double lo, double hi)
{
    AgreementCheck chk;
    if (!analytic.feasible) {
        chk.detail = "analytic result infeasible: " + analytic.note;
        chk.ok = false;
        return chk;
    }
    if (!(analytic.decode_step_time > 0.0) ||
        !std::isfinite(analytic.decode_step_time)) {
        chk.ok = false;
        chk.detail = "analytic decode step not positive/finite";
        return chk;
    }
    if (!(sim_step > 0.0) || !std::isfinite(sim_step)) {
        chk.ok = false;
        chk.detail = "sim decode step not positive/finite";
        return chk;
    }
    for (const auto &[name, u] : utils) {
        if (!(u >= 0.0) || u > 1.0 + kRelEps) {
            chk.ok = false;
            chk.detail =
                name + " utilization " + fmt(u) + " outside [0, 1]";
            return chk;
        }
    }
    chk.ratio = sim_step / analytic.decode_step_time;
    if (chk.ratio < lo || chk.ratio > hi) {
        chk.ok = false;
        chk.detail = "sim/analytic ratio " + fmt(chk.ratio) +
                     " outside agreement band [" + fmt(lo) + ", " +
                     fmt(hi) + "]";
    }
    return chk;
}

}  // namespace

AgreementCheck
checkEngineAgreement(const RunResult &analytic, const EventSimResult &sim,
                     double lo, double hi)
{
    return checkAgreement(analytic, sim.decode_step_time,
                          {{"uplink", sim.uplink_utilization},
                           {"gds", sim.gds_utilization},
                           {"internal", sim.internal_utilization},
                           {"gpu", sim.gpu_utilization}},
                          lo, hi);
}

AgreementCheck
checkEngineAgreement(const RunResult &analytic, const PlanSimResult &sim,
                     double lo, double hi)
{
    std::vector<std::pair<std::string, double>> utils =
        sim.resource_utilization;
    utils.insert(utils.end(), sim.unit_utilization.begin(),
                 sim.unit_utilization.end());
    return checkAgreement(analytic, sim.decode_step_time, utils, lo, hi);
}

namespace {

/** Structural invariants every analytic RunResult must satisfy. */
std::string
checkRunResultInvariants(const FuzzEngineCase &c, const RunResult &r)
{
    const struct {
        const char *name;
        double v;
    } nonneg[] = {
        {"prefill_time", r.prefill_time},
        {"decode_step_time", r.decode_step_time},
        {"total_time", r.total_time},
        {"traffic.host_read_bytes", r.traffic.host_read_bytes},
        {"traffic.host_write_bytes", r.traffic.host_write_bytes},
        {"traffic.attn_host_read_bytes", r.traffic.attn_host_read_bytes},
        {"traffic.attn_host_write_bytes", r.traffic.attn_host_write_bytes},
        {"traffic.internal_bytes", r.traffic.internal_bytes},
        {"traffic.storage_write_bytes", r.traffic.storage_write_bytes},
        {"busy.gpu", r.busy.gpu},
        {"busy.cpu", r.busy.cpu},
        {"busy.dram", r.busy.dram},
        {"busy.storage", r.busy.storage},
        {"busy.fpga", r.busy.fpga},
        {"energy.gpu", r.energy.gpu},
        {"energy.cpu", r.energy.cpu},
        {"energy.dram", r.energy.dram},
        {"energy.storage", r.energy.storage},
        {"faults.retry_time", r.faults.retry_time},
        {"faults.rebuild_time", r.faults.rebuild_time},
    };
    for (const auto &f : nonneg)
        if (!finiteNonNegative(f.v))
            return std::string(f.name) + " = " + fmt(f.v) +
                   " not finite/non-negative";

    // Bytes conserved: the attention subsets can never exceed the
    // host-interconnect totals they are carved from.
    const double slack = 1.0 + kRelEps;
    if (r.traffic.attn_host_read_bytes >
        r.traffic.host_read_bytes * slack + 1.0)
        return "attn_host_read_bytes exceeds host_read_bytes";
    if (r.traffic.attn_host_write_bytes >
        r.traffic.host_write_bytes * slack + 1.0)
        return "attn_host_write_bytes exceeds host_write_bytes";

    if (r.faults.availability < -kRelEps ||
        r.faults.availability > 1.0 + kRelEps)
        return "availability " + fmt(r.faults.availability) +
               " outside [0, 1]";
    if (r.faults.slowdown < 1.0 - 1e-6)
        return "slowdown " + fmt(r.faults.slowdown) + " below 1";
    if (r.faults.devices_failed > c.opts.num_devices)
        return "devices_failed exceeds fleet size";

    if (!c.faulted()) {
        if (r.faults.any())
            return "fault summary non-zero for a fault-free run";
        // Fault-free runs compose exactly: prefill + n * decode step.
        const double expect =
            r.prefill_time +
            static_cast<double>(c.run.output_len) * r.decode_step_time;
        if (std::fabs(r.total_time - expect) >
            kRelEps * std::max(1.0, expect) + 1e-12)
            return "total_time " + fmt(r.total_time) +
                   " != prefill + output_len * decode_step (" +
                   fmt(expect) + ")";
    }
    return {};
}

/** Structural invariants for the event-sim side. */
std::string
checkSimInvariants(const FuzzEngineCase &c, const EventSimResult &sim)
{
    if (!sim.completed)
        return "sim did not complete: " + sim.note;
    if (sim.layer_times.size() != c.run.model.layers)
        return "layer_times size " +
               std::to_string(sim.layer_times.size()) + " != layers " +
               std::to_string(c.run.model.layers);
    for (Seconds t : sim.layer_times) {
        if (!finiteNonNegative(t))
            return "non-finite layer time";
        if (t > sim.decode_step_time * (1.0 + kRelEps))
            return "a layer interval exceeds the whole decode step";
    }
    // mean_layer_time is defined as decode_step_time / layers; pin the
    // identity so the two fields can never drift apart.
    const double expect_mean =
        sim.decode_step_time / static_cast<double>(sim.layer_times.size());
    if (std::fabs(sim.mean_layer_time - expect_mean) >
        kRelEps * std::max(1.0, expect_mean))
        return "mean_layer_time != decode_step_time / layers";
    if (!finiteNonNegative(sim.retry_time))
        return "sim retry_time not finite/non-negative";
    return {};
}

}  // namespace

OracleOutcome
runEngineOracle(std::uint64_t seed, Perturbation perturb)
{
    ConfigFuzzer fuzzer(seed);
    const bool allow_faults = perturb == Perturbation::None;
    FuzzEngineCase c = fuzzer.engineCase(allow_faults);

    OracleOutcome out;
    out.seed = seed;
    out.cfg = c.describe();

    const SystemConfig sys = defaultSystem();
    const HilosEngine engine(sys, c.opts);

    RunResult r = engine.run(c.run);
    if (!r.feasible || r.effective_batch == 0) {
        out.skipped = true;  // capacity-infeasible corner; nothing to diff
        return out;
    }
    if (r.effective_batch != c.run.batch) {
        // The engine shrank the batch to fit; re-run both models on the
        // batch that actually executes so they see the same workload.
        c.run.batch = r.effective_batch;
        r = engine.run(c.run);
    }

    std::string violation = checkRunResultInvariants(c, r);
    if (!violation.empty()) {
        out.ok = false;
        out.detail = "analytic invariant: " + violation;
        return out;
    }

    const HilosEventSimulator sim(sys, c.opts);
    const EventSimResult e = sim.simulateDecodeStep(c.run);
    violation = checkSimInvariants(c, e);
    if (!violation.empty()) {
        out.ok = false;
        out.detail = "event-sim invariant: " + violation;
        return out;
    }

    // The production replay, priced under the conditions the slice
    // simulator sampled (t=0), against the independent slice schedule.
    const StepPlan plan = engine.decodeStepPlanAt(c.run, 0.0);
    if (!plan.feasible) {
        out.ok = false;
        out.detail = "replay: no decode plan where the slice simulator "
                     "completed: " +
                     plan.note;
        return out;
    }
    const double replay_ratio =
        simulatePlan(plan).decode_step_time / e.decode_step_time;
    if (!(replay_ratio >= kReplayAgreementLo &&
          replay_ratio <= kReplayAgreementHi)) {
        out.ok = false;
        out.detail = "replay agreement: replay/slice ratio " +
                     fmt(replay_ratio) + " outside [" +
                     fmt(kReplayAgreementLo) + ", " +
                     fmt(kReplayAgreementHi) + "]";
        return out;
    }

    if (!c.faulted()) {
        RunResult compared = r;
        if (perturb == Perturbation::SkewAnalytic)
            compared.decode_step_time *= 3.0;
        const AgreementCheck chk = checkEngineAgreement(compared, e);
        if (std::getenv("HILOS_DEBUG_RATIO") != nullptr)
            std::fprintf(stderr, "RATIO %.9g window=%llu devices=%u\n",
                         chk.ratio,
                         static_cast<unsigned long long>(
                             c.opts.attention_window),
                         c.opts.num_devices);
        if (!chk.ok) {
            out.ok = false;
            out.detail = "agreement: " + chk.detail;
            return out;
        }

        // Monotonicity: halving the context or the batch can never make
        // a decode step slower (KV reads shrink, everything else is
        // unchanged or shrinks).
        if (c.run.context_len >= 4096) {
            RunConfig half = c.run;
            half.context_len = c.run.context_len / 2;
            const RunResult rh = engine.run(half);
            if (rh.feasible && rh.effective_batch == r.effective_batch &&
                rh.decode_step_time >
                    r.decode_step_time * (1.0 + kRelEps)) {
                out.ok = false;
                out.detail =
                    "monotonicity: decode step at context " +
                    std::to_string(half.context_len) + " (" +
                    fmt(rh.decode_step_time) + "s) exceeds context " +
                    std::to_string(c.run.context_len) + " (" +
                    fmt(r.decode_step_time) + "s)";
                return out;
            }
        }
        if (c.run.batch >= 2) {
            RunConfig half = c.run;
            half.batch = c.run.batch / 2;
            const RunResult rh = engine.run(half);
            if (rh.feasible && rh.effective_batch == half.batch &&
                rh.decode_step_time >
                    r.decode_step_time * (1.0 + kRelEps)) {
                out.ok = false;
                out.detail = "monotonicity: decode step at batch " +
                             std::to_string(half.batch) + " (" +
                             fmt(rh.decode_step_time) +
                             "s) exceeds batch " +
                             std::to_string(c.run.batch) + " (" +
                             fmt(r.decode_step_time) + "s)";
                return out;
            }
        }
    }
    return out;
}

OracleOutcome
runFlexGenPlanOracle(std::uint64_t seed, Perturbation perturb)
{
    ConfigFuzzer fuzzer(seed);
    FuzzEngineCase c = fuzzer.engineCase(/*allow_faults=*/false);

    OracleOutcome out;
    out.seed = seed;
    out.cfg = c.describe();

    const SystemConfig sys = defaultSystem();
    // Tier from the seed: every third case per KV placement.
    const FlexTier tier = static_cast<FlexTier>(seed % 3);
    const FlexGenEngine engine(sys, tier);

    RunResult r = engine.run(c.run);
    if (!r.feasible || r.effective_batch == 0) {
        out.skipped = true;  // KV does not fit this tier; nothing to diff
        return out;
    }
    if (r.effective_batch != c.run.batch) {
        // Re-emit the plan for the batch that actually executes.
        c.run.batch = r.effective_batch;
        r = engine.run(c.run);
    }

    const StepPlan plan = engine.decodeStepPlan(c.run);
    // Static well-formedness gate before either backend touches the
    // plan: a malformed plan would fail both sides identically, which a
    // differential check cannot see.
    const std::vector<std::string> problems = plan.validate();
    if (!problems.empty()) {
        out.ok = false;
        out.detail = "plan validation: " + problems.front();
        return out;
    }
    // Semantic gate: zero error-severity analyzer findings on every
    // fuzzed plan (warn-severity findings are modelling choices the
    // waiver file pins; errors are builder bugs).
    const PlanEvaluation ev = evaluatePlan(plan);
    const PlanAnalysis analysis = analyzePlan(plan, ev);
    if (hasUnwaivedErrors(analysis)) {
        out.ok = false;
        out.detail = "plan analysis: " + firstUnwaivedError(analysis);
        return out;
    }
    const PlanSimResult ps = simulatePlan(plan);

    // Structural per-op invariant: the replay adds only queueing, so a
    // replayed op can never finish before its analytic finish.
    for (std::size_t i = 0; i < plan.layer_ops.size(); ++i) {
        const StepOpView op = plan.layer_ops[i];
        if (op.shadow || op.offline)
            continue;
        if (ps.first_layer_finish[i] <
            ev.op_finish[i] * (1.0 - kRelEps) - 1e-15) {
            out.ok = false;
            out.detail = "plan structure: op '" + std::string(op.label) +
                         "' replays to " + fmt(ps.first_layer_finish[i]) +
                         "s, before its analytic finish " +
                         fmt(ev.op_finish[i]) + "s";
            return out;
        }
    }
    if (ps.layer_times.size() != plan.layers) {
        out.ok = false;
        out.detail = "plan replay: " +
                     std::to_string(ps.layer_times.size()) +
                     " layer times for " + std::to_string(plan.layers) +
                     " layers";
        return out;
    }

    RunResult compared = r;
    if (perturb == Perturbation::SkewAnalytic)
        compared.decode_step_time *= 3.0;
    const AgreementCheck chk = checkEngineAgreement(compared, ps);
    if (!chk.ok) {
        out.ok = false;
        out.detail = "agreement: " + chk.detail;
        return out;
    }

    // Prefill phase: the same validate -> evaluate -> replay pipeline
    // over the engine's Prefill plans, at a chunk count derived from
    // the seed so monolithic and chunked shapes both get coverage.
    const std::uint64_t chunks = 1ull << (seed % 3);  // 1, 2, 4
    Seconds chunk_sum = 0.0;
    for (std::uint64_t k = 0; k < chunks; ++k) {
        const StepPlan pre = engine.prefillStepPlan(c.run, k, chunks);
        if (!pre.feasible) {
            out.ok = false;
            out.detail = "prefill plan infeasible where the decode run "
                         "was feasible: " +
                         pre.note;
            return out;
        }
        if (pre.phase != PlanPhase::Prefill ||
            pre.chunk_index != k || pre.chunk_count != chunks) {
            out.ok = false;
            out.detail = "prefill plan phase/chunk tags wrong for chunk " +
                         std::to_string(k) + " of " +
                         std::to_string(chunks);
            return out;
        }
        const std::vector<std::string> pre_problems = pre.validate();
        if (!pre_problems.empty()) {
            out.ok = false;
            out.detail = "prefill plan validation: " + pre_problems.front();
            return out;
        }
        const PlanEvaluation pe = evaluatePlan(pre);
        const PlanAnalysis pre_analysis = analyzePlan(pre, pe);
        if (hasUnwaivedErrors(pre_analysis)) {
            out.ok = false;
            out.detail =
                "prefill plan analysis: " + firstUnwaivedError(pre_analysis);
            return out;
        }
        const PlanSimResult pps = simulatePlan(pre);
        for (std::size_t i = 0; i < pre.layer_ops.size(); ++i) {
            const StepOpView op = pre.layer_ops[i];
            if (op.shadow || op.offline)
                continue;
            if (pps.first_layer_finish[i] <
                pe.op_finish[i] * (1.0 - kRelEps) - 1e-15) {
                out.ok = false;
                out.detail = "prefill plan structure: op '" +
                             std::string(op.label) + "' replays to " +
                             fmt(pps.first_layer_finish[i]) +
                             "s, before its analytic finish " +
                             fmt(pe.op_finish[i]) + "s";
                return out;
            }
        }
        chunk_sum += pe.decode_step_time;
    }
    // One chunk must reproduce run()'s prefill time bitwise; chunking
    // re-pays per-pass costs (weight staging), so the sum only grows.
    if (chunks == 1 && chunk_sum != r.prefill_time) {
        out.ok = false;
        out.detail = "prefill agreement: monolithic plan evaluates to " +
                     fmt(chunk_sum) + "s, run() charged " +
                     fmt(r.prefill_time) + "s";
        return out;
    }
    if (chunk_sum < r.prefill_time * (1.0 - kRelEps)) {
        out.ok = false;
        out.detail = "prefill agreement: " + std::to_string(chunks) +
                     " chunks sum to " + fmt(chunk_sum) +
                     "s, below the monolithic " + fmt(r.prefill_time) +
                     "s";
        return out;
    }
    return out;
}

namespace {

/** First violated fleet-run invariant; empty when all hold. */
std::string
checkFleetInvariants(const FuzzFleetCase &c, const RunResult &r)
{
    const FleetSummary &fl = r.fleet;
    if (!fl.any())
        return "fleet run without a FleetSummary";
    if (fl.hosts != c.fleet.hosts)
        return "summary hosts " + std::to_string(fl.hosts) +
               " != config hosts " + std::to_string(c.fleet.hosts);
    if (!std::isfinite(r.decode_step_time) ||
        !std::isfinite(r.total_time))
        return "non-finite timing";
    if (!finiteNonNegative(fl.rebuild_time) ||
        !finiteNonNegative(fl.rebuild_bytes) ||
        !finiteNonNegative(fl.stall_time))
        return "negative or non-finite rebuild/stall accounting";
    if (fl.availability < 0.0 || fl.availability > 1.0 + kRelEps)
        return "availability " + fmt(fl.availability) +
               " outside [0, 1]";
    if ((fl.rebuild_bytes > 0.0) != (fl.rebuild_time > 0.0))
        return "rebuild bytes and rebuild time must appear together";
    if (!r.feasible)
        return r.note.empty() ? "infeasible without a note" : "";
    if (fl.hosts_failed >= fl.hosts)
        return "feasible result with every host failed";
    std::uint64_t epoch_tokens = 0;
    for (const FleetEpoch &ep : fl.epochs) {
        if (ep.hosts_serving == 0 || ep.hosts_serving > fl.hosts)
            return "epoch serving-host count out of range";
        if (!(ep.step_time > 0.0))
            return "epoch with a non-positive step time";
        epoch_tokens += ep.tokens;
    }
    if (epoch_tokens != c.run.output_len)
        return "epochs decode " + std::to_string(epoch_tokens) +
               " tokens, workload asked " +
               std::to_string(c.run.output_len);
    // Losing hosts can only slow the fleet down; the sole counterweight
    // is the coordination term shrinking when requests are dropped,
    // which is microseconds against a seconds-scale step.
    if (fl.slowdown < 1.0 - 1e-4)
        return "slowdown " + fmt(fl.slowdown) +
               " below 1 (faults made the fleet faster)";
    return "";
}

}  // namespace

OracleOutcome
runFleetOracle(std::uint64_t seed, Perturbation perturb)
{
    ConfigFuzzer fuzzer(seed);
    const FuzzFleetCase c = fuzzer.fleetCase();

    OracleOutcome out;
    out.seed = seed;
    out.cfg = c.describe();

    const SystemConfig sys = defaultSystem();
    const FleetEngine engine(sys, c.fleet);
    const RunResult a = engine.run(c.run);
    const RunResult b = engine.run(c.run);
    if (a.feasible != b.feasible ||
        a.decode_step_time != b.decode_step_time ||
        a.total_time != b.total_time ||
        a.fleet.availability != b.fleet.availability ||
        a.fleet.rebuild_bytes != b.fleet.rebuild_bytes ||
        a.fleet.epochs.size() != b.fleet.epochs.size()) {
        out.ok = false;
        out.detail = "determinism: two runs of one fleet case differ";
        return out;
    }

    const std::string violation = checkFleetInvariants(c, a);
    if (!violation.empty()) {
        out.ok = false;
        out.detail = "fleet invariant: " + violation;
        return out;
    }
    if (!a.feasible) {
        out.skipped = true;  // capacity-infeasible corner; nothing to diff
        return out;
    }

    // Analytic vs replayed fleet step on epoch 0's serving set. The
    // replay is priced at the epoch start so both backends see the
    // same fleet conditions.
    const FleetEpoch &ep0 = a.fleet.epochs.front();
    Seconds analytic = ep0.step_time;
    if (perturb == Perturbation::SkewAnalytic)
        analytic *= 3.0;
    const Seconds sim = engine.simulatedDecodeStep(c.run, ep0.start);
    if (!(sim > 0.0)) {
        out.ok = false;
        out.detail = "replayed fleet step has no feasible plan";
        return out;
    }
    // The replayed plan must also pass the semantic analyzer: the
    // fleet's coordination tail op is checked like any engine's op.
    const PlanAnalysis analysis =
        analyzePlan(engine.decodeStepPlanAt(c.run, ep0.start));
    if (hasUnwaivedErrors(analysis)) {
        out.ok = false;
        out.detail = "fleet plan analysis: " + firstUnwaivedError(analysis);
        return out;
    }
    const double ratio = sim / analytic;
    if (ratio < 0.4 || ratio > 2.5) {
        out.ok = false;
        out.detail = "agreement: sim/analytic fleet step " + fmt(ratio) +
                     " outside [0.4, 2.5]";
        return out;
    }
    return out;
}

namespace {

/** First violated serving-run invariant; empty when all hold. */
std::string
checkServingInvariants(const FuzzServingCase &c, const ServingResult &r)
{
    if (r.requests != c.requests.size())
        return "result covers " + std::to_string(r.requests) +
               " requests, stream has " +
               std::to_string(c.requests.size());
    if (r.records.size() != r.requests)
        return "record count mismatch";
    if (r.peak_in_flight > c.serving.max_batch)
        return "peak in-flight batch " +
               std::to_string(r.peak_in_flight) + " exceeds the cap " +
               std::to_string(c.serving.max_batch);
    std::uint64_t met = 0;
    std::uint64_t min_steps = 0;
    for (const RequestRecord &rec : r.records) {
        if (rec.admitted < rec.arrival)
            return "request " + std::to_string(rec.id) +
                   " admitted before it arrived";
        if (!(rec.first_token > rec.admitted))
            return "request " + std::to_string(rec.id) +
                   " produced its first token at admission time";
        if (rec.completed < rec.first_token)
            return "request " + std::to_string(rec.id) +
                   " completed before its first token";
        if (rec.completed > r.makespan + kRelEps)
            return "request " + std::to_string(rec.id) +
                   " completes after the makespan";
        if (rec.met_slo)
            met++;
        min_steps = std::max(min_steps, rec.output_tokens);
    }
    if (met != r.slo_met)
        return "slo_met " + std::to_string(r.slo_met) +
               " disagrees with the records (" + std::to_string(met) +
               ")";
    if (r.decode_steps < min_steps)
        return "decode_steps " + std::to_string(r.decode_steps) +
               " below the longest output " + std::to_string(min_steps);
    if (r.ttft_p50 > r.ttft_p99 + kRelEps ||
        r.ttft_p99 > r.ttft_p999 + kRelEps)
        return "TTFT percentiles not monotone";
    if (r.latency_p50 > r.latency_p99 + kRelEps ||
        r.latency_p99 > r.latency_p999 + kRelEps)
        return "latency percentiles not monotone";
    if (!finiteNonNegative(r.makespan) ||
        !finiteNonNegative(r.tokens_per_second) ||
        !finiteNonNegative(r.goodput_rps))
        return "negative or non-finite headline metrics";
    if (r.slo_attainment < 0.0 || r.slo_attainment > 1.0 + kRelEps)
        return "slo_attainment " + fmt(r.slo_attainment) +
               " outside [0, 1]";
    if (r.prefill_chunks_run < r.prefill_batches)
        return "prefill_chunks_run " +
               std::to_string(r.prefill_chunks_run) +
               " below prefill_batches " +
               std::to_string(r.prefill_batches);
    if (r.prefill_chunks_run >
        r.prefill_batches * c.serving.prefill_chunks)
        return "prefill_chunks_run " +
               std::to_string(r.prefill_chunks_run) + " exceeds " +
               std::to_string(r.prefill_batches) + " groups x " +
               std::to_string(c.serving.prefill_chunks) + " chunks";
    if (c.serving.prefill_chunks == 1) {
        if (r.prefill_chunks_run != r.prefill_batches)
            return "monolithic prefill ran " +
                   std::to_string(r.prefill_chunks_run) +
                   " chunks for " + std::to_string(r.prefill_batches) +
                   " groups";
        if (r.prefill_preemptions != 0)
            return "monolithic prefill recorded " +
                   std::to_string(r.prefill_preemptions) +
                   " preemptions";
    }
    return "";
}

/**
 * First no-leapfrog violation in the records; empty when none. Every
 * request that ranks before `a` and had arrived by `a`'s admission
 * was pending at that decision, and admission takes a prefix of the
 * policy order, so it must have been admitted no later than `a`.
 */
std::string
checkNoLeapfrog(const FuzzServingCase &c, const ServingResult &r,
                bool reverse)
{
    const auto candidate = [&](const RequestRecord &rec) {
        AdmissionCandidate cand;
        cand.id = rec.id;
        cand.arrival = rec.arrival;
        cand.input_tokens = rec.input_tokens;
        cand.output_tokens = rec.output_tokens;
        cand.deadline = rec.arrival + c.serving.slo;
        return cand;
    };
    for (const RequestRecord &a : r.records) {
        for (const RequestRecord &b : r.records) {
            const bool b_first =
                reverse ? admitsBefore(c.serving.policy, candidate(a),
                                       candidate(b))
                        : admitsBefore(c.serving.policy, candidate(b),
                                       candidate(a));
            if (b_first && b.arrival <= a.admitted &&
                b.admitted > a.admitted)
                return "request " + std::to_string(b.id) +
                       " ranks before " + std::to_string(a.id) +
                       " and was pending when it was admitted at " +
                       fmt(a.admitted) + ", but waited until " +
                       fmt(b.admitted);
        }
    }
    return "";
}

}  // namespace

OracleOutcome
runServingOracle(std::uint64_t seed, Perturbation perturb)
{
    ConfigFuzzer fuzzer(seed);
    FuzzServingCase c = fuzzer.servingCase();
    // Chunked prefill must hold every invariant the monolithic path
    // does; a third of the seeds keep chunks == 1 so the historical
    // shape stays covered too.
    c.serving.prefill_chunks = 1ull << (seed % 3);  // 1, 2, 4

    OracleOutcome out;
    out.seed = seed;
    out.cfg = c.describe();

    const SystemConfig sys = defaultSystem();
    const auto engine = makeEngine(c.kind, sys, c.opts);
    const ServingSimulator sim(*engine, c.serving);
    const ServingResult a = sim.run(c.requests);
    const ServingResult b = sim.run(c.requests);
    if (serialize(a) != serialize(b)) {
        out.ok = false;
        out.detail = "determinism: two runs of one serving case differ";
        return out;
    }
    if (!a.feasible) {
        out.skipped = true;  // stream does not fit this engine at all
        return out;
    }
    const std::string violation = checkServingInvariants(c, a);
    if (!violation.empty()) {
        out.ok = false;
        out.detail = "serving invariant: " + violation;
        return out;
    }
    const std::string leapfrog = checkNoLeapfrog(
        c, a, perturb == Perturbation::ReverseAdmissionOrder);
    if (!leapfrog.empty()) {
        out.ok = false;
        out.detail = "admission order: " + leapfrog;
        return out;
    }

    // Semantic gate on the plans the serving loop steps over: probe
    // the engine's plans at the stream's shape and require zero
    // error-severity analyzer findings, decode and prefill both.
    RunConfig probe;
    probe.model = c.serving.model;
    probe.batch = c.serving.max_batch;
    probe.context_len = c.requests.front().input_tokens;
    probe.output_len =
        std::max<std::uint64_t>(1, c.requests.front().output_tokens);
    const StepPlan dp = engine->decodeStepPlan(probe);
    if (dp.feasible && hasUnwaivedErrors(analyzePlan(dp))) {
        out.ok = false;
        out.detail = "serving plan analysis: " +
                     firstUnwaivedError(analyzePlan(dp));
        return out;
    }
    const StepPlan pp =
        engine->prefillStepPlan(probe, 0, c.serving.prefill_chunks);
    if (pp.feasible && hasUnwaivedErrors(analyzePlan(pp))) {
        out.ok = false;
        out.detail = "serving prefill plan analysis: " +
                     firstUnwaivedError(analyzePlan(pp));
        return out;
    }

    // All-arrivals-at-zero equivalence: FCFS continuous batching and
    // the offline bucketing batcher are two independent schedulers of
    // the same request set over the same engine cost model, so their
    // makespans must agree within the band.
    std::vector<Request> at_zero = c.requests;
    for (Request &r : at_zero)
        r.arrival = 0.0;
    const OfflineBatcher batcher(c.serving.max_batch,
                                 c.serving.bucket_quantum);
    for (const ScheduledBatch &batch : batcher.plan(at_zero)) {
        RunConfig probe;
        probe.model = c.serving.model;
        probe.batch = 1;
        probe.context_len = batch.context_len;
        probe.output_len = batch.output_len;
        if (!engine->run(probe).feasible) {
            out.skipped = true;  // offline side cannot serve the set
            return out;
        }
    }
    ServingConfig fcfs_cfg = c.serving;
    fcfs_cfg.policy = ServingPolicy::Fcfs;
    // The offline batcher has no notion of chunked prefill, so the
    // equivalence leg compares monolithic timelines on both sides.
    fcfs_cfg.prefill_chunks = 1;
    const ServingSimulator fcfs_sim(*engine, fcfs_cfg);
    const ServingResult serving = fcfs_sim.run(at_zero);
    if (!serving.feasible) {
        out.ok = false;
        out.detail = "all-at-zero stream infeasible after the timed "
                     "stream was served: " +
                     serving.note;
        return out;
    }
    const BatchPlanResult offline =
        batcher.serve(*engine, c.serving.model, at_zero);
    Seconds serving_makespan = serving.makespan;
    // The self-test skew exceeds the band's dynamic range (2.5 / 0.4),
    // so every naturally in-band case is pushed out — detection must
    // not depend on where in the band the case happened to sit.
    if (perturb == Perturbation::SkewAnalytic)
        serving_makespan *= 8.0;
    const double ratio = serving_makespan / offline.makespan;
    if (ratio < 0.4 || ratio > 2.5) {
        out.ok = false;
        out.detail = "agreement: serving/offline makespan " +
                     fmt(ratio) + " outside [0.4, 2.5]";
        return out;
    }
    return out;
}

}  // namespace test
}  // namespace hilos

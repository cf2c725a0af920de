#include "runtime/engine.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/logging.h"
#include "runtime/plan_cache.h"
#include "runtime/step_plan.h"
#include "sim/fault.h"

namespace hilos {

void
StageBreakdown::add(const std::string &name, Seconds t)
{
    HILOS_ASSERT(t >= 0.0, "negative stage time for ", name);
    for (auto &entry : stages_) {
        if (entry.first == name) {
            entry.second += t;
            return;
        }
    }
    stages_.emplace_back(name, t);
}

void
StageBreakdown::assign(std::span<const std::string> names,
                       std::span<const Seconds> secs)
{
    HILOS_ASSERT(names.size() == secs.size(), "one time per stage name");
    stages_.resize(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        HILOS_ASSERT(secs[i] >= 0.0, "negative stage time for ", names[i]);
        stages_[i].first = names[i];
        stages_[i].second = secs[i];
    }
}

Seconds
StageBreakdown::get(const std::string &name) const
{
    for (const auto &entry : stages_)
        if (entry.first == name)
            return entry.second;
    return Seconds(0.0);
}

Seconds
StageBreakdown::sum() const
{
    Seconds total = 0.0;
    for (const auto &[n, v] : stages_)
        total += v;
    return total;
}

namespace {

/**
 * What a plan of a run is for, mixed with its condition segment into its
 * PlanCache key (see roleKey): the plans of one faulted run each keep an
 * entry of their own, so a repeated run rebuilds every one in place. A
 * healthy run keeps the plain phase keys (role 0).
 */
enum PlanRole : std::uint64_t {
    kRoleFirst = 1,  ///< the fold's decode and prefill at t = 0
    kRoleEpoch = 2,  ///< an epoch's decode, per segment
    kRoleRunAt = 3,  ///< runAt()'s decode and prefill, per segment
};

/** The role word of a plan of `role` in condition segment `segment`. */
std::uint64_t
roleKey(PlanRole role, std::size_t segment = 0)
{
    return (static_cast<std::uint64_t>(segment) << 2) | role;
}

/**
 * Entries the per-thread cache of run() holds before it is cleared
 * wholesale: above the plans of a few faulted fleet configurations, so
 * a repeated run stays warm, while config churn keeps memory bounded.
 * A run adds its plans before the next check, so the cache peaks at
 * this many plus one run's plans (a few per condition segment).
 */
constexpr std::size_t kRunCacheEntries = 128;

/**
 * Accumulate the `w`-weighted decode-step accounting of `ev` into `acc`
 * (decode step time, breakdown stages, traffic counters, busy time):
 * the epoch-blending primitive of the fold.
 */
void
accumulateWeighted(RunResult &acc, const PlanEvaluation &ev, double w)
{
    acc.decode_step_time += w * ev.decode_step_time;
    for (const auto &[stage, secs] : ev.breakdown.stages())
        acc.breakdown.add(stage, w * secs);
    acc.traffic.host_read_bytes += w * ev.traffic.host_read_bytes;
    acc.traffic.host_write_bytes += w * ev.traffic.host_write_bytes;
    acc.traffic.attn_host_read_bytes +=
        w * ev.traffic.attn_host_read_bytes;
    acc.traffic.attn_host_write_bytes +=
        w * ev.traffic.attn_host_write_bytes;
    acc.traffic.internal_bytes += w * ev.traffic.internal_bytes;
    acc.traffic.storage_write_bytes +=
        w * ev.traffic.storage_write_bytes;
    acc.busy.gpu += w * ev.busy.gpu;
    acc.busy.cpu += w * ev.busy.cpu;
    acc.busy.dram += w * ev.busy.dram;
    acc.busy.storage += w * ev.busy.storage;
    acc.busy.fpga += w * ev.busy.fpga;
}

}  // namespace

RunResult
InferenceEngine::runPlans(const RunConfig &cfg, PlanCache *cache,
                          std::optional<Seconds> at) const
{
    HILOS_ASSERT(cfg.prefill_chunks >= 1,
                 "a run needs at least one prefill chunk");
    // Cold builds fill a fresh plan; cached ones rebuild the phase's
    // entry in place and may run the builder twice. `fresh` stays
    // empty on the cached path, which then constructs no plan at all.
    const auto build = [cache](std::uint64_t key,
                               std::optional<StepPlan> &fresh,
                               const auto &fn) -> const StepPlan & {
        if (cache != nullptr)
            return cache->build(key, fn);
        fn(fresh.emplace());
        return *fresh;
    };
    // name() builds a string, so the run asks for it once.
    std::uint64_t decode_key = 0;
    std::uint64_t prefill_key = 0;
    if (cache != nullptr) {
        const std::string engine = name();
        decode_key =
            PlanCache::keyOf(engine, cfg.model.name, PlanPhase::Decode);
        prefill_key =
            PlanCache::keyOf(engine, cfg.model.name, PlanPhase::Prefill);
        if (at) {
            const std::uint64_t role =
                roleKey(kRoleRunAt, timeline().segmentAt(*at));
            decode_key = PlanCache::mixKey(decode_key, role);
            prefill_key = PlanCache::mixKey(prefill_key, role);
        }
    }

    RunResult res;
    std::optional<StepPlan> decode_plan;
    const StepPlan &plan = build(decode_key, decode_plan, [&](StepPlan &p) {
        res = RunResult{};
        if (at)
            buildDecodePlanAt(cfg, *at, res, p);
        else
            buildDecodePlan(cfg, res, p);
    });
    if (!plan.feasible)
        return res;
    for (std::uint64_t i = 0; i < cfg.prefill_chunks; ++i) {
        std::optional<StepPlan> chunk;
        const StepPlan &pre = build(prefill_key, chunk, [&](StepPlan &p) {
            if (at)
                buildPrefillPlanAt(cfg, *at, i, cfg.prefill_chunks, p);
            else
                buildPrefillPlan(cfg, i, cfg.prefill_chunks, p);
        });
        if (!applyPrefillPlan(pre, res))
            return res;
    }
    applyPlan(plan, cfg, res);
    return res;
}

RunResult
InferenceEngine::runHealthy(const RunConfig &cfg, PlanCache *cache) const
{
    RunResult res = runPlans(cfg, cache, std::nullopt);
    const DecodeEpoch only{res.prefill_time, res.decode_step_time,
                           cfg.output_len, 1.0};
    EpochLog log;
    log.cache = cache;
    if (res.feasible) {
        log.epochs = {&only, 1};
        log.healthy_step = res.decode_step_time;
        log.end = res.total_time;
    }
    summarize(cfg, log, res);
    return res;
}

RunResult
InferenceEngine::runEpochs(const RunConfig &cfg, PlanCache &cache) const
{
    HILOS_ASSERT(cfg.prefill_chunks >= 1,
                 "a run needs at least one prefill chunk");
    const ConditionTimeline &tl = timeline();
    // name() builds a string, so the run asks for it once. The healthy
    // decode shares runCached()'s Decode entry; every other plan keys
    // its role (and its segment) in, so no build below rebuilds an
    // entry the fold still holds.
    const std::string engine = name();
    const std::uint64_t decode_key =
        PlanCache::keyOf(engine, cfg.model.name, PlanPhase::Decode);
    const std::uint64_t prefill_key =
        PlanCache::keyOf(engine, cfg.model.name, PlanPhase::Prefill);
    std::vector<DecodeEpoch> epochs;
    EpochLog log;
    log.cache = &cache;
    // Every plan of the run evaluates into this one evaluation.
    PlanEvaluation ev;
    RunResult scratch;
    const StepPlan &healthy = cache.build(decode_key, [&](StepPlan &p) {
        scratch = RunResult{};
        buildDecodePlan(cfg, scratch, p);
    });
    if (healthy.feasible) {
        evaluatePlan(healthy, ev);
        log.healthy_step = ev.decode_step_time;
    }

    // Capacity decisions and the prefill phase under the conditions in
    // force when the run starts.
    const Seconds run_start = 0.0;
    RunResult res;
    const StepPlan &first = cache.build(
        PlanCache::mixKey(decode_key, roleKey(kRoleFirst)),
        [&](StepPlan &p) {
            res = RunResult{};
            buildDecodePlanAt(cfg, run_start, res, p);
        });
    if (!first.feasible) {
        res.feasible = false;
        res.note = first.note;
        summarize(cfg, log, res);
        return res;
    }
    const std::uint64_t first_prefill_key =
        PlanCache::mixKey(prefill_key, roleKey(kRoleFirst));
    for (std::uint64_t i = 0; i < cfg.prefill_chunks; ++i) {
        const StepPlan &pre = cache.build(first_prefill_key, [&](StepPlan &p) {
            buildPrefillPlanAt(cfg, run_start, i, cfg.prefill_chunks, p);
        });
        if (!applyPrefillPlan(pre, res)) {
            summarize(cfg, log, res);
            return res;
        }
    }
    if (cfg.output_len == 0) {
        applyPlan(first, cfg, res);
        epochs.push_back({res.prefill_time, res.decode_step_time, 0, 1.0});
        log.epochs = epochs;
        log.end = res.prefill_time;
        summarize(cfg, log, res);
        return res;
    }

    // Decode epochs: constant conditions between change times. `since`
    // is when the conditions were last charged for: the start of the
    // previous epoch or the previous rebuild.
    const double out_tokens = static_cast<double>(cfg.output_len);
    Seconds now = res.prefill_time;
    Seconds since = run_start;
    Seconds decode_time = 0.0;
    std::uint64_t remaining = cfg.output_len;
    while (remaining > 0) {
        const StepPlan rebuild =
            rebuildPlanAt(cfg, since, now, cfg.output_len - remaining);
        if (!rebuild.tail_ops.empty()) {
            // Decode pauses for the rebuild; a change inside the pause
            // is read (and charged) on the next pass.
            evaluatePlan(rebuild, ev);
            const Seconds pause = ev.decode_step_time;
            log.rebuild_time += pause;
            for (const StepOpView op : rebuild.tail_ops)
                log.rebuild_bytes += op.bytes;
            since = now;
            now += pause;
            continue;
        }
        if (tl.allHostsStalled(now)) {
            // Nothing serves until the next change (a stall always ends).
            now = tl.nextChangeAfter(now);
            HILOS_ASSERT(std::isfinite(now),
                         "stalled fleet with no recovery event");
            continue;
        }
        const StepPlan &plan = cache.build(
            PlanCache::mixKey(decode_key,
                              roleKey(kRoleEpoch, tl.segmentAt(now))),
            [&](StepPlan &p) {
                scratch = RunResult{};
                buildDecodePlanAt(cfg, now, scratch, p);
            });
        if (!plan.feasible) {
            res.feasible = false;
            res.note = plan.note;
            break;
        }
        evaluatePlan(plan, ev);
        const Seconds step = ev.decode_step_time;
        HILOS_ASSERT(step > 0.0, "decode step must be positive");

        // Tokens until the next change flips conditions.
        std::uint64_t tokens = remaining;
        const Seconds next = tl.nextChangeAfter(now);
        if (std::isfinite(next)) {
            const double span = (next - now) / step;
            const auto fit = static_cast<std::uint64_t>(std::ceil(span));
            tokens = std::min(remaining, std::max<std::uint64_t>(1, fit));
        }
        const double w = static_cast<double>(tokens) / out_tokens;
        accumulateWeighted(res, ev, w);
        epochs.push_back({now, step, tokens, w});
        decode_time += static_cast<double>(tokens) * step;
        since = now;
        now += static_cast<double>(tokens) * step;
        remaining -= tokens;
    }
    log.epochs = epochs;
    log.end = now;
    log.stall_time = tl.recoveredStallsBefore(now).time;
    res.total_time = res.prefill_time + decode_time + log.rebuild_time +
                     log.stall_time;
    // Before summarize, whose own builds may share the cache.
    if (res.feasible)
        applyRunEnergy(first.energy, cfg, res);
    summarize(cfg, log, res);
    return res;
}

RunResult
InferenceEngine::run(const RunConfig &cfg) const
{
    if (timeline().empty())
        return runHealthy(cfg, nullptr);
    // Cleared only here, between runs: a fold holds references into it.
    thread_local PlanCache cache;
    if (cache.size() >= kRunCacheEntries)
        cache.clear();
    return runEpochs(cfg, cache);
}

RunResult
InferenceEngine::runCached(const RunConfig &cfg, PlanCache &cache) const
{
    return timeline().empty() ? runHealthy(cfg, &cache)
                              : runEpochs(cfg, cache);
}

RunResult
InferenceEngine::runAt(const RunConfig &cfg, Seconds now,
                       PlanCache *cache) const
{
    return runPlans(cfg, cache, now);
}

StepPlan
InferenceEngine::decodeStepPlan(const RunConfig &cfg) const
{
    RunResult scratch;
    StepPlan plan;
    buildDecodePlan(cfg, scratch, plan);
    return plan;
}

const StepPlan &
InferenceEngine::decodeStepPlan(const RunConfig &cfg, PlanCache &cache) const
{
    RunResult scratch;
    return cache.build(
        PlanCache::keyOf(name(), cfg.model.name, PlanPhase::Decode),
        [&](StepPlan &plan) {
            scratch = RunResult{};
            buildDecodePlan(cfg, scratch, plan);
        });
}

StepPlan
InferenceEngine::decodeStepPlanAt(const RunConfig &cfg, Seconds now) const
{
    RunResult scratch;
    StepPlan plan;
    buildDecodePlanAt(cfg, now, scratch, plan);
    return plan;
}

StepPlan
InferenceEngine::prefillStepPlan(const RunConfig &cfg,
                                 std::uint64_t chunk_index,
                                 std::uint64_t chunk_count) const
{
    StepPlan plan;
    buildPrefillPlan(cfg, chunk_index, chunk_count, plan);
    return plan;
}

const StepPlan &
InferenceEngine::prefillStepPlan(const RunConfig &cfg,
                                 std::uint64_t chunk_index,
                                 std::uint64_t chunk_count,
                                 PlanCache &cache) const
{
    return cache.build(
        PlanCache::keyOf(name(), cfg.model.name, PlanPhase::Prefill),
        [&](StepPlan &plan) {
            buildPrefillPlan(cfg, chunk_index, chunk_count, plan);
        });
}

void
InferenceEngine::buildDecodePlanAt(const RunConfig &cfg, Seconds,
                                   RunResult &res, StepPlan &plan) const
{
    buildDecodePlan(cfg, res, plan);
}

void
InferenceEngine::buildPrefillPlanAt(const RunConfig &cfg, Seconds,
                                    std::uint64_t chunk_index,
                                    std::uint64_t chunk_count,
                                    StepPlan &plan) const
{
    buildPrefillPlan(cfg, chunk_index, chunk_count, plan);
}

StepPlan
InferenceEngine::rebuildPlanAt(const RunConfig &, Seconds, Seconds,
                               std::uint64_t) const
{
    return StepPlan{};
}

const ConditionTimeline &
InferenceEngine::timeline() const
{
    static const ConditionTimeline kHealthy;
    return kHealthy;
}

void
InferenceEngine::summarize(const RunConfig &, const EpochLog &,
                           RunResult &) const
{
}

bool
FaultSummary::any() const
{
    return nand_read_errors > 0 || nvme_timeouts > 0 ||
           redispatched_slices > 0 || devices_failed > 0 ||
           requests_degraded > 0 || requests_failed > 0 ||
           retry_time > 0.0 || rebuild_time > 0.0 || slowdown > 1.0;
}

double
RunResult::decodeThroughput() const
{
    if (!feasible || decode_step_time <= 0.0)
        return 0.0;
    return static_cast<double>(effective_batch) / decode_step_time;
}

double
RunResult::endToEndThroughput(std::uint64_t output_len) const
{
    if (!feasible)
        return 0.0;
    const Seconds total =
        prefill_time +
        static_cast<double>(output_len) * decode_step_time;
    if (total <= 0.0)
        return 0.0;
    return static_cast<double>(effective_batch * output_len) / total;
}

std::uint64_t
maxFittingBatch(const ModelConfig &model, std::uint64_t requested_batch,
                std::uint64_t total_seq, Bytes capacity_bytes,
                Bytes resident_bytes)
{
    const double per_seq = model.kvBytesTotal(1, total_seq);
    const double budget = capacity_bytes - resident_bytes;
    if (budget < per_seq)
        return 0;
    const auto fit = static_cast<std::uint64_t>(budget / per_seq);
    return std::min(requested_batch, fit);
}

}  // namespace hilos

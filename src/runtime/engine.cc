#include "runtime/engine.h"

#include <optional>

#include "common/logging.h"
#include "runtime/plan_cache.h"
#include "runtime/step_plan.h"

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

/** An engine's own decode builder, as a runPlans argument. */
struct OwnDecode {
    const InferenceEngine &engine;
    void operator()(const RunConfig &cfg, RunResult &res,
                    StepPlan &plan) const
    {
        engine.buildDecodePlan(cfg, res, plan);
    }
};

/** An engine's own prefill builder, as a runPlans argument. */
struct OwnPrefill {
    const InferenceEngine &engine;
    void operator()(const RunConfig &cfg, std::uint64_t chunk_index,
                    std::uint64_t chunk_count, StepPlan &plan) const
    {
        engine.buildPrefillPlan(cfg, chunk_index, chunk_count, plan);
    }
};

}  // namespace

RunResult
InferenceEngine::runPlans(const RunConfig &cfg, PlanCache *cache,
                          DecodeBuilder decode, PrefillBuilder prefill) const
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
    const auto keyOf = [&](PlanPhase phase) -> std::uint64_t {
        return cache ? PlanCache::keyOf(name(), cfg.model.name, phase) : 0;
    };

    RunResult res;
    std::optional<StepPlan> decode_plan;
    const StepPlan &plan =
        build(keyOf(PlanPhase::Decode), decode_plan, [&](StepPlan &p) {
            res = RunResult{};
            decode(cfg, res, p);
        });
    if (!plan.feasible)
        return res;
    const std::uint64_t prefill_key = keyOf(PlanPhase::Prefill);
    for (std::uint64_t i = 0; i < cfg.prefill_chunks; ++i) {
        std::optional<StepPlan> chunk;
        const StepPlan &pre = build(prefill_key, chunk, [&](StepPlan &p) {
            prefill(cfg, i, cfg.prefill_chunks, p);
        });
        if (!applyPrefillPlan(pre, res))
            return res;
    }
    applyPlan(plan, cfg, res);
    return res;
}

RunResult
InferenceEngine::run(const RunConfig &cfg) const
{
    return runPlans(cfg, nullptr, OwnDecode{*this}, OwnPrefill{*this});
}

RunResult
InferenceEngine::runCached(const RunConfig &cfg, PlanCache &cache) const
{
    return runPlans(cfg, &cache, OwnDecode{*this}, OwnPrefill{*this});
}

StepPlan
InferenceEngine::decodeStepPlan(const RunConfig &cfg) const
{
    RunResult scratch;
    StepPlan plan;
    buildDecodePlan(cfg, scratch, plan);
    return plan;
}

StepPlan
InferenceEngine::decodeStepPlanAt(const RunConfig &cfg, Seconds) const
{
    return decodeStepPlan(cfg);
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

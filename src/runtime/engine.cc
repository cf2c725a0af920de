#include "runtime/engine.h"

#include "common/logging.h"
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

RunResult
InferenceEngine::runCached(const RunConfig &cfg, PlanCache &) const
{
    return run(cfg);
}

StepPlan
InferenceEngine::decodeStepPlanAt(const RunConfig &cfg, Seconds) const
{
    return decodeStepPlan(cfg);
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

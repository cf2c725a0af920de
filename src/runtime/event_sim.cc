#include "runtime/event_sim.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace hilos {

namespace {

/**
 * The pools a plan replay runs over: one BandwidthPool per referenced
 * transfer resource (with the plan's declared instance count) and one
 * single-instance pool per referenced compute unit. Rates are dummies
 * — replay uses occupy(), whose durations are already engine-priced.
 */
class PlanPools
{
  public:
    explicit PlanPools(const StepPlan &plan)
    {
        auto visit = [&](const StepOpView &op) {
            if (op.offline)
                return;
            if (op.op_kind == StepOp::Kind::Transfer &&
                op.resource != PlanResource::None) {
                const int key = static_cast<int>(op.resource);
                if (resources_.find(key) == resources_.end())
                    resources_.emplace(
                        key, BandwidthPool(planResourceName(op.resource),
                                           plan.instancesOf(op.resource),
                                           1.0));
            } else if (op.op_kind == StepOp::Kind::Compute &&
                       op.unit != ComputeUnit::None) {
                const int key = static_cast<int>(op.unit);
                if (units_.find(key) == units_.end())
                    units_.emplace(
                        key, BandwidthPool(computeUnitName(op.unit), 1, 1.0));
            }
        };
        for (const StepOpView op : plan.layer_ops)
            visit(op);
        for (const StepOpView op : plan.tail_ops)
            visit(op);
    }

    /** The pool `op` occupies, or nullptr for a pure delay. */
    BandwidthPool *poolFor(const StepOpView &op)
    {
        if (op.op_kind == StepOp::Kind::Transfer) {
            if (op.resource == PlanResource::None)
                return nullptr;
            return &resources_.at(static_cast<int>(op.resource));
        }
        if (op.unit == ComputeUnit::None)
            return nullptr;
        return &units_.at(static_cast<int>(op.unit));
    }

    Seconds maxBusyUntil() const
    {
        Seconds latest = 0.0;
        for (const auto &kv : resources_)
            latest = std::max(latest, kv.second.maxBusyUntil());
        for (const auto &kv : units_)
            latest = std::max(latest, kv.second.maxBusyUntil());
        return latest;
    }

    const std::map<int, BandwidthPool> &resources() const
    {
        return resources_;
    }
    const std::map<int, BandwidthPool> &units() const { return units_; }

  private:
    std::map<int, BandwidthPool> resources_;
    std::map<int, BandwidthPool> units_;
};

}  // namespace

PlanSimResult
simulatePlan(const StepPlan &plan, TraceRecorder *trace)
{
    HILOS_ASSERT(plan.feasible, "cannot replay an infeasible plan: ",
                 plan.note);
    HILOS_ASSERT(plan.layers >= 1, "plan has no layers");
    PlanPools pools(plan);
    PlanSimResult out;
    out.layer_times.reserve(plan.layers);

    const std::size_t n = plan.layer_ops.size();
    std::vector<Seconds> finish(n, 0.0);
    Seconds layer_start = 0.0;
    Seconds prev_layer_start = 0.0;
    for (std::uint64_t l = 0; l < plan.layers; ++l) {
        Seconds layer_end = layer_start;
        for (std::size_t i = 0; i < n; ++i) {
            const StepOpView op = plan.layer_ops[i];
            if (op.offline) {
                finish[i] = 0.0;
                continue;
            }
            Seconds ready = op.prefetch ? prev_layer_start : layer_start;
            for (const std::size_t d : op.deps)
                ready = std::max(ready, finish[d]);
            if (op.shadow) {
                // Timing-only: bounds the layer but occupies nothing.
                finish[i] = ready + op.seconds;
                layer_end = std::max(layer_end, finish[i]);
                continue;
            }
            BandwidthPool *pool = pools.poolFor(op);
            Seconds done = ready + op.seconds;
            if (pool != nullptr) {
                done = ready;
                for (std::uint64_t k = 0; k < op.fanout; ++k) {
                    const Seconds end = pool->occupyOn(k, ready, op.seconds);
                    done = std::max(done, end);
                    if (trace != nullptr)
                        trace->record(
                            pool->instance(static_cast<unsigned>(
                                               k % pool->size()))
                                .name(),
                            "layer" + std::to_string(l) + "/" +
                                std::string(op.label),
                            end - op.seconds, end);
                }
            }
            finish[i] = done;
            layer_end = std::max(layer_end, done);
        }
        if (l == 0)
            out.first_layer_finish = finish;
        out.layer_times.push_back(layer_end - layer_start);
        prev_layer_start = layer_start;
        layer_start = layer_end;
    }
    out.layered_end = layer_start;

    Seconds tail_end = out.layered_end;
    for (const StepOpView op : plan.tail_ops) {
        BandwidthPool *pool = pools.poolFor(op);
        const Seconds begin = tail_end;
        tail_end = pool != nullptr ? pool->occupyOn(0, tail_end, op.seconds)
                                   : tail_end + op.seconds;
        if (trace != nullptr)
            trace->record(pool != nullptr ? pool->instance(0).name()
                                          : "delay",
                          "tail/" + std::string(op.label), begin, tail_end);
    }

    HILOS_ASSERT(plan.layer_time_divisor > 0.0,
                 "non-positive layer_time_divisor");
    out.decode_step_time = out.layered_end / plan.layer_time_divisor +
                           (tail_end - out.layered_end);

    // Utilisations over the pre-divisor timeline; the horizon covers
    // every pool's busy span so BandwidthResource's >1 check holds.
    const Seconds horizon =
        std::max(tail_end, pools.maxBusyUntil());
    for (const auto &kv : pools.resources())
        out.resource_utilization.emplace_back(
            kv.second.name(), kv.second.meanUtilization(horizon));
    for (const auto &kv : pools.units())
        out.unit_utilization.emplace_back(
            kv.second.name(), kv.second.meanUtilization(horizon));
    return out;
}

}  // namespace hilos

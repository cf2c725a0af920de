#include "support/reference_replay.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sim/bandwidth.h"

namespace hilos {
namespace test {

namespace {

/** `instances` BandwidthResources named "<name>[i]" behind one kind. */
struct Pool {
    std::string name;
    std::vector<BandwidthResource> links;

    Pool(std::string pool_name, unsigned instances)
        : name(std::move(pool_name))
    {
        HILOS_ASSERT(instances >= 1, "pool '", name,
                     "' needs at least one instance");
        links.reserve(instances);
        for (unsigned i = 0; i < instances; ++i)
            links.emplace_back(name + "[" + std::to_string(i) + "]", 1.0);
    }

    /** Occupy instance `i % size` for `duration` from `start`. */
    Seconds occupyOn(std::uint64_t i, Seconds start, Seconds duration)
    {
        return links[i % links.size()].occupy(start, duration);
    }

    Seconds maxBusyUntil() const
    {
        Seconds latest = 0.0;
        for (const BandwidthResource &link : links)
            latest = std::max(latest, link.busyUntil());
        return latest;
    }

    double meanUtilization(Seconds horizon) const
    {
        double sum = 0.0;
        for (const BandwidthResource &link : links)
            sum += link.utilization(horizon);
        return sum / static_cast<double>(links.size());
    }
};

/** One pool per referenced resource and per referenced compute unit. */
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
                        key, Pool(planResourceName(op.resource),
                                  plan.instancesOf(op.resource)));
            } else if (op.op_kind == StepOp::Kind::Compute &&
                       op.unit != ComputeUnit::None) {
                const int key = static_cast<int>(op.unit);
                if (units_.find(key) == units_.end())
                    units_.emplace(key, Pool(computeUnitName(op.unit), 1));
            }
        };
        for (const StepOpView op : plan.layer_ops)
            visit(op);
        for (const StepOpView op : plan.tail_ops)
            visit(op);
    }

    /** The pool `op` occupies, or nullptr for a pure delay. */
    Pool *poolFor(const StepOpView &op)
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

    const std::map<int, Pool> &resources() const { return resources_; }
    const std::map<int, Pool> &units() const { return units_; }

  private:
    std::map<int, Pool> resources_;
    std::map<int, Pool> units_;
};

}  // namespace

PlanSimResult
referenceSimulatePlan(const StepPlan &plan, TraceRecorder *trace)
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
                finish[i] = ready + op.seconds;
                layer_end = std::max(layer_end, finish[i]);
                continue;
            }
            Pool *pool = pools.poolFor(op);
            Seconds done = ready + op.seconds;
            if (pool != nullptr) {
                done = ready;
                for (std::uint64_t k = 0; k < op.fanout; ++k) {
                    const Seconds end = pool->occupyOn(k, ready, op.seconds);
                    done = std::max(done, end);
                    if (trace != nullptr)
                        trace->record(
                            pool->links[k % pool->links.size()].name(),
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
        Pool *pool = pools.poolFor(op);
        const Seconds begin = tail_end;
        tail_end = pool != nullptr ? pool->occupyOn(0, tail_end, op.seconds)
                                   : tail_end + op.seconds;
        if (trace != nullptr)
            trace->record(pool != nullptr ? pool->links[0].name() : "delay",
                          "tail/" + std::string(op.label), begin, tail_end);
    }

    HILOS_ASSERT(plan.layer_time_divisor > 0.0,
                 "non-positive layer_time_divisor");
    out.decode_step_time = out.layered_end / plan.layer_time_divisor +
                           (tail_end - out.layered_end);

    const Seconds horizon = std::max(tail_end, pools.maxBusyUntil());
    for (const auto &kv : pools.resources())
        out.resource_utilization.emplace_back(
            kv.second.name, kv.second.meanUtilization(horizon));
    for (const auto &kv : pools.units())
        out.unit_utilization.emplace_back(
            kv.second.name, kv.second.meanUtilization(horizon));
    return out;
}

}  // namespace test
}  // namespace hilos

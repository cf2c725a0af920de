#include "runtime/event_sim.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/logging.h"

namespace hilos {

namespace {

constexpr std::uint32_t kNoPool = ~0u;
constexpr std::size_t kResourceKinds =
    static_cast<std::size_t>(PlanResource::InterNode) + 1;
constexpr std::size_t kUnitKinds =
    static_cast<std::size_t>(ComputeUnit::Fpga) + 1;

/** One resource or compute-unit pool: `size` consecutive slots. */
struct Pool {
    const char *name = "";
    std::uint32_t first = 0;
    std::uint32_t size = 1;
    /**
     * Every instance has seen the same occupy sequence so far, so only
     * the representative slot `first` is kept current; expand() copies
     * it out before an op can make the instances differ.
     */
    bool symmetric = true;
};

/**
 * The timelines a plan replay runs over: one pool per referenced
 * transfer resource (with the plan's declared instance count) and one
 * single-instance pool per referenced compute unit, laid out in
 * PlanResource then ComputeUnit order. Each instance is a slot in two
 * flat vectors, its busy horizon and its accumulated busy time — the
 * state of a BandwidthResource that only ever occupies.
 */
class PlanTimelines
{
  public:
    explicit PlanTimelines(const StepPlan &plan)
    {
        std::array<bool, kResourceKinds> resource_used{};
        std::array<bool, kUnitKinds> unit_used{};
        auto visit = [&](const StepOpView &op) {
            if (op.offline)
                return;
            if (op.op_kind == StepOp::Kind::Transfer)
                resource_used[static_cast<std::size_t>(op.resource)] = true;
            else
                unit_used[static_cast<std::size_t>(op.unit)] = true;
        };
        for (const StepOpView op : plan.layer_ops)
            visit(op);
        for (const StepOpView op : plan.tail_ops)
            visit(op);

        resource_pool_.fill(kNoPool);
        unit_pool_.fill(kNoPool);
        pools_.reserve(kResourceKinds + kUnitKinds);
        std::uint32_t slots = 0;
        const auto add = [&](const char *name, unsigned instances) {
            HILOS_ASSERT(instances >= 1, "pool '", name,
                         "' needs at least one instance");
            pools_.push_back(Pool{name, slots, instances, true});
            slots += instances;
            return static_cast<std::uint32_t>(pools_.size() - 1);
        };
        for (std::size_t r = 1; r < kResourceKinds; ++r)
            if (resource_used[r]) {
                const auto kind = static_cast<PlanResource>(r);
                resource_pool_[r] =
                    add(planResourceName(kind), plan.instancesOf(kind));
            }
        resource_pools_ = pools_.size();
        for (std::size_t u = 1; u < kUnitKinds; ++u)
            if (unit_used[u])
                unit_pool_[u] =
                    add(computeUnitName(static_cast<ComputeUnit>(u)), 1);
        busy_until_.assign(slots, 0.0);
        busy_time_.assign(slots, 0.0);
    }

    /** The pool `op` occupies, or kNoPool for a pure delay. */
    std::uint32_t poolOf(const StepOpView &op) const
    {
        return op.op_kind == StepOp::Kind::Transfer
                   ? resource_pool_[static_cast<std::size_t>(op.resource)]
                   : unit_pool_[static_cast<std::size_t>(op.unit)];
    }

    Pool &pool(std::uint32_t p) { return pools_[p]; }

    /** Copy a symmetric pool's representative out to every instance. */
    void expand(Pool &p)
    {
        if (!p.symmetric)
            return;
        p.symmetric = false;
        std::fill_n(busy_until_.begin() + p.first + 1, p.size - 1,
                    busy_until_[p.first]);
        std::fill_n(busy_time_.begin() + p.first + 1, p.size - 1,
                    busy_time_[p.first]);
    }

    /**
     * BandwidthResource::occupy on slot `s`: busy for `duration` from
     * no earlier than `start`; a zero duration leaves it untouched.
     */
    Seconds occupy(std::uint32_t s, Seconds start, Seconds duration)
    {
        if (duration == 0.0)
            return std::max(start, busy_until_[s]);
        const Seconds begin = std::max(start, busy_until_[s]);
        busy_until_[s] = begin + duration;
        busy_time_[s] += duration;
        return busy_until_[s];
    }

    /** "<pool>[i]", the trace track of every slot. */
    std::vector<std::string> slotNames() const
    {
        std::vector<std::string> names;
        names.reserve(busy_until_.size());
        for (const Pool &p : pools_)
            for (std::uint32_t i = 0; i < p.size; ++i)
                names.push_back(instanceName(p, i));
        return names;
    }

    /**
     * Expand every pool, then fill the result's utilisation vectors
     * over the horizon that covers both `tail_end` and every busy span
     * (so the per-instance <= 1 check holds).
     */
    void fillUtilization(Seconds tail_end, PlanSimResult &out)
    {
        Seconds latest = 0.0;
        for (Pool &p : pools_) {
            expand(p);
            Seconds pool_latest = 0.0;
            for (std::uint32_t i = 0; i < p.size; ++i)
                pool_latest = std::max(pool_latest, busy_until_[p.first + i]);
            latest = std::max(latest, pool_latest);
        }
        const Seconds horizon = std::max(tail_end, latest);
        out.resource_utilization.reserve(resource_pools_);
        out.unit_utilization.reserve(pools_.size() - resource_pools_);
        for (std::size_t k = 0; k < pools_.size(); ++k) {
            const Pool &p = pools_[k];
            double sum = 0.0;
            for (std::uint32_t i = 0; i < p.size; ++i)
                sum += utilization(p, i, horizon);
            auto &into = k < resource_pools_ ? out.resource_utilization
                                             : out.unit_utilization;
            into.emplace_back(p.name, sum / static_cast<double>(p.size));
        }
    }

  private:
    static std::string instanceName(const Pool &p, std::uint32_t i)
    {
        return std::string(p.name) + "[" + std::to_string(i) + "]";
    }

    /** BandwidthResource::utilization of instance `i` of `p`. */
    double utilization(const Pool &p, std::uint32_t i, Seconds horizon) const
    {
        if (horizon <= 0.0)
            return 0.0;
        const std::uint32_t s = p.first + i;
        const double util = busy_time_[s] / horizon;
        HILOS_ASSERT(util <= 1.0 + 1e-9, "utilization of '",
                     instanceName(p, i), "' exceeds 1: busy ", busy_time_[s],
                     " s over horizon ", horizon, " s (busy until ",
                     busy_until_[s], " s); query after the window completes");
        return util;
    }

    std::vector<Pool> pools_;
    std::size_t resource_pools_ = 0;  ///< pools_[0, this) are resources
    std::array<std::uint32_t, kResourceKinds> resource_pool_{};
    std::array<std::uint32_t, kUnitKinds> unit_pool_{};
    std::vector<Seconds> busy_until_;
    std::vector<Seconds> busy_time_;
};

/** How a layer op takes part in the replay. */
enum class Role : std::uint8_t {
    Offline,  ///< skipped; finishes at 0
    Delay,    ///< shadow op or op on no pool: ready + seconds
    Pooled,   ///< occupies `fanout` instances of its pool
};

/** A layer op resolved once, before the layer loop. */
struct ResolvedOp {
    Role role = Role::Delay;
    bool prefetch = false;
    /**
     * Pooled: the replicas cover every instance of the pool equally
     * (fanout a multiple of the instance count) or last zero time and
     * so change nothing. On a symmetric pool the op then occupies the
     * representative `rep_occupies` times, each standing for
     * `rep_replicas` replicas.
     */
    bool collapsible = false;
    Seconds seconds = 0;
    std::span<const std::uint32_t> deps;
    std::uint32_t pool = kNoPool;
    std::uint64_t fanout = 1;
    std::uint64_t rep_occupies = 0;
    std::uint64_t rep_replicas = 0;
    std::string_view label;
};

}  // namespace

PlanSimResult
simulatePlan(const StepPlan &plan, TraceRecorder *trace)
{
    HILOS_ASSERT(plan.feasible, "cannot replay an infeasible plan: ",
                 plan.note);
    HILOS_ASSERT(plan.layers >= 1, "plan has no layers");
    PlanTimelines lines(plan);
    const std::vector<std::string> names =
        trace != nullptr ? lines.slotNames() : std::vector<std::string>();
    PlanSimResult out;
    out.layer_times.reserve(plan.layers);

    const std::size_t n = plan.layer_ops.size();
    std::vector<ResolvedOp> ops(n);
    for (std::size_t i = 0; i < n; ++i) {
        const StepOpView op = plan.layer_ops[i];
        ResolvedOp &r = ops[i];
        r.prefetch = op.prefetch;
        r.seconds = op.seconds;
        r.deps = op.deps;
        r.fanout = op.fanout;
        r.label = op.label;
        r.pool = op.shadow ? kNoPool : lines.poolOf(op);
        r.role = op.offline           ? Role::Offline
                 : r.pool == kNoPool ? Role::Delay
                                     : Role::Pooled;
        if (r.role != Role::Pooled)
            continue;
        if (r.fanout > 0)
            HILOS_ASSERT(r.seconds >= 0.0, "negative stall duration");
        const std::uint64_t size = lines.pool(r.pool).size;
        const bool zero = r.seconds == 0.0;
        r.collapsible = zero || r.fanout % size == 0;
        r.rep_occupies =
            zero ? std::min<std::uint64_t>(r.fanout, 1) : r.fanout / size;
        r.rep_replicas = zero ? r.fanout : size;
    }

    std::vector<Seconds> finish(n, 0.0);
    std::string label;  // trace span name, built only when tracing
    Seconds layer_start = 0.0;
    Seconds prev_layer_start = 0.0;
    for (std::uint64_t l = 0; l < plan.layers; ++l) {
        Seconds layer_end = layer_start;
        for (std::size_t i = 0; i < n; ++i) {
            const ResolvedOp &op = ops[i];
            if (op.role == Role::Offline) {
                finish[i] = 0.0;
                continue;
            }
            Seconds ready = op.prefetch ? prev_layer_start : layer_start;
            for (const std::size_t d : op.deps)
                ready = std::max(ready, finish[d]);
            if (op.role == Role::Delay) {
                finish[i] = ready + op.seconds;
                layer_end = std::max(layer_end, finish[i]);
                continue;
            }
            // Replica k occupies instance k % size from `ready`. On a
            // symmetric pool a collapsible op would run the same IEEE
            // operations on every instance, so the representative
            // stands for all of them.
            Pool &pool = lines.pool(op.pool);
            const bool collapse = pool.symmetric && op.collapsible;
            if (!collapse)
                lines.expand(pool);
            const std::uint64_t occupies =
                collapse ? op.rep_occupies : op.fanout;
            const std::uint64_t per = collapse ? op.rep_replicas : 1;
            if (trace != nullptr)
                label = "layer" + std::to_string(l) + "/" +
                        std::string(op.label);
            Seconds done = ready;
            std::uint32_t slot = 0;   // instance the next occupy lands on
            std::uint32_t track = 0;  // instance of the next traced replica
            for (std::uint64_t k = 0; k < occupies; ++k) {
                const Seconds end =
                    lines.occupy(pool.first + slot, ready, op.seconds);
                if (!collapse && ++slot == pool.size)
                    slot = 0;
                done = std::max(done, end);
                if (trace == nullptr)
                    continue;
                for (std::uint64_t r = 0; r < per; ++r) {
                    trace->record(names[pool.first + track], label,
                                  end - op.seconds, end);
                    if (++track == pool.size)
                        track = 0;
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
        const std::uint32_t p = lines.poolOf(op);
        const Seconds begin = tail_end;
        if (p != kNoPool) {
            Pool &pool = lines.pool(p);
            lines.expand(pool);
            HILOS_ASSERT(op.seconds >= 0.0, "negative stall duration");
            tail_end = lines.occupy(pool.first, tail_end, op.seconds);
        } else {
            tail_end = tail_end + op.seconds;
        }
        if (trace != nullptr)
            trace->record(p != kNoPool ? names[lines.pool(p).first]
                                       : std::string("delay"),
                          "tail/" + std::string(op.label), begin, tail_end);
    }

    HILOS_ASSERT(plan.layer_time_divisor > 0.0,
                 "non-positive layer_time_divisor");
    out.decode_step_time = out.layered_end / plan.layer_time_divisor +
                           (tail_end - out.layered_end);

    // Utilisations over the pre-divisor timeline.
    lines.fillUtilization(tail_end, out);
    return out;
}

}  // namespace hilos

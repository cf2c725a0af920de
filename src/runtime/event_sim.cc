#include "runtime/event_sim.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/logging.h"

namespace hilos {

namespace {

constexpr std::uint32_t kNoPool = ~0u;
constexpr std::size_t kResourceKinds =
    static_cast<std::size_t>(PlanResource::InterNode) + 1;
constexpr std::size_t kUnitKinds =
    static_cast<std::size_t>(ComputeUnit::Fpga) + 1;

/**
 * std::max of two times, returned by value: the same `a < b ? b : a`.
 * std::max returns a reference, so in the replay loop g++ stores its
 * operand to the stack and loads the result back through a selected
 * address instead of using one max instruction.
 */
inline Seconds
later(Seconds a, Seconds b)
{
    return a < b ? b : a;
}

/**
 * One resource instance: its busy horizon and its accumulated busy
 * time, the state of a BandwidthResource that only ever occupies.
 */
struct Slot {
    Seconds busy_until = 0;
    Seconds busy_time = 0;
};

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
    /** Some op that is not offline names this pool. */
    bool used = false;
};

/**
 * The timelines a plan replay runs over: one pool per transfer
 * resource kind (with the plan's declared instance count) and one
 * single-instance pool per compute unit, at fixed positions in
 * PlanResource then ComputeUnit order, so an op's pool is known from
 * its kind alone. Each instance is one Slot of a flat vector. Only the
 * pools some op marks used take part in the utilisation vectors; the
 * slots of the others stay idle.
 */
class PlanTimelines
{
  public:
    /** Lay out the pools of `plan`, none of them used yet. */
    void reset(const StepPlan &plan)
    {
        std::uint32_t slots = 0;
        const auto lay = [&](std::size_t p, const char *name,
                             std::uint32_t instances) {
            pools_[p] = Pool{name, slots, instances, true, false};
            slots += instances;
        };
        // PlanResource::None and ComputeUnit::None are no pool at all.
        lay(0, planResourceName(PlanResource::None), 0);
        for (std::size_t r = 1; r < kResourceKinds; ++r) {
            const auto kind = static_cast<PlanResource>(r);
            lay(r, planResourceName(kind), plan.instancesOf(kind));
        }
        lay(kResourceKinds, computeUnitName(ComputeUnit::None), 0);
        for (std::size_t u = 1; u < kUnitKinds; ++u)
            lay(kResourceKinds + u,
                computeUnitName(static_cast<ComputeUnit>(u)), 1);
        slots_.assign(slots, Slot{});
    }

    /** The pool `op` names, or kNoPool for a pure delay. */
    static std::uint32_t poolOf(const StepOpView &op)
    {
        if (op.op_kind == StepOp::Kind::Transfer)
            return op.resource == PlanResource::None
                       ? kNoPool
                       : static_cast<std::uint32_t>(op.resource);
        return op.unit == ComputeUnit::None
                   ? kNoPool
                   : static_cast<std::uint32_t>(kResourceKinds +
                                                static_cast<std::size_t>(
                                                    op.unit));
    }

    /** Mark pool `p` used (a no-op for kNoPool); returns `p`. */
    std::uint32_t use(std::uint32_t p)
    {
        if (p == kNoPool)
            return p;
        Pool &pool = pools_[p];
        HILOS_ASSERT(pool.size >= 1, "pool '", pool.name,
                     "' needs at least one instance");
        pool.used = true;
        return p;
    }

    Pool &pool(std::uint32_t p) { return pools_[p]; }

    /** Copy a symmetric pool's representative out to every instance. */
    void expand(Pool &p)
    {
        if (!p.symmetric)
            return;
        p.symmetric = false;
        std::fill_n(slots_.begin() + p.first + 1, p.size - 1,
                    slots_[p.first]);
    }

    /**
     * BandwidthResource::occupy on slot `s`: busy for `duration` from
     * no earlier than `start`; a zero duration leaves it untouched.
     */
    Seconds occupy(std::uint32_t s, Seconds start, Seconds duration)
    {
        Slot &slot = slots_[s];
        if (duration == 0.0)
            return later(start, slot.busy_until);
        const Seconds end = later(start, slot.busy_until) + duration;
        slot.busy_until = end;
        slot.busy_time += duration;
        return end;
    }

    /** "<pool>[i]", the trace track of every slot. */
    std::vector<std::string> slotNames() const
    {
        std::vector<std::string> names;
        names.reserve(slots_.size());
        for (const Pool &p : pools_)
            for (std::uint32_t i = 0; i < p.size; ++i)
                names.push_back(instanceName(p, i));
        return names;
    }

    /**
     * Expand every used pool, then fill the result's utilisation
     * vectors over the horizon that covers both `tail_end` and every
     * busy span (so the per-instance <= 1 check holds).
     */
    void fillUtilization(Seconds tail_end, PlanSimResult &out)
    {
        Seconds latest = 0.0;
        std::size_t resources = 0;
        std::size_t units = 0;
        for (std::size_t k = 0; k < kPools; ++k) {
            Pool &p = pools_[k];
            if (!p.used)
                continue;
            ++(k < kResourceKinds ? resources : units);
            expand(p);
            Seconds pool_latest = 0.0;
            for (std::uint32_t i = 0; i < p.size; ++i)
                pool_latest =
                    later(pool_latest, slots_[p.first + i].busy_until);
            latest = later(latest, pool_latest);
        }
        const Seconds horizon = later(tail_end, latest);
        out.resource_utilization.reserve(resources);
        out.unit_utilization.reserve(units);
        for (std::size_t k = 0; k < kPools; ++k) {
            const Pool &p = pools_[k];
            if (!p.used)
                continue;
            double sum = 0.0;
            for (std::uint32_t i = 0; i < p.size; ++i)
                sum += utilization(p, i, horizon);
            auto &into = k < kResourceKinds ? out.resource_utilization
                                            : out.unit_utilization;
            into.emplace_back(p.name, sum / static_cast<double>(p.size));
        }
    }

  private:
    static constexpr std::size_t kPools = kResourceKinds + kUnitKinds;

    static std::string instanceName(const Pool &p, std::uint32_t i)
    {
        return std::string(p.name) + "[" + std::to_string(i) + "]";
    }

    /** BandwidthResource::utilization of instance `i` of `p`. */
    double utilization(const Pool &p, std::uint32_t i, Seconds horizon) const
    {
        if (horizon <= 0.0)
            return 0.0;
        const Slot &s = slots_[p.first + i];
        const double util = s.busy_time / horizon;
        HILOS_ASSERT(util <= 1.0 + 1e-9, "utilization of '",
                     instanceName(p, i), "' exceeds 1: busy ", s.busy_time,
                     " s over horizon ", horizon, " s (busy until ",
                     s.busy_until, " s); query after the window completes");
        return util;
    }

    std::array<Pool, kPools> pools_{};
    std::vector<Slot> slots_;
};

/** How a layer op takes part in the replay. */
enum class Role : std::uint8_t {
    Offline,  ///< skipped; finishes at 0
    Delay,    ///< shadow op or op on no pool: ready + seconds
    Pooled,   ///< occupies `fanout` instances of its pool
};

/**
 * A layer op resolved once, before the layer loop: only what the loop
 * reads. Its dependencies are `dep_len` entries from `dep_pos` of the
 * replay's flat dependency array; the traced replay reads the label
 * from the plan.
 */
struct ResolvedOp {
    Seconds seconds = 0;
    std::uint64_t fanout = 1;
    /**
     * Pooled and collapsible (see `collapsible`): on a symmetric pool
     * the op occupies the representative `rep_occupies` times, each
     * standing for `rep_replicas` replicas.
     */
    std::uint64_t rep_occupies = 0;
    std::uint64_t rep_replicas = 0;
    std::uint32_t pool = kNoPool;
    std::uint32_t dep_pos = 0;
    std::uint32_t dep_len = 0;
    Role role = Role::Delay;
    bool prefetch = false;
    /**
     * Pooled: the replicas cover every instance of the pool equally
     * (fanout a multiple of the instance count) or last zero time and
     * so change nothing.
     */
    bool collapsible = false;
};

/**
 * What a replay works in besides its result, kept per thread: a warm
 * call reuses the capacity the previous call on this thread left, so
 * it allocates only the vectors it returns.
 */
struct ReplayScratch {
    PlanTimelines lines;
    std::vector<ResolvedOp> ops;     ///< indexed like plan.layer_ops
    std::vector<std::uint32_t> deps; ///< every op's deps, back to back
    std::vector<Seconds> finish;     ///< per op, in the current layer
};

/**
 * Lay out the timelines of `plan` and resolve its layer ops in one
 * walk, marking each pool an op that is not offline names as used
 * (shadow ops too: they occupy nothing, but their pool still reports
 * a utilisation); the tail ops then mark theirs.
 */
void
resolve(const StepPlan &plan, ReplayScratch &s)
{
    PlanTimelines &lines = s.lines;
    lines.reset(plan);
    const std::size_t n = plan.layer_ops.size();
    s.ops.assign(n, ResolvedOp{});
    s.deps.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const StepOpView op = plan.layer_ops[i];
        ResolvedOp &r = s.ops[i];
        r.prefetch = op.prefetch;
        r.seconds = op.seconds;
        r.dep_pos = static_cast<std::uint32_t>(s.deps.size());
        r.dep_len = static_cast<std::uint32_t>(op.deps.size());
        s.deps.insert(s.deps.end(), op.deps.begin(), op.deps.end());
        r.fanout = op.fanout;
        if (op.offline) {
            r.role = Role::Offline;
            continue;
        }
        const std::uint32_t pool = lines.use(PlanTimelines::poolOf(op));
        r.pool = op.shadow ? kNoPool : pool;
        r.role = r.pool == kNoPool ? Role::Delay : Role::Pooled;
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
    for (const StepOpView op : plan.tail_ops)
        if (!op.offline)
            lines.use(PlanTimelines::poolOf(op));
    s.finish.assign(n, 0.0);
}

/** The untraced replay's recorder: records nothing. */
struct NoRecorder {
    static constexpr bool kTracing = false;
};

/**
 * The traced replay's recorder: writes every replica's busy interval to
 * the "<pool>[i]" track of its slot, named "layer<l>/<label>", and every
 * tail op's interval named "tail/<label>" (on track "delay" when it
 * occupies no pool).
 */
class TraceSink
{
  public:
    static constexpr bool kTracing = true;

    TraceSink(TraceRecorder &rec, const StepPlan &plan,
              const PlanTimelines &lines)
        : rec_(rec), plan_(plan), names_(lines.slotNames())
    {
    }

    /** Name the spans of op `i` in layer `l`. */
    void beginOp(std::uint64_t l, std::size_t i)
    {
        label_ = "layer" + std::to_string(l) + "/" +
                 std::string(plan_.layer_ops[i].label);
    }

    /** One replica on `slot`. */
    void replica(std::uint32_t slot, Seconds begin, Seconds end)
    {
        rec_.record(names_[slot], label_, begin, end);
    }

    /**
     * `count` replicas of one collapsed occupy, on instances 0, 1, ...
     * of `pool`, wrapping at its size. A collapsed op's occupies each
     * stand for `size` replicas or it has at most one, so every occupy
     * starts again at instance 0.
     */
    void replicas(const Pool &pool, std::uint64_t count, Seconds begin,
                  Seconds end)
    {
        std::uint32_t i = 0;
        for (std::uint64_t r = 0; r < count; ++r) {
            replica(pool.first + i, begin, end);
            if (++i == pool.size)
                i = 0;
        }
    }

    /** A tail op on `slot`, or on no pool when `slot` is kNoPool. */
    void tail(std::uint32_t slot, std::string_view label, Seconds begin,
              Seconds end)
    {
        rec_.record(slot != kNoPool ? names_[slot] : std::string("delay"),
                    "tail/" + std::string(label), begin, end);
    }

  private:
    TraceRecorder &rec_;
    const StepPlan &plan_;
    std::vector<std::string> names_;
    std::string label_;
};

/**
 * The one replay body. `Recorder` is NoRecorder or TraceSink; every
 * trace statement sits behind `if constexpr`, so the untraced
 * instantiation's layer loop does no trace work at all.
 */
template <typename Recorder>
PlanSimResult
replay(const StepPlan &plan, ReplayScratch &s, Recorder &rec)
{
    PlanSimResult out;
    out.layer_times.reserve(plan.layers);

    PlanTimelines &lines = s.lines;
    const std::size_t n = s.ops.size();
    const ResolvedOp *const ops = s.ops.data();
    const std::uint32_t *const deps = s.deps.data();
    Seconds *const finish = s.finish.data();
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
            const std::uint32_t dep_end = op.dep_pos + op.dep_len;
            for (std::uint32_t d = op.dep_pos; d < dep_end; ++d)
                ready = later(ready, finish[deps[d]]);
            if (op.role == Role::Delay) {
                finish[i] = ready + op.seconds;
                layer_end = later(layer_end, finish[i]);
                continue;
            }
            if constexpr (Recorder::kTracing)
                rec.beginOp(l, i);
            // Replica k occupies instance k % size from `ready`.
            Pool &pool = lines.pool(op.pool);
            Seconds done = ready;
            if (pool.symmetric && op.collapsible) {
                // Every instance would run the same IEEE operations, so
                // the representative stands for all of them.
                for (std::uint64_t k = 0; k < op.rep_occupies; ++k) {
                    const Seconds end =
                        lines.occupy(pool.first, ready, op.seconds);
                    done = later(done, end);
                    if constexpr (Recorder::kTracing)
                        rec.replicas(pool, op.rep_replicas, end - op.seconds,
                                     end);
                }
            } else {
                lines.expand(pool);
                const std::uint32_t last = pool.first + pool.size - 1;
                std::uint32_t slot = pool.first;
                for (std::uint64_t k = 0; k < op.fanout; ++k) {
                    const Seconds end = lines.occupy(slot, ready, op.seconds);
                    done = later(done, end);
                    if constexpr (Recorder::kTracing)
                        rec.replica(slot, end - op.seconds, end);
                    slot = slot == last ? pool.first : slot + 1;
                }
            }
            finish[i] = done;
            layer_end = later(layer_end, done);
        }
        if (l == 0)
            out.first_layer_finish = s.finish;
        out.layer_times.push_back(layer_end - layer_start);
        prev_layer_start = layer_start;
        layer_start = layer_end;
    }
    out.layered_end = layer_start;

    Seconds tail_end = out.layered_end;
    for (const StepOpView op : plan.tail_ops) {
        // An offline tail op is timed on its pool only if another op
        // uses that pool.
        const std::uint32_t p = PlanTimelines::poolOf(op);
        const Seconds begin = tail_end;
        std::uint32_t slot = kNoPool;
        if (p != kNoPool && lines.pool(p).used) {
            Pool &pool = lines.pool(p);
            lines.expand(pool);
            HILOS_ASSERT(op.seconds >= 0.0, "negative stall duration");
            slot = pool.first;
            tail_end = lines.occupy(slot, tail_end, op.seconds);
        } else {
            tail_end = tail_end + op.seconds;
        }
        if constexpr (Recorder::kTracing)
            rec.tail(slot, op.label, begin, tail_end);
    }

    HILOS_ASSERT(plan.layer_time_divisor > 0.0,
                 "non-positive layer_time_divisor");
    out.decode_step_time = out.layered_end / plan.layer_time_divisor +
                           (tail_end - out.layered_end);

    // Utilisations over the pre-divisor timeline.
    lines.fillUtilization(tail_end, out);
    return out;
}

}  // namespace

PlanSimResult
simulatePlan(const StepPlan &plan, TraceRecorder *trace)
{
    HILOS_ASSERT(plan.feasible, "cannot replay an infeasible plan: ",
                 plan.note);
    HILOS_ASSERT(plan.layers >= 1, "plan has no layers");
    thread_local ReplayScratch scratch;
    resolve(plan, scratch);
    if (trace == nullptr) {
        NoRecorder none;
        return replay(plan, scratch, none);
    }
    TraceSink sink(*trace, plan, scratch.lines);
    return replay(plan, scratch, sink);
}

}  // namespace hilos

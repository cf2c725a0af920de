#include "runtime/serving.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "runtime/plan_cache.h"
#include "runtime/step_plan.h"

namespace hilos {

namespace {

/** Exact (batch, padded context) key of a decode-step cost. */
struct StepKey {
    std::uint64_t batch = 0;
    std::uint64_t context = 0;
    bool operator==(const StepKey &) const = default;
};

/** Exact (batch, padded prompt, chunk index, chunk count) key. */
struct ChunkKey {
    std::uint64_t batch = 0;
    std::uint64_t context = 0;
    std::uint64_t index = 0;
    std::uint64_t count = 0;
    bool operator==(const ChunkKey &) const = default;
};

/** Hash of the exact cost keys: each field through a 64-bit mix. */
struct CostKeyHash {
    static std::uint64_t
    mix(std::uint64_t h, std::uint64_t v)
    {
        h = (h ^ v) * 0x9e3779b97f4a7c15ull;
        return h ^ (h >> 32);
    }
    std::size_t operator()(std::uint64_t k) const { return mix(0, k); }
    std::size_t
    operator()(const StepKey &k) const
    {
        return mix(mix(0, k.batch), k.context);
    }
    std::size_t
    operator()(const ChunkKey &k) const
    {
        return mix(mix(mix(mix(0, k.batch), k.context), k.index), k.count);
    }
};

/**
 * Open-addressing hash table of step costs under exact keys: linear
 * probing over a power-of-two slot array kept at most half full, so a
 * hit is one multiply-mix, one mask and usually one compare, with no
 * bucket division and no node to chase. A run holds a few dozen keys
 * and looks them up tens of thousands of times. Never erases.
 */
template <typename Key, typename Value>
class CostTable
{
  public:
    /** The cached value, or null. */
    const Value *
    find(const Key &key) const
    {
        if (slots_.empty())
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            const Slot &slot = slots_[i];
            if (!slot.used)
                return nullptr;
            if (slot.key == key)
                return &slot.value;
        }
    }

    /** Add a key that find() did not return. */
    void
    insert(const Key &key, const Value &value)
    {
        if (2 * (size_ + 1) > slots_.size())
            grow();
        place(Slot{key, value, true});
        size_++;
    }

  private:
    struct Slot {
        Key key{};
        Value value{};
        bool used = false;
    };

    std::size_t mask() const { return slots_.size() - 1; }
    std::size_t
    home(const Key &key) const
    {
        return CostKeyHash{}(key) & mask();
    }

    void
    place(const Slot &entry)
    {
        std::size_t i = home(entry.key);
        while (slots_[i].used)
            i = (i + 1) & mask();
        slots_[i] = entry;
    }

    void
    grow()
    {
        std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
        old.swap(slots_);
        for (const Slot &slot : old)
            if (slot.used)
                place(slot);
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

/**
 * Cached per-step cost oracle over one engine, for one run. Decode
 * steps and prefill chunks are costed through the engine's StepPlans,
 * rebuilt in place in a per-run PlanCache (a miss after the first
 * rewrites only the priced annotations of that phase's entry) and
 * evaluated into one reused PlanEvaluation; capacity comes from
 * runCached() over the same cache, bit-identical to run(). Costs live
 * in hashed tables under exact keys. Context keys are already
 * bucket-padded by the caller, so the tables stay small even for long
 * generations.
 */
class StepCostModel
{
  public:
    StepCostModel(const InferenceEngine &engine, const ServingConfig &cfg)
        : engine_(engine), cfg_(cfg)
    {
    }

    /**
     * Engine batch capacity at a padded context (0 = unserveable). The
     * capacity run is always at the configured batch cap, so the
     * context alone is its exact key.
     */
    std::uint64_t
    capacity(std::uint64_t context)
    {
        if (const std::uint64_t *cached = capacity_.find(context)) {
            hits++;
            return *cached;
        }
        misses++;
        const RunResult r =
            engine_.runCached(runConfig(cfg_.max_batch, context), plans_);
        const std::uint64_t batch = r.feasible ? r.effective_batch : 0;
        capacity_.insert(context, batch);
        return batch;
    }

    /** One decode step of `batch` requests at a padded context. */
    Seconds
    stepTime(std::uint64_t batch, std::uint64_t context)
    {
        const StepKey key{batch, context};
        if (const Seconds *cached = step_.find(key)) {
            hits++;
            return *cached;
        }
        misses++;
        const StepPlan &plan =
            engine_.decodeStepPlan(runConfig(batch, context), plans_);
        HILOS_ASSERT(plan.feasible,
                     "decode plan infeasible at admitted batch ", batch,
                     " context ", context, ": ", plan.note);
        evaluatePlan(plan, ev_);
        step_.insert(key, ev_.decode_step_time);
        return ev_.decode_step_time;
    }

    /**
     * One prefill chunk (`index` of `count`) of a group of `batch`
     * prompts at a padded prompt length, from the engine's Prefill-phase
     * plan. A one-chunk group is the monolithic prefill, which that
     * plan prices as run() does.
     */
    Seconds
    prefillChunkTime(std::uint64_t batch, std::uint64_t context,
                     std::uint64_t index, std::uint64_t count)
    {
        const ChunkKey key{batch, context, index, count};
        if (const Seconds *cached = chunk_.find(key)) {
            hits++;
            return *cached;
        }
        misses++;
        RunConfig run = runConfig(batch, context);
        run.prefill_chunks = count;
        const StepPlan &plan =
            engine_.prefillStepPlan(run, index, count, plans_);
        HILOS_ASSERT(plan.feasible,
                     "prefill plan infeasible at admitted batch ", batch,
                     " context ", context, ": ", plan.note);
        evaluatePlan(plan, ev_);
        chunk_.insert(key, ev_.decode_step_time);
        return ev_.decode_step_time;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    RunConfig
    runConfig(std::uint64_t batch, std::uint64_t context) const
    {
        RunConfig run;
        run.model = cfg_.model;
        run.batch = batch;
        run.context_len = context;
        run.output_len = 1;  // cost one step, not a whole generation
        return run;
    }

    const InferenceEngine &engine_;
    const ServingConfig &cfg_;
    PlanCache plans_;
    PlanEvaluation ev_;
    CostTable<std::uint64_t, std::uint64_t> capacity_;
    CostTable<StepKey, Seconds> step_;
    CostTable<ChunkKey, Seconds> chunk_;
};

/**
 * Queue-depth curve from two time-ordered id sequences: `arrivals` by
 * arrival time and `admissions` by admission time. Each arrival is a +1
 * edge and each admission a -1 edge, so the curve is one linear merge.
 */
void
fillQueueDepth(const std::vector<RequestRecord> &records,
               const std::vector<std::size_t> &arrivals,
               const std::vector<std::size_t> &admissions,
               ServingResult &res)
{
    const auto arrival = [&](std::size_t i) {
        return records[arrivals[i]].arrival.value();
    };
    const auto admitted = [&](std::size_t i) {
        return records[admissions[i]].admitted.value();
    };
    std::size_t a = 0;
    std::size_t d = 0;
    std::uint64_t depth = 0;
    double last = -std::numeric_limits<double>::infinity();
    while (a < arrivals.size() || d < admissions.size()) {
        double when = std::numeric_limits<double>::infinity();
        if (a < arrivals.size())
            when = arrival(a);
        if (d < admissions.size())
            when = std::min(when, admitted(d));
        // With both sequences in time order the merged times rise
        // strictly; a step back or a stall means one was not.
        HILOS_ASSERT(when > last, "queue-depth edge at ", when,
                     " is out of time order");
        last = when;
        // Arrivals first at equal times so a request admitted the
        // instant it arrives still counts toward the peak (it was
        // pending when the admission decision ran).
        for (; a < arrivals.size() && arrival(a) == when; a++)
            depth++;
        res.peak_queue_depth = std::max(res.peak_queue_depth, depth);
        for (; d < admissions.size() && admitted(d) == when; d++)
            depth--;
        res.queue_depth.push_back(QueueDepthSample{Seconds(when), depth});
    }
}

}  // namespace

ServingSimulator::ServingSimulator(const InferenceEngine &engine,
                                   ServingConfig cfg)
    : engine_(engine), cfg_(std::move(cfg))
{
    HILOS_ASSERT(cfg_.max_batch >= 1, "batch capacity must be >= 1");
    HILOS_ASSERT(cfg_.bucket_quantum >= 1, "bucket quantum must be >= 1");
    HILOS_ASSERT(cfg_.slo >= 0.0, "negative SLO: ", cfg_.slo);
    HILOS_ASSERT(cfg_.prefill_chunks >= 1, "prefill chunks must be >= 1");
}

ServingResult
ServingSimulator::run(const std::vector<Request> &requests) const
{
    HILOS_ASSERT(!requests.empty(), "nothing to serve");
    ServingResult res;
    res.requests = requests.size();
    StepCostModel cost(engine_, cfg_);

    res.records.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); i++) {
        const Request &r = requests[i];
        HILOS_ASSERT(r.output_tokens >= 1, "request ", i,
                     " generates no tokens");
        HILOS_ASSERT(r.arrival >= 0.0, "request ", i,
                     " arrives in the past: ", r.arrival);
        RequestRecord rec;
        rec.id = i;
        rec.cls = r.cls;
        rec.input_tokens = std::max<std::uint64_t>(r.input_tokens, 1);
        rec.output_tokens = r.output_tokens;
        rec.arrival = r.arrival;
        res.records.push_back(rec);
    }

    // A request's context grows to input + output tokens over its
    // lifetime; admission reserves capacity at that padded peak so the
    // in-flight batch never outgrows the engine mid-generation.
    std::vector<std::uint64_t> lifetime_ctx(res.records.size());
    for (const RequestRecord &rec : res.records) {
        lifetime_ctx[rec.id] = roundUp(rec.input_tokens + rec.output_tokens,
                                       cfg_.bucket_quantum);
        if (cost.capacity(lifetime_ctx[rec.id]) == 0) {
            std::ostringstream oss;
            oss << "request " << rec.id << " (context "
                << rec.input_tokens + rec.output_tokens
                << ") does not fit " << engine_.name() << " even alone";
            res.feasible = false;
            res.note = oss.str();
            return res;
        }
    }

    // Arrivals in (arrival, id) order: a cursor hands each request to
    // the pending queue once the clock reaches its arrival time. Streams
    // are usually submitted in arrival order already (the Poisson
    // generator and the trace parser both emit one), and then the
    // identity is that order; only an out-of-order stream is sorted.
    std::vector<std::size_t> arrivals(res.records.size());
    std::iota(arrivals.begin(), arrivals.end(), std::size_t{0});
    const auto arrives_before = [&](std::size_t a, std::size_t b) {
        return res.records[a].arrival < res.records[b].arrival;
    };
    if (!std::is_sorted(arrivals.begin(), arrivals.end(), arrives_before))
        std::stable_sort(arrivals.begin(), arrivals.end(), arrives_before);
    std::size_t next_arrival = 0;

    // Pending requests, kept in admission order. Since admission never
    // leapfrogs, every admitted group is a prefix of that order. Under
    // FCFS the order is the (arrival, id) order of `arrivals`, so the
    // pending queue is the slice arrivals[fcfs_head, next_arrival) and
    // an admitted group just moves fcfs_head. SJF and SLO keep a binary
    // heap whose top admits first: admitsBefore is a total order, so
    // popping while the top fits admits the same prefix an ordered
    // container would, with no allocation per arrival.
    const bool fcfs = cfg_.policy == ServingPolicy::Fcfs;
    std::size_t fcfs_head = 0;
    const auto admitted_later = [policy = cfg_.policy](
                                    const AdmissionCandidate &a,
                                    const AdmissionCandidate &b) {
        return admitsBefore(policy, b, a);
    };
    std::vector<AdmissionCandidate> pending;
    const auto anyPending = [&] {
        return fcfs ? fcfs_head < next_arrival : !pending.empty();
    };
    Seconds now = 0.0;
    const auto arriveUntil = [&](Seconds t) {
        for (; next_arrival < arrivals.size(); next_arrival++) {
            const RequestRecord &rec = res.records[arrivals[next_arrival]];
            if (rec.arrival > t)
                break;
            if (fcfs)
                continue;
            AdmissionCandidate c;
            c.id = rec.id;
            c.arrival = rec.arrival;
            c.input_tokens = rec.input_tokens;
            c.output_tokens = rec.output_tokens;
            c.deadline = rec.arrival + cfg_.slo;
            pending.push_back(c);
            std::push_heap(pending.begin(), pending.end(), admitted_later);
        }
    };

    struct InFlight {
        std::size_t id = 0;
        std::uint64_t input_tokens = 0;
        std::uint64_t output_tokens = 0;
        std::uint64_t generated = 0;
    };
    std::vector<InFlight> flight;
    // Ids in admission order; admission times never decrease along it,
    // so the queue-depth curve merges it with the arrival order.
    std::vector<std::size_t> admissions;
    admissions.reserve(res.records.size());
    // Admitted groups whose prefill has not finished: the first chunk
    // was charged at admission; later chunks run one per loop turn,
    // yielding to (and overlapping) the decode batch. Requests join
    // the decode flight only after the last chunk. A group is the
    // slice [first, last) of `admissions`.
    struct PrefillGroup {
        std::size_t first = 0;
        std::size_t last = 0;
        std::uint64_t prompt_ctx = 0;   ///< padded longest prompt
        std::uint64_t chunks = 1;       ///< at most prompt_ctx
        std::uint64_t next_chunk = 1;   ///< chunk 0 ran at admission
    };
    std::deque<PrefillGroup> prefilling;
    const auto join = [&](const PrefillGroup &g) {
        for (std::size_t i = g.first; i < g.last; i++) {
            const RequestRecord &rec = res.records[admissions[i]];
            flight.push_back(
                InFlight{rec.id, rec.input_tokens, rec.output_tokens, 0});
        }
    };
    const auto prefillingCount = [&prefilling] {
        std::size_t n = 0;
        for (const PrefillGroup &g : prefilling)
            n += g.last - g.first;
        return n;
    };
    std::uint64_t completed = 0;

    while (completed < res.requests) {
        if (flight.empty() && !anyPending() && prefilling.empty()) {
            // Idle: jump straight to the next arrival.
            now = res.records[arrivals[next_arrival]].arrival;
            arriveUntil(now);
            continue;
        }

        // Admission at the step boundary: walk the pending set in
        // policy order and admit greedily without leapfrogging — the
        // first request that does not fit blocks the rest, so FCFS
        // cannot starve anyone. Requests still mid-prefill hold their
        // batch and capacity reservations (their KV is materializing).
        const std::size_t busy = flight.size() + prefillingCount();
        if (anyPending() && busy < cfg_.max_batch) {
            std::uint64_t flight_ctx = 0;
            for (const InFlight &f : flight)
                flight_ctx = std::max(flight_ctx, lifetime_ctx[f.id]);
            for (const PrefillGroup &g : prefilling)
                for (std::size_t i = g.first; i < g.last; i++)
                    flight_ctx =
                        std::max(flight_ctx, lifetime_ctx[admissions[i]]);

            // Admit request `id`, the front of the queue, if it fits;
            // false stops admission.
            const std::size_t first = admissions.size();
            const auto admit = [&](std::size_t id) {
                const std::size_t committed =
                    busy + admissions.size() - first;
                if (committed >= cfg_.max_batch)
                    return false;
                const std::uint64_t ctx =
                    std::max(flight_ctx, lifetime_ctx[id]);
                if (cost.capacity(ctx) < committed + 1)
                    return false;
                flight_ctx = ctx;
                res.records[id].admitted = now;
                admissions.push_back(id);
                return true;
            };
            if (fcfs) {
                while (fcfs_head < next_arrival &&
                       admit(arrivals[fcfs_head]))
                    fcfs_head++;
            } else {
                while (!pending.empty() && admit(pending.front().id)) {
                    std::pop_heap(pending.begin(), pending.end(),
                                  admitted_later);
                    pending.pop_back();
                }
            }
            if (admissions.size() > first) {
                // The newly admitted group's first prefill chunk runs
                // at admission, padded to its longest prompt; at one
                // chunk that is the whole prefill and the group enters
                // the decode flight immediately. A group never splits
                // into more chunks than its padded prompt has tokens,
                // the offline rule (chunks <= context).
                std::uint64_t prompt = 0;
                for (std::size_t i = first; i < admissions.size(); i++)
                    prompt = std::max(prompt,
                                      res.records[admissions[i]].input_tokens);
                PrefillGroup g;
                g.first = first;
                g.last = admissions.size();
                g.prompt_ctx = roundUp(prompt, cfg_.bucket_quantum);
                g.chunks = std::min(cfg_.prefill_chunks, g.prompt_ctx);
                const Seconds chunk0 = cost.prefillChunkTime(
                    g.last - g.first, g.prompt_ctx, 0, g.chunks);
                now = now + chunk0;
                arriveUntil(now);
                res.prefill_batches++;
                res.prefill_chunks_run++;
                if (g.chunks == 1)
                    join(g);
                else
                    prefilling.push_back(g);
            }
        }
        if (flight.empty() && prefilling.empty())
            continue;

        // Decode runs at priority: when a group is mid-prefill, its
        // next chunk is preempted onto the host GPU under the decode
        // step (decode attention is fleet-bound, prefill compute
        // host-bound), so that turn costs the slower of the two.
        Seconds chunk = 0.0;
        if (!prefilling.empty()) {
            PrefillGroup &g = prefilling.front();
            chunk = cost.prefillChunkTime(g.last - g.first, g.prompt_ctx,
                                          g.next_chunk, g.chunks);
            g.next_chunk++;
            res.prefill_chunks_run++;
            if (!flight.empty())
                res.prefill_preemptions++;
        }

        // Decode steps for the whole in-flight batch, each costed at
        // the padded longest current context. The turn runs until the
        // next step boundary where the batch can change: the first
        // completion, or (with room in the batch) the first boundary
        // that could admit someone — the next one when requests are
        // already pending, else the first at or after the next
        // arrival. A mid-prefill group changes the batch every step.
        std::uint64_t ctx = 0;
        std::uint64_t max_steps = std::numeric_limits<std::uint64_t>::max();
        for (const InFlight &f : flight) {
            ctx = std::max(ctx, f.input_tokens + f.generated);
            max_steps = std::min(max_steps, f.output_tokens - f.generated);
        }
        const bool room = flight.size() < cfg_.max_batch;
        if (flight.empty() || !prefilling.empty() ||
            (room && anyPending()))
            max_steps = 1;
        const Seconds stop_at =
            room && next_arrival < arrivals.size()
                ? res.records[arrivals[next_arrival]].arrival
                : Seconds(std::numeric_limits<double>::infinity());
        // Within a run the flight is fixed and every context grows by
        // one token per step, so the run splits into segments at the
        // bucket edges the longest context passes: a segment's steps
        // all pad to one edge (the next is one quantum up) and share
        // one step cost, looked up once; the segment's other steps are
        // the cache hits they would have been, counted in one go. The
        // clock still advances one step at a time.
        Seconds first_step_end = 0.0;
        std::uint64_t edge = roundUp(ctx, cfg_.bucket_quantum);
        std::uint64_t steps = 0;
        do {
            Seconds step = 0.0;
            std::uint64_t segment_end = max_steps;
            if (!flight.empty()) {
                step = cost.stepTime(flight.size(), edge);
                // Step s pads to `edge` while ctx + s <= edge.
                segment_end = std::min(max_steps, edge - ctx + 1);
            }
            const Seconds dt = std::max(step, chunk);
            if (steps == 0)
                first_step_end = now + dt;
            const std::uint64_t segment_start = steps;
            do {
                now = now + dt;
                steps++;
            } while (steps < segment_end && now < stop_at);
            if (!flight.empty())
                cost.hits += steps - segment_start - 1;
            edge += cfg_.bucket_quantum;
        } while (steps < max_steps && now < stop_at);
        arriveUntil(now);

        if (!flight.empty()) {
            res.peak_in_flight = std::max<std::uint64_t>(
                res.peak_in_flight, flight.size());
            res.decode_steps += steps;
            std::size_t kept = 0;
            for (InFlight f : flight) {
                if (f.generated == 0)
                    res.records[f.id].first_token = first_step_end;
                f.generated += steps;
                if (f.generated >= f.output_tokens) {
                    res.records[f.id].completed = now;
                    completed++;
                } else {
                    flight[kept++] = f;
                }
            }
            flight.resize(kept);
        }
        if (!prefilling.empty() &&
            prefilling.front().next_chunk >= prefilling.front().chunks) {
            join(prefilling.front());
            prefilling.pop_front();
        }
    }

    // --- metrics ---------------------------------------------------
    double real_generated = 0;
    double residency = 0;  // in-flight request-seconds
    double wait = 0;       // pending-queue request-seconds
    std::vector<double> ttft;
    std::vector<double> e2e;
    ttft.reserve(res.records.size());
    e2e.reserve(res.records.size());
    for (RequestRecord &rec : res.records) {
        res.makespan = std::max(res.makespan, rec.completed);
        real_generated += static_cast<double>(rec.output_tokens);
        residency += rec.completed - rec.admitted;
        wait += rec.queueWait();
        ttft.push_back(rec.ttft().value());
        e2e.push_back(rec.latency().value());
        rec.met_slo = cfg_.slo <= 0.0 || rec.latency() <= cfg_.slo;
        if (rec.met_slo)
            res.slo_met++;
    }
    static constexpr double kTails[] = {0.50, 0.99, 0.999};
    double tail[3];
    exactQuantiles(ttft, kTails, tail);
    res.ttft_p50 = Seconds(tail[0]);
    res.ttft_p99 = Seconds(tail[1]);
    res.ttft_p999 = Seconds(tail[2]);
    exactQuantiles(e2e, kTails, tail);
    res.latency_p50 = Seconds(tail[0]);
    res.latency_p99 = Seconds(tail[1]);
    res.latency_p999 = Seconds(tail[2]);
    res.mean_queue_wait =
        Seconds(wait / static_cast<double>(res.requests));
    res.slo_attainment = static_cast<double>(res.slo_met) /
                         static_cast<double>(res.requests);
    res.goodput_rps =
        static_cast<double>(res.slo_met) / res.makespan;
    res.tokens_per_second = real_generated / res.makespan;
    res.mean_in_flight = residency / res.makespan;
    res.mean_queue_depth = wait / res.makespan;
    res.queue_depth.reserve(arrivals.size() + admissions.size());
    fillQueueDepth(res.records, arrivals, admissions, res);
    res.cost_cache_hits = cost.hits;
    res.cost_cache_misses = cost.misses;
    return res;
}

}  // namespace hilos

/**
 * @file
 * The inference-engine interface all systems implement (FLEX variants,
 * DS+UVM, vLLM multi-GPU, HILOS) and the shared result types benches
 * consume: per-stage breakdowns, interconnect-traffic counters, energy.
 */

#ifndef HILOS_RUNTIME_ENGINE_H_
#define HILOS_RUNTIME_ENGINE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "llm/model_config.h"
#include "runtime/energy.h"

namespace hilos {

/** One offline-inference run request. */
struct RunConfig {
    ModelConfig model;
    std::uint64_t batch = 16;
    std::uint64_t context_len = 32768;  ///< prompt tokens s
    std::uint64_t output_len = 64;      ///< generated tokens n
    /**
     * Number of chunks the prefill phase is split into. 1 (the
     * default) is the monolithic prefill and reproduces the closed-form
     * numbers bit-for-bit; larger values pay the per-chunk weight
     * re-streaming, so chunked prefill is never faster offline — its
     * payoff is serving-side preemptability (see runtime/serving.h).
     */
    std::uint64_t prefill_chunks = 1;
};

/** Interconnect/storage traffic per decoding step (all layers). */
struct TrafficCounters {
    /** Bytes crossing the shared host interconnect, reads into compute. */
    Bytes host_read_bytes = 0;
    /** Bytes crossing the shared host interconnect, writes out. */
    Bytes host_write_bytes = 0;
    /** Attention-related subset of host reads (for the Eq. 3 ratio). */
    Bytes attn_host_read_bytes = 0;
    /** Attention-related subset of host writes. */
    Bytes attn_host_write_bytes = 0;
    /** Bytes moved on NSP-internal P2P paths (never on the host bus). */
    Bytes internal_bytes = 0;
    /** Host bytes written toward NAND (endurance-relevant). */
    Bytes storage_write_bytes = 0;
};

/**
 * Availability/retry/slowdown accounting of one run under an injected
 * FaultPlan. All-zero (any() == false) for zero-fault runs.
 */
struct FaultSummary {
    std::uint64_t nand_read_errors = 0;
    std::uint64_t nand_retry_steps = 0;
    std::uint64_t nvme_timeouts = 0;
    std::uint64_t nvme_retries = 0;
    std::uint64_t redispatched_slices = 0;
    /**
     * Requests whose tokens were delayed by recovery (shard rebuild,
     * host-stall retry) but still completed. Disjoint from
     * requests_failed, so availability is derivable rather than
     * inferred: degraded requests finished late, failed ones never did.
     */
    std::uint64_t requests_degraded = 0;
    /** Requests dropped outright (no surviving capacity to serve them). */
    std::uint64_t requests_failed = 0;
    unsigned devices_failed = 0;
    unsigned devices_surviving = 0;  ///< at end of run (0 = unset)
    Seconds retry_time = 0;          ///< time lost to retry recovery
    Seconds rebuild_time = 0;        ///< shard re-dispatch after failures
    /** Decode step time on the final surviving fleet. */
    Seconds degraded_step_time = 0;
    /** Time-weighted fraction of the fleet that stayed available. */
    double availability = 1.0;
    /** Mean decode-step slowdown vs the zero-fault prediction. */
    double slowdown = 1.0;

    /** True when any fault perturbed the run. */
    bool any() const;
};

/**
 * One constant-condition interval of a fleet run: the placement and
 * step time in force between two host-scope fault events.
 */
struct FleetEpoch {
    Seconds start = 0;            ///< absolute run time the epoch begins
    unsigned hosts_serving = 0;   ///< hosts with placed load
    unsigned hosts_stalled = 0;   ///< hosts paused in a retry window
    unsigned hosts_failed = 0;    ///< cumulative failed hosts so far
    std::uint64_t placed_batch = 0;  ///< requests actively decoding
    Seconds step_time = 0;        ///< fleet decode step during the epoch
    std::uint64_t tokens = 0;     ///< decode tokens generated in the epoch
};

/**
 * Cluster-granularity accounting of one FleetEngine run: per-epoch
 * placement, rebuild traffic, and availability. `hosts == 0` (any() ==
 * false) for single-host runs, so non-fleet results are unchanged.
 */
struct FleetSummary {
    unsigned hosts = 0;             ///< fleet size (0 = not a fleet run)
    unsigned devices_per_host = 0;  ///< SmartSSDs per host
    std::string policy;             ///< placement policy name
    unsigned hosts_failed = 0;      ///< permanently lost (incl. escalated)
    unsigned host_stalls = 0;       ///< transient stalls that recovered
    unsigned spares_activated = 0;  ///< spare hosts promoted to serving
    Bytes rebuild_bytes = 0;        ///< KV/X shards re-homed after losses
    Seconds rebuild_time = 0;       ///< decode paused for shard rebuild
    Seconds stall_time = 0;         ///< retry-ladder time lost to stalls
    /** Token-weighted fraction of the host fleet that stayed serving. */
    double availability = 1.0;
    /** Fleet decode step on the final surviving placement. */
    Seconds degraded_step_time = 0;
    /** Mean fleet decode-step slowdown vs the healthy-fleet prediction. */
    double slowdown = 1.0;
    std::vector<FleetEpoch> epochs;

    /** True when the result came from a fleet run. */
    bool any() const { return hosts > 0; }
};

/** Named per-decoding-step stage times (summed across layers). */
class StageBreakdown
{
  public:
    /** Add (or accumulate into) a named stage. */
    void add(const std::string &name, Seconds t);

    /** Seconds recorded for a stage (0 if absent). */
    Seconds get(const std::string &name) const;

    /** Sum of all stages (>= the critical-path step time with overlap). */
    Seconds sum() const;

    /**
     * Replace the stages with `names[i]` at `secs[i]` (names unique).
     * Each entry keeps its string's storage, so refilling a breakdown
     * with the same stage order overwrites its values in place.
     */
    void assign(std::span<const std::string> names,
                std::span<const Seconds> secs);

    /** Make room for `n` stages, so adding them allocates once. */
    void reserve(std::size_t n) { stages_.reserve(n); }

    /** Drop every stage; keeps capacity. */
    void clear() { stages_.clear(); }

    const std::vector<std::pair<std::string, Seconds>> &stages() const
    {
        return stages_;
    }

  private:
    /** Insertion-ordered entries. Breakdowns hold a handful of stages
     *  (4-9 across every engine), so a linear scan beats hashing each
     *  name on the sweep hot path and drops the side index entirely. */
    std::vector<std::pair<std::string, Seconds>> stages_;
};

/** Result of one engine run. */
struct RunResult {
    bool feasible = true;
    std::string note;  ///< infeasibility reason or batch-shrink note

    std::uint64_t effective_batch = 0;  ///< after capacity shrinking
    Seconds prefill_time = 0;
    Seconds decode_step_time = 0;  ///< one step across all layers
    Seconds total_time = 0;        ///< prefill + output_len * decode step

    /** Decoding throughput: batch / decode_step_time (the Fig. 10 metric). */
    double decodeThroughput() const;
    /** End-to-end generation throughput incl. prefill amortisation. */
    double endToEndThroughput(std::uint64_t output_len) const;

    StageBreakdown breakdown;  ///< per decode step
    TrafficCounters traffic;   ///< per decode step
    ComponentBusy busy;        ///< per decode step
    /**
     * Busy seconds of the whole prefill phase (all chunks), accumulated
     * from the prefill plans' own busy accounting by applyPrefillPlan().
     * Feeds the run-level energy integral in applyPlan(); not part of
     * the canonical serialization (the per-step `busy` and whole-run
     * `energy` fields remain the golden-pinned surface).
     */
    ComponentBusy prefill_busy;
    EnergyBreakdown energy;    ///< whole run
    Watts fpga_power_watts = 0;   ///< per-device, HILOS only
    FaultSummary faults;       ///< availability/retry accounting
    FleetSummary fleet;        ///< cluster accounting, FleetEngine only
};

class ConditionTimeline;
class PlanCache;
struct StepPlan;

/** One constant-condition stretch of a run's decode phase. */
struct DecodeEpoch {
    Seconds start = 0;         ///< run time decode (re)starts at
    Seconds step = 0;          ///< decodeStepPlanAt(cfg, start) evaluated
    std::uint64_t tokens = 0;  ///< decode tokens generated in it
    double weight = 1.0;       ///< tokens / output_len (1 for no decode)
};

/**
 * What the epoch fold hands an engine's summary hook: the decode epochs
 * a run went through (all of them, or those before it became
 * infeasible; valid for the hook call) and the run-level times the
 * fold charged.
 */
struct EpochLog {
    std::span<const DecodeEpoch> epochs;
    /** The healthy decode step (decodeStepPlan evaluated). */
    Seconds healthy_step = 0;
    Seconds rebuild_time = 0;  ///< boundary rebuild plans, summed
    Bytes rebuild_bytes = 0;   ///< bytes their transfer ops moved
    Seconds stall_time = 0;    ///< recovered host stalls before `end`
    Seconds end = 0;           ///< run time the decode phase stopped at
    /**
     * The run's plan cache, for plans the hook builds itself (null:
     * build cold). The fold reads none of its cached plans once the
     * hook is called, so the hook's builds may rebuild any entry.
     */
    PlanCache *cache = nullptr;
};

/**
 * Abstract offline-inference engine. An engine supplies two plan
 * builders (runtime/step_plan.h); the base class turns them into
 * runs, and serving, replay and tracing consume the plans directly.
 */
class InferenceEngine
{
  public:
    virtual ~InferenceEngine() = default;

    /** Display name used in bench tables. */
    virtual std::string name() const = 0;

    /**
     * Build the decode step for `cfg` into `plan` (fresh, or in rebuild
     * mode under a PlanCache), writing the capacity decisions (the
     * effective batch, an infeasibility or batch-shrink note) into
     * `res`. An infeasible configuration yields a plan with
     * feasible == false.
     */
    virtual void buildDecodePlan(const RunConfig &cfg, RunResult &res,
                                 StepPlan &plan) const = 0;

    /**
     * Build the Prefill-phase plan for chunk `chunk_index` of
     * `chunk_count` into `plan`. The monolithic prefill (one chunk)
     * evaluates bit-identically to the engine's historical closed-form
     * prefill_time.
     */
    virtual void buildPrefillPlan(const RunConfig &cfg,
                                  std::uint64_t chunk_index,
                                  std::uint64_t chunk_count,
                                  StepPlan &plan) const = 0;

    /**
     * buildDecodePlan under the conditions the engine's timeline() puts
     * in force at run time `now`. Engines without a fault model (the
     * default) build their healthy plan. Infeasible, with a note, when
     * nothing survives to serve at `now`.
     */
    virtual void buildDecodePlanAt(const RunConfig &cfg, Seconds now,
                                   RunResult &res, StepPlan &plan) const;

    /** buildPrefillPlan under the conditions in force at `now`. */
    virtual void buildPrefillPlanAt(const RunConfig &cfg, Seconds now,
                                    std::uint64_t chunk_index,
                                    std::uint64_t chunk_count,
                                    StepPlan &plan) const;

    /**
     * The shard rebuild a condition change between `since` and `now`
     * forces before decode resumes at `now`, `done` tokens into the
     * decode: transfer tail ops whose evaluation is the pause. An empty
     * plan (the default) when nothing was lost.
     */
    virtual StepPlan rebuildPlanAt(const RunConfig &cfg, Seconds since,
                                   Seconds now, std::uint64_t done) const;

    /** The fault conditions the engine runs under (empty by default). */
    virtual const ConditionTimeline &timeline() const;

    /**
     * Engine-specific accounting over a finished run: called once by
     * run()/runCached() with the epochs the run went through (one for a
     * run with an empty timeline). The default records nothing.
     */
    virtual void summarize(const RunConfig &cfg, const EpochLog &log,
                           RunResult &res) const;

    /**
     * Model the full run analytically. With an empty timeline() the
     * decode plan and every prefill chunk are built cold and folded
     * into one result, the uncached reference runCached() is checked
     * against; otherwise the run is the epoch fold (see engine.cc)
     * through a per-thread PlanCache. That cache pays off only when a
     * thread repeats a faulted run of one engine and model whose plans
     * keep their topology (a benchmark loop, a sweep over rates): those
     * plans re-price in place. A one-shot faulted run instead builds
     * each plan cold into a new entry and validates it; a run whose
     * topology differs from the cached one also pays the failed
     * rebuild. The cache is cleared only between runs, once it holds
     * 128 entries, so it holds at most that many plus one run's plans:
     * a few per condition segment of its timeline.
     */
    RunResult run(const RunConfig &cfg) const;

    /**
     * run() with plan-structure reuse: the builders rebuild only the
     * priced annotations when `cache` already holds their topology
     * (see runtime/plan_cache.h). Results are bit-identical to run()
     * for every engine and cache state.
     */
    RunResult runCached(const RunConfig &cfg, PlanCache &cache) const;

    /**
     * The run held at the conditions in force at `now` for its whole
     * length: decode and prefill built by the `At` builders, no epochs.
     * With a `cache` (null: build cold), the plans rebuild in place
     * under keys of the timeline() segment `now` falls in.
     */
    RunResult runAt(const RunConfig &cfg, Seconds now,
                    PlanCache *cache) const;

    /** The decode-step plan for one run configuration (a cold build). */
    StepPlan decodeStepPlan(const RunConfig &cfg) const;

    /**
     * decodeStepPlan rebuilt through `cache` under the Decode key
     * runCached() uses, so it shares that entry: it serializes
     * byte-identically to the cold build. The reference stays valid
     * until the entry is next built.
     */
    const StepPlan &decodeStepPlan(const RunConfig &cfg,
                                   PlanCache &cache) const;

    /** The decode-step plan under the conditions in force at `now`. */
    StepPlan decodeStepPlanAt(const RunConfig &cfg, Seconds now) const;

    /** The Prefill-phase plan for chunk `chunk_index` of `chunk_count`. */
    StepPlan prefillStepPlan(const RunConfig &cfg,
                             std::uint64_t chunk_index = 0,
                             std::uint64_t chunk_count = 1) const;

    /**
     * prefillStepPlan rebuilt through `cache` under runCached()'s
     * Prefill key; the same contract as the cached decodeStepPlan.
     */
    const StepPlan &prefillStepPlan(const RunConfig &cfg,
                                    std::uint64_t chunk_index,
                                    std::uint64_t chunk_count,
                                    PlanCache &cache) const;

  protected:
    /**
     * The one run body: build the decode plan and each prefill chunk
     * (cold when `cache` is null, else through `cache` under this
     * engine's phase keys) and fold them with applyPrefillPlan/
     * applyPlan. With no `at`, the engine's own builders run under the
     * plain phase keys (run() and runCached()); with one, the `At`
     * builders at that time run under keys of its timeline() segment
     * (runAt()).
     */
    RunResult runPlans(const RunConfig &cfg, PlanCache *cache,
                       std::optional<Seconds> at) const;

    /** run() and runCached() over runPlans plus the summary hook. */
    RunResult runHealthy(const RunConfig &cfg, PlanCache *cache) const;

    /**
     * The epoch fold of a run under a non-empty timeline(): prefill at
     * t = 0, decode cut at the timeline's change times, each boundary
     * charged through rebuildPlanAt, epochs blended by token weight.
     * The healthy decode, the t = 0 decode and prefill and each epoch's
     * decode rebuild through `cache`, each under its own key.
     */
    RunResult runEpochs(const RunConfig &cfg, PlanCache &cache) const;
};

/**
 * Largest batch size (<= requested) whose KV cache plus resident bytes
 * fit a capacity; 0 when even batch 1 does not fit.
 */
std::uint64_t maxFittingBatch(const ModelConfig &model,
                              std::uint64_t requested_batch,
                              std::uint64_t total_seq,
                              Bytes capacity_bytes,
                              Bytes resident_bytes);

}  // namespace hilos

#endif  // HILOS_RUNTIME_ENGINE_H_

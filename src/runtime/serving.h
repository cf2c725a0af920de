/**
 * @file
 * Online serving simulation: continuous batching over an arrival stream.
 *
 * The offline engines answer "what does one steady-state decode step
 * cost"; this layer answers "what happens when traffic arrives over
 * time". A `ServingSimulator` drives any `InferenceEngine` (the five
 * single-host engines or the fleet) with a request stream from
 * `runtime/serving_workload`, admits pending requests under a
 * `ServingPolicy` at every step boundary, and grows/shrinks the
 * in-flight batch between decode steps. Each step is costed through the
 * engine's StepPlan IR: a cost miss rebuilds that phase's plan in place
 * in a PlanCache that lives for one run() and evaluates it into one
 * reused PlanEvaluation, and capacity comes from runCached() over the
 * same cache; every engine, the fleet included, emits plans. Costs are
 * kept in hashed tables under exact keys. Arrivals reach the pending
 * queue from a cursor over the stream sorted by (arrival, id), so they
 * interleave with decode steps deterministically; under FCFS that
 * cursor order is the admission order and the queue is a slice of it.
 * Each loop turn advances the batch through every decode step up to
 * the next boundary where it can change (a completion, or an admission
 * with room in the batch), in segments that each share one step cost
 * between two bucket edges.
 *
 * Prefill is admitted as chunked steps (`ServingConfig::prefill_chunks`)
 * interleaved with decode: a newly admitted group's first chunk is
 * charged at admission (at prefill_chunks == 1 that is the whole
 * prefill, preserving the historical timeline bit-for-bit), and every
 * later chunk yields to the in-flight decode batch — the decode step
 * runs at priority and the chunk overlaps it, since decode attention is
 * fleet-bound while prefill compute is host-GPU-bound. Each decode step
 * taken while a group is mid-prefill counts as one prefill preemption.
 * Requests join the decode flight only after their last chunk, so TTFT
 * reflects the full (chunked) prefill honestly.
 *
 * Reported metrics follow the serving literature: exact (nearest-rank)
 * p50/p99/p999 time-to-first-token and end-to-end latency (selected
 * in one buffer per series by exactQuantiles), goodput
 * under an SLO, queue depth over time, and saturation indicators
 * (time-weighted batch occupancy, peak queue depth).
 */

#ifndef HILOS_RUNTIME_SERVING_H_
#define HILOS_RUNTIME_SERVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "llm/workload.h"
#include "runtime/engine.h"
#include "runtime/serving_policy.h"

namespace hilos {

/** Parameters of one serving simulation. */
struct ServingConfig {
    ModelConfig model;
    /** Scheduler-side cap on the in-flight batch (engine capacity may
     *  shrink it further at long contexts). */
    std::uint64_t max_batch = 16;
    /** Contexts round up to a multiple of this for step costing, like
     *  the offline batcher's bucket padding. */
    std::uint64_t bucket_quantum = 1024;
    ServingPolicy policy = ServingPolicy::Fcfs;
    /** End-to-end latency SLO; 0 disables SLO accounting. */
    Seconds slo = 0.0;
    /**
     * Prefill chunks per admitted group (>= 1). 1 charges one
     * monolithic prefill at admission (the historical behaviour);
     * larger values split each group's prefill into equal token ranges
     * whose later chunks run preemptably under the decode batch. A
     * group never runs more chunks than its padded prompt has tokens.
     */
    std::uint64_t prefill_chunks = 1;
};

/** Per-request lifecycle timestamps of one serving run. */
struct RequestRecord {
    std::size_t id = 0;  ///< submission index
    RequestClass cls = RequestClass::Small;
    std::uint64_t input_tokens = 0;
    std::uint64_t output_tokens = 0;
    Seconds arrival = 0.0;
    Seconds admitted = 0.0;     ///< left the pending queue
    Seconds first_token = 0.0;  ///< first decode step completed
    Seconds completed = 0.0;    ///< last output token produced
    bool met_slo = true;

    Seconds ttft() const { return first_token - arrival; }
    Seconds latency() const { return completed - arrival; }
    Seconds queueWait() const { return admitted - arrival; }
};

/** One point of the queue-depth-over-time curve. */
struct QueueDepthSample {
    Seconds when = 0.0;
    std::uint64_t depth = 0;
};

/** Outcome of one serving simulation. */
struct ServingResult {
    bool feasible = true;
    std::string note;  ///< infeasibility reason when !feasible

    std::uint64_t requests = 0;
    std::uint64_t slo_met = 0;  ///< == requests when no SLO is set
    Seconds makespan = 0.0;     ///< last completion time

    /** Exact (nearest-rank) latency percentiles, not interpolated. */
    Seconds ttft_p50 = 0.0;
    Seconds ttft_p99 = 0.0;
    Seconds ttft_p999 = 0.0;
    Seconds latency_p50 = 0.0;
    Seconds latency_p99 = 0.0;
    Seconds latency_p999 = 0.0;
    Seconds mean_queue_wait = 0.0;

    double slo_attainment = 1.0;  ///< slo_met / requests
    /** SLO-met requests per second of makespan (== throughput with no
     *  SLO set; collapses toward 0 past saturation). */
    double goodput_rps = 0.0;
    double tokens_per_second = 0.0;  ///< real generated tokens / makespan

    std::uint64_t decode_steps = 0;
    std::uint64_t prefill_batches = 0;
    /** Prefill chunks charged (== prefill_batches at prefill_chunks=1). */
    std::uint64_t prefill_chunks_run = 0;
    /** Decode steps taken at priority while a group was mid-prefill. */
    std::uint64_t prefill_preemptions = 0;
    /** Time-weighted mean in-flight batch (residency / makespan). */
    double mean_in_flight = 0.0;
    std::uint64_t peak_in_flight = 0;
    /** Time-weighted mean pending-queue depth (total wait / makespan). */
    double mean_queue_depth = 0.0;
    std::uint64_t peak_queue_depth = 0;

    /** Step-cost cache effectiveness over this run alone (plan
     *  evaluations + capacity runs; no cost state outlives run()). */
    std::uint64_t cost_cache_hits = 0;
    std::uint64_t cost_cache_misses = 0;

    std::vector<RequestRecord> records;  ///< per request, submission order
    std::vector<QueueDepthSample> queue_depth;  ///< depth after each change
};

/**
 * Continuous-batching serving simulator over one engine.
 *
 * Deterministic: identical (engine, config, request set) inputs yield
 * bit-identical results on any thread of any machine — the simulation
 * itself is single-threaded and draws no randomness.
 */
class ServingSimulator
{
  public:
    ServingSimulator(const InferenceEngine &engine, ServingConfig cfg);

    /**
     * Serve a request stream to completion. Requests may arrive in any
     * order; arrival times need not be sorted, but a stream already in
     * non-decreasing arrival order skips the sort. Infeasible streams (a
     * request that cannot fit the engine even alone) come back with
     * `feasible == false` and the reason in `note`.
     */
    ServingResult run(const std::vector<Request> &requests) const;

    const ServingConfig &config() const { return cfg_; }

  private:
    const InferenceEngine &engine_;
    ServingConfig cfg_;
};

}  // namespace hilos

#endif  // HILOS_RUNTIME_SERVING_H_

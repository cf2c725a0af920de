/**
 * @file
 * Offline request batching.
 *
 * Offline inference (§1, §2.2) tolerates latency, so the scheduler is
 * free to group requests into large homogeneous batches that maximise
 * weight reuse. This module buckets a mixed request set by context
 * length, forms batches up to the engine's batch capacity, and computes
 * the makespan and per-class throughput of serving the whole set on a
 * given engine — the system-level question behind the paper's Azure
 * workload analysis (§6.6).
 */

#ifndef HILOS_RUNTIME_BATCHER_H_
#define HILOS_RUNTIME_BATCHER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "llm/workload.h"
#include "runtime/engine.h"

namespace hilos {

/** One scheduled batch of homogeneous requests. */
struct ScheduledBatch {
    std::uint64_t context_len = 0;  ///< bucket's padded prompt length
    std::uint64_t output_len = 0;   ///< max output length in the batch
    std::uint64_t count = 0;        ///< requests in the batch
};

/** Outcome of serving a request set. */
struct BatchPlanResult {
    std::vector<ScheduledBatch> batches;
    Seconds makespan = 0;         ///< total time to drain the queue
    double requests_per_hour = 0;
    double tokens_per_second = 0; ///< real generated tokens over makespan
    /** Padding waste: padded prompt tokens / real prompt tokens - 1. */
    double padding_overhead = 0;
    /**
     * Output padding waste: each batch decodes to its bucket's max
     * output length, so requests with shorter outputs ride along as
     * padding. Padded generated tokens / real generated tokens - 1.
     */
    double output_padding_overhead = 0;
};

/**
 * Greedy bucketing batcher.
 */
class OfflineBatcher
{
  public:
    /**
     * @param max_batch engine batch capacity
     * @param bucket_quantum contexts round up to a multiple of this
     *        (padding; power of two keeps the accelerator bursts whole)
     */
    explicit OfflineBatcher(std::uint64_t max_batch = 16,
                            std::uint64_t bucket_quantum = 1024);

    /** Group a request set into homogeneous batches. */
    std::vector<ScheduledBatch> plan(
        const std::vector<Request> &requests) const;

    /**
     * Serve a request set on an engine: plan, run each batch, sum the
     * end-to-end times.
     */
    BatchPlanResult serve(const InferenceEngine &engine,
                          const ModelConfig &model,
                          const std::vector<Request> &requests) const;

  private:
    std::uint64_t max_batch_;
    std::uint64_t bucket_quantum_;
};

}  // namespace hilos

#endif  // HILOS_RUNTIME_BATCHER_H_

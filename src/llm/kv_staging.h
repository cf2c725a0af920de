/**
 * @file
 * Functional KV staging for delayed writeback (§4.3): the host-memory
 * buffer that holds newly generated KV entries, produces the
 * CPU-precomputed partial QK^T scores for the accelerator, and spills
 * page-sized chunks to storage at the configured interval.
 *
 * The analytic cost model for the same mechanism lives in
 * runtime/writeback.h; this header holds only the data path so the LLM
 * layer (e.g. TransformerLayer) can use it without depending on the
 * runtime engines.
 */

#ifndef HILOS_LLM_KV_STAGING_H_
#define HILOS_LLM_KV_STAGING_H_

#include <cstdint>
#include <vector>

#include "accel/gemv.h"
#include "common/half.h"
#include "common/units.h"

namespace hilos {

/** Spilled chunk handed to the storage layer. */
struct SpillChunk {
    std::size_t slice = 0;   ///< (batch, head) slice index
    std::uint64_t bytes = 0; ///< K+V bytes spilled
    std::uint64_t entries = 0;
    std::vector<Half> k_data;  ///< entries x d keys, row-major
    std::vector<Half> v_data;  ///< entries x d values, row-major
};

/**
 * Functional staging buffer for one layer's new KV entries.
 */
class WritebackBuffer
{
  public:
    /**
     * @param slices number of (batch, kv-head) slices
     * @param head_dim per-head dimension d
     * @param spill_interval entries buffered per slice before spilling
     */
    WritebackBuffer(std::size_t slices, std::size_t head_dim,
                    std::size_t spill_interval);

    /**
     * Stage one new (k, v) pair for a slice. If the slice reaches the
     * spill interval a chunk is queued for storage and the buffer
     * drains.
     * @return true if this append triggered a spill
     */
    bool append(std::size_t slice, const Half *k, const Half *v);

    /** Buffered entry count for a slice. */
    std::size_t buffered(std::size_t slice) const;

    /** Buffered keys view (n x d) for a slice. */
    HalfMatrixView bufferedKeys(std::size_t slice) const;
    /** Buffered values view (n x d) for a slice. */
    HalfMatrixView bufferedValues(std::size_t slice) const;

    /**
     * CPU-side partial QK^T: scores of `queries` (g x d, FP32) against
     * the buffered keys of a slice, scaled by `scale`. These are the
     * scalars shipped to the accelerator instead of the raw keys.
     * @return g x n row-major scores
     */
    std::vector<float> partialScores(std::size_t slice,
                                     const std::vector<float> &queries,
                                     std::size_t d_group,
                                     float scale) const;

    /** Drain queued spill chunks (caller forwards them to storage). */
    std::vector<SpillChunk> takeSpills();

    /** Spills produced so far. */
    std::uint64_t totalSpills() const { return total_spills_; }

    std::size_t headDim() const { return head_dim_; }

  private:
    std::size_t head_dim_;
    std::size_t spill_interval_;
    std::vector<std::vector<Half>> k_buf_;
    std::vector<std::vector<Half>> v_buf_;
    std::vector<SpillChunk> pending_;
    std::uint64_t total_spills_ = 0;
};

}  // namespace hilos

#endif  // HILOS_LLM_KV_STAGING_H_

/**
 * @file
 * KV-cache and X-cache containers plus the device-partitioning logic.
 *
 * Layouts follow §4.3: caches are row-wise (b x h x s x d) so the
 * minimum storage access granularity is a full (s x d) row — large and
 * sequential, which is what keeps SSD bandwidth high. Decode appends
 * one (1 x d) vector per step per (batch, head). The X-cache stores the
 * pre-projection activation X (b x s x hidden) instead of K and V,
 * halving capacity and traffic (§4.2).
 */

#ifndef HILOS_LLM_KV_CACHE_H_
#define HILOS_LLM_KV_CACHE_H_

#include <cstdint>
#include <vector>

#include "accel/gemv.h"
#include "common/half.h"

namespace hilos {

/** Identifies one attention slice: a (batch, kv-head) pair. */
struct SliceId {
    std::uint32_t batch = 0;
    std::uint32_t kv_head = 0;

    bool
    operator==(const SliceId &o) const
    {
        return batch == o.batch && kv_head == o.kv_head;
    }
};

/**
 * Functional KV cache for one transformer layer: per-slice row-wise K
 * and V stores in FP16 with append semantics.
 */
class KvCache
{
  public:
    /**
     * @param batches batch size b
     * @param kv_heads KV heads per layer
     * @param head_dim per-head dimension d
     */
    KvCache(std::size_t batches, std::size_t kv_heads,
            std::size_t head_dim);

    /** Append one (k, v) pair (each `head_dim` halves) to a slice. */
    void append(const SliceId &id, const Half *k, const Half *v);

    /** Current sequence length of a slice. */
    std::size_t length(const SliceId &id) const;

    /** Row-wise key matrix view (length x d) for a slice. */
    HalfMatrixView keys(const SliceId &id) const;
    /** Row-wise value matrix view (length x d) for a slice. */
    HalfMatrixView values(const SliceId &id) const;

  private:
    std::size_t index(const SliceId &id) const;

    std::size_t batches_;
    std::size_t kv_heads_;
    std::size_t head_dim_;
    std::vector<std::vector<Half>> k_store_;
    std::vector<std::vector<Half>> v_store_;
};

/**
 * X-cache: pre-projection activations, one (s x hidden) store per batch
 * element. K and V regenerate on the GPU by re-projection (§4.2).
 */
class XCacheStore
{
  public:
    XCacheStore(std::size_t batches, std::size_t hidden);

    /** Append one activation row (hidden halves) for a batch element. */
    void append(std::size_t batch, const Half *x);

    /** Row-wise activation matrix view (length x hidden). */
    HalfMatrixView activations(std::size_t batch) const;

  private:
    std::size_t hidden_;
    std::vector<std::vector<Half>> store_;
};

/**
 * Partition of (batch, kv-head) slices across NSP devices (§4.1):
 * attention parallelises along batch and head, never sequence.
 */
class SlicePartition
{
  public:
    /**
     * Round-robin assignment of all b x h slices over `devices`.
     */
    SlicePartition(std::size_t batches, std::size_t kv_heads,
                   std::size_t devices);

    /** Device owning a slice. */
    std::size_t deviceOf(const SliceId &id) const;

  private:
    std::size_t batches_;
    std::size_t kv_heads_;
    std::size_t devices_;
};

}  // namespace hilos

#endif  // HILOS_LLM_KV_CACHE_H_

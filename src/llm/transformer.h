/**
 * @file
 * Functional transformer decoder layer with the three attention
 * execution paths HILOS schedules between:
 *
 *  - Reference: FP32 KV cache, textbook attention (the "GPU" path a
 *    conventional engine runs);
 *  - NearStorage: FP16 row-wise KV cache + delayed-writeback staging +
 *    the HILOS attention accelerator (§4.1/§4.3);
 *  - XCache: pre-projection activations stored instead of K/V; K and V
 *    regenerate by re-projection — re-applying RoPE per historical
 *    position — before GPU-side attention (§4.2).
 *
 * All three paths must produce the same outputs (up to FP16 storage
 * precision), which is exactly the functional claim the integration
 * tests verify. Sizes are arbitrary, so tests run miniature models.
 */

#ifndef HILOS_LLM_TRANSFORMER_H_
#define HILOS_LLM_TRANSFORMER_H_

#include <memory>
#include <optional>
#include <vector>

#include "accel/attention_kernel.h"
#include "llm/kv_cache.h"
#include "llm/rope.h"
#include "llm/tensor.h"
#include "llm/kv_staging.h"

namespace hilos {

/** Shape of a miniature transformer layer. */
struct LayerShape {
    std::size_t hidden = 64;
    std::size_t heads = 4;
    std::size_t kv_heads = 2;     ///< GQA when < heads
    std::size_t intermediate = 128;
    bool use_rope = false;
    std::size_t max_pos = 4096;

    std::size_t headDim() const { return hidden / heads; }
    std::size_t dGroup() const { return heads / kv_heads; }
    std::size_t kvWidth() const { return kv_heads * headDim(); }
};

/** Dense weights of one layer (FP32 masters). */
struct LayerWeights {
    Matrix wq;  ///< hidden x hidden
    Matrix wk;  ///< hidden x kvWidth
    Matrix wv;  ///< hidden x kvWidth
    Matrix wo;  ///< hidden x hidden
    Matrix w1;  ///< hidden x intermediate
    Matrix w2;  ///< intermediate x hidden

    /** Gaussian initialisation scaled for unit-variance activations. */
    static LayerWeights random(const LayerShape &shape, Rng &rng);
};

/** Which attention path executes the decode step. */
enum class AttentionPath {
    Reference,
    NearStorage,
    XCache,
};

/**
 * One decoder layer plus the per-path cached state for a batch.
 */
class TransformerLayer
{
  public:
    /**
     * @param spill_interval delayed-writeback interval for the
     *        NearStorage path
     */
    TransformerLayer(const LayerShape &shape, LayerWeights weights,
                     std::size_t batches, std::size_t spill_interval = 16);

    /**
     * Prefill: run `prompt` (batches x tokens x hidden, flattened as a
     * (batches*tokens) x hidden matrix, batch-major) through the layer,
     * populating every path's cache identically.
     * @return output activations with the same layout
     */
    Matrix prefill(const Matrix &prompt, std::size_t tokens);

    /**
     * One decode step: `x` is (batches x hidden). Appends this step's
     * KV to the caches and returns the layer output via the chosen
     * attention path.
     */
    Matrix decode(const Matrix &x, AttentionPath path);

    /** Current context length (same for every path). */
    std::size_t contextLen() const { return positions_; }

    /** Entries currently staged in the writeback buffer (slice 0). */
    std::size_t buffered(std::size_t slice) const
    {
        return wb_.buffered(slice);
    }

  private:
    /** Project x with RoPE applied to Q/K heads when configured. */
    void project(const Matrix &x, Matrix &q, Matrix &k, Matrix &v,
                 std::size_t pos0) const;

    /** Attention for one batch element via the chosen path. */
    std::vector<float> attendReference(std::size_t b,
                                       const Matrix &q) const;
    std::vector<float> attendNearStorage(std::size_t b, const Matrix &q);
    std::vector<float> attendXCache(std::size_t b, const Matrix &q) const;

    /** Output projection + MLP (shared by every path). */
    Matrix finish(const Matrix &attn_out) const;

    LayerShape shape_;
    LayerWeights weights_;
    std::size_t batches_;
    std::optional<RopeTable> rope_;

    // Reference path: FP32 K/V per (batch, kv_head), flat row-major.
    std::vector<std::vector<float>> ref_k_;
    std::vector<std::vector<float>> ref_v_;

    // Near-storage path: FP16 stored cache + writeback staging.
    KvCache stored_;
    WritebackBuffer wb_;
    AttentionKernel kernel_;

    // X-cache path: FP16 pre-projection activations.
    XCacheStore xcache_;

    std::size_t positions_ = 0;
};

/**
 * A miniature end-to-end model: a stack of decoder layers plus an
 * output head, with greedy token decoding. This mirrors the paper
 * artifact's functional check ("verify that the token output matches
 * the expected values"): the generated token ids must be identical
 * whichever attention path executes each step.
 */
class TransformerModel
{
  public:
    /**
     * @param layers decoder depth
     * @param vocab output vocabulary size
     */
    TransformerModel(const LayerShape &shape, std::size_t layers,
                     std::size_t vocab, std::size_t batches, Rng &rng,
                     std::size_t spill_interval = 16);

    /**
     * Prefill with a token prompt (batches x tokens ids); embeddings
     * are a fixed random codebook.
     */
    void prefill(const std::vector<std::vector<std::uint32_t>> &prompt);

    /**
     * One greedy decode step via the chosen attention path.
     * @return the argmax token id per batch element
     */
    std::vector<std::uint32_t> decodeGreedy(AttentionPath path);

    /**
     * Generate `n` tokens greedily.
     * @return batches x n token ids
     */
    std::vector<std::vector<std::uint32_t>> generate(std::size_t n,
                                                     AttentionPath path);

    std::size_t contextLen() const { return layers_.front().contextLen(); }

  private:
    /** Embedding lookup for a batch of token ids. */
    Matrix embed(const std::vector<std::uint32_t> &ids) const;

    LayerShape shape_;
    std::size_t vocab_;
    std::size_t batches_;
    Matrix embedding_;  ///< vocab x hidden codebook
    Matrix head_;       ///< hidden x vocab output projection
    std::vector<TransformerLayer> layers_;
    std::vector<std::uint32_t> last_tokens_;
};

}  // namespace hilos

#endif  // HILOS_LLM_TRANSFORMER_H_

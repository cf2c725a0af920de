/**
 * @file
 * Rotary position embedding (RoPE).
 *
 * Modern models (Qwen, Mixtral, Llama) rotate query/key vectors by a
 * position-dependent angle before attention. This matters for the
 * cooperative X-cache (§4.2): the X-cache stores *pre-projection*
 * activations, so regenerating K on the GPU must re-apply RoPE for
 * every historical position. The paper notes this recomputation stays
 * negligible thanks to an efficient caching strategy — reproduced here
 * as a precomputed sin/cos table shared across steps and layers.
 */

#ifndef HILOS_LLM_ROPE_H_
#define HILOS_LLM_ROPE_H_

#include <cstddef>
#include <vector>

namespace hilos {

/**
 * Precomputed RoPE sin/cos table for a head dimension and maximum
 * position (the "efficient caching strategy": the trigonometry is
 * computed once, not per decode step).
 */
class RopeTable
{
  public:
    /**
     * @param head_dim per-head dimension d (must be even)
     * @param max_pos largest position the table covers
     * @param theta base frequency (10000 for Llama-family models)
     */
    RopeTable(std::size_t head_dim, std::size_t max_pos,
              double theta = 10000.0);

    /**
     * Rotate one d-dimensional vector in place for position `pos`.
     * Pairs (2i, 2i+1) rotate by pos * theta^(-2i/d).
     */
    void apply(float *vec, std::size_t pos) const;

    std::size_t headDim() const { return head_dim_; }

    /** Table bytes (the caching cost; tiny next to the KV cache). */
    std::size_t tableBytes() const
    {
        return 2 * sin_.size() * sizeof(float);
    }

  private:
    std::size_t head_dim_;
    std::size_t max_pos_;
    /** sin/cos of pos * inv_freq(i), laid out [pos][d/2]. */
    std::vector<float> sin_;
    std::vector<float> cos_;
};

}  // namespace hilos

#endif  // HILOS_LLM_ROPE_H_

/**
 * @file
 * Two-pass streaming softmax (Algorithm 1 of the paper).
 *
 * The classic numerically-stable softmax needs three passes over the
 * score vector (global max, sum of exponentials, normalisation), which
 * triples off-chip traffic for long sequences. HILOS's accelerator does
 * it in two: pass one streams blocks through a max-reduction tree and
 * exponentiation units stabilised by the *local* block maximum, merging
 * (max, sum) pairs in a streaming update unit; pass two normalises.
 *
 * This module implements the algorithm functionally, mirroring the
 * hardware block structure (128-element blocks, masking in both passes)
 * so that tests can verify exact equivalence with the reference softmax
 * and the cycle model can count traffic per pass.
 */

#ifndef HILOS_ACCEL_SOFTMAX_H_
#define HILOS_ACCEL_SOFTMAX_H_

#include <cstdint>
#include <vector>

namespace hilos {

/** Masking configuration applied inside the softmax units (§5.4). */
struct SoftmaxMask {
    /**
     * Scores at positions < valid_start are masked: sliding-window
     * attention variants (§5.1 customisation) exclude tokens that fell
     * out of the window.
     */
    std::size_t valid_start = 0;
    /**
     * Scores at positions >= valid_len are padding: the MASK module
     * replaces them with `padding_value` so they contribute (practically)
     * nothing after exponentiation.
     */
    std::size_t valid_len = SIZE_MAX;
    /** Constant assigned to padding tokens (-1e4 per §5.4). */
    float padding_value = -1.0e4f;

    /** True if position i passes the mask. */
    bool
    valid(std::size_t i) const
    {
        return i >= valid_start && i < valid_len;
    }
};

/** Running (max, sum) statistics produced by the first pass. */
struct SoftmaxStats {
    float max;  ///< global maximum m
    float sum;  ///< global denominator Z, referenced to `max`
};

/**
 * Streaming update unit (Algorithm 1 lines 5-9): merge a block's local
 * statistics (m_B, S_B) into the running (m, Z).
 */
SoftmaxStats streamingUpdate(SoftmaxStats running, float block_max,
                             float block_sum);

/**
 * Two-pass softmax engine with a fixed hardware block size.
 */
class TwoPassSoftmax
{
  public:
    /** @param block_elems elements per hardware block (default 128) */
    explicit TwoPassSoftmax(std::size_t block_elems = 128);

    /**
     * First pass: compute global statistics over `scores` with `mask`
     * applied (scores itself is not modified).
     */
    SoftmaxStats computeStats(const std::vector<float> &scores,
                              const SoftmaxMask &mask) const;

    /**
     * Second pass: normalise in place using precomputed statistics;
     * masked positions come out as exp(padding - m)/Z (effectively 0).
     */
    void normalize(std::vector<float> &scores, const SoftmaxStats &stats,
                   const SoftmaxMask &mask) const;

    /** Convenience: both passes. */
    void apply(std::vector<float> &scores, const SoftmaxMask &mask) const;

    /**
     * Off-chip element traffic of the two-pass scheme for a vector of
     * `n` scores: one read per pass plus one write (3n total).
     */
    static std::uint64_t trafficElements(std::uint64_t n) { return 3 * n; }

    /** Off-chip element traffic of the three-pass scheme (4n). */
    static std::uint64_t threePassTrafficElements(std::uint64_t n)
    {
        return 4 * n;
    }

  private:
    std::size_t block_elems_;
};

/**
 * Reference three-pass softmax (global max, then sum, then normalise),
 * the textbook formulation the accelerator must match.
 */
void threePassSoftmax(std::vector<float> &scores, const SoftmaxMask &mask);

}  // namespace hilos

#endif  // HILOS_ACCEL_SOFTMAX_H_

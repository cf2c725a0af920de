/**
 * @file
 * Named numeric-comparison bounds shared by every functional test and
 * differential oracle, replacing the ad-hoc literals that used to be
 * sprinkled through test_attention_kernel.cc / test_softmax.cc.
 *
 * Two regimes matter:
 *
 *  - FP16-storage paths (the accelerator): inputs are quantised to
 *    binary16 before compute, and the kernel reorders FP32 reductions
 *    relative to the reference (blocked two-pass softmax, online
 *    transpose, split stored/buffered accumulation). With inputs drawn
 *    around unit scale, the observed worst case across the shape grid
 *    is a few 1e-5; 5e-4 gives an order of magnitude of headroom while
 *    still catching a single dropped/extra context row.
 *
 *  - FP32-everywhere paths (softmax statistics, reference-vs-reference
 *    identities): the only error source is reassociation of FP32 sums,
 *    so bounds sit near float epsilon times the reduction length.
 */

#ifndef HILOS_TESTS_SUPPORT_TOLERANCES_H_
#define HILOS_TESTS_SUPPORT_TOLERANCES_H_

namespace hilos {
namespace test {

/**
 * Absolute bound for accelerator outputs (FP16-quantised inputs, FP32
 * accumulation) against an FP32 reference fed the same quantised
 * inputs.
 */
inline constexpr float kFp16StorageTol = 5e-4f;

/**
 * Absolute bound for FP32-only computations compared against an FP32
 * reference that reduces in a different order (e.g. streaming-softmax
 * statistics merged block-by-block vs one joint pass).
 */
inline constexpr float kFp32AccumTol = 1e-5f;

/**
 * Tighter FP32 bound for per-element softmax probabilities, where
 * outputs are <= 1 and the reassociation error per element is tiny.
 */
inline constexpr float kFp32SoftmaxElemTol = 3e-6f;

/**
 * Bound for quantities that must vanish exactly up to denormal noise
 * (masked-out probabilities, zeroed padding lanes).
 */
inline constexpr float kExactZeroTol = 1e-12f;

/**
 * Agreement band for a contended replay (the plan replay or the slice
 * simulator) over the analytic engine's time for the same phase. It is
 * deliberately wider than the hand-picked crossval grid's observed
 * 0.7-1.4x: random corners (tiny fleets, MoE models, alpha overrides)
 * legitimately stress the analytic model harder.
 */
inline constexpr double kReplayAgreementLo = 0.4;
inline constexpr double kReplayAgreementHi = 2.5;

}  // namespace test
}  // namespace hilos

#endif  // HILOS_TESTS_SUPPORT_TOLERANCES_H_

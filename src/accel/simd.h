/**
 * @file
 * Runtime SIMD dispatch for the functional accelerator kernels.
 *
 * The FPGA-mirroring kernels (gemv, softmax, attention_kernel) carry an
 * AVX2+F16C fast path next to their scalar reference loops. Dispatch is
 * resolved once at startup from CPUID; tests override it through
 * setSimdLevel() (tests/support/scoped_simd.h).
 *
 * Contract: every vector path is bit-identical to its scalar loop for
 * non-NaN data. The vector code therefore never uses FMA (a fused
 * multiply-add rounds once where the scalar loop rounds twice); it
 * vectorises across independent output lanes, keeping each lane's
 * operation sequence exactly the scalar one, and relies on VCVTPH2PS
 * being the same exact widening as Half::halfToFloat (both are checked
 * by differential tests, the conversion exhaustively over all 65536
 * half patterns).
 */

#ifndef HILOS_ACCEL_SIMD_H_
#define HILOS_ACCEL_SIMD_H_

namespace hilos {

/** Instruction-set tiers the kernels dispatch over. */
enum class SimdLevel {
    Scalar,  ///< portable reference loops
    Avx2,    ///< AVX2 + F16C lanes (x86-64 only)
};

/** Human-readable tier name ("scalar" / "avx2"). */
const char *simdLevelName(SimdLevel level);

/** True when this CPU (and build) can execute `level`. */
bool simdLevelSupported(SimdLevel level);

/**
 * The tier kernels currently dispatch to: the best tier this CPU
 * supports, unless setSimdLevel() chose another.
 */
SimdLevel activeSimdLevel();

/**
 * Override the active tier (tests pin both sides of a differential
 * check). Asserts the level is supported. Not thread-safe against
 * concurrently running kernels.
 */
void setSimdLevel(SimdLevel level);

}  // namespace hilos

#endif  // HILOS_ACCEL_SIMD_H_

/**
 * @file
 * Tests for the blocked GEMV units with online transpose: the blocked,
 * transposed computation must be exactly equivalent to direct dot
 * products, across shapes that exercise edge blocks and GQA groups.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "accel/gemv.h"
#include "accel/simd.h"
#include "common/random.h"
#include "llm/tensor.h"
#include "support/scoped_simd.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HILOS_TEST_X86 1
#include <immintrin.h>
#else
#define HILOS_TEST_X86 0
#endif

namespace hilos {
namespace {

#if HILOS_TEST_X86
/** VCVTPH2PS on eight halves: the widening the AVX2 GEMV lanes load
 *  their K and V rows with (accel/gemv.cc). */
__attribute__((target("avx2,f16c"))) void
widenEightF16c(const Half *in, float *out)
{
    const __m256 wide = _mm256_cvtph_ps(_mm_loadu_si128(
        reinterpret_cast<const __m128i *>(in)));
    _mm256_storeu_ps(out, wide);
}
#endif

TEST(BlockTranspose, TransposesASquareBlock)
{
    Matrix m(4, 4);
    for (std::size_t r = 0; r < 4; r++)
        for (std::size_t c = 0; c < 4; c++)
            m.at(r, c) = static_cast<float>(r * 10 + c);
    const std::vector<Half> buf = toHalf(m);
    const HalfMatrixView view = viewOf(buf, 4, 4);

    std::vector<Half> out;
    blockTranspose(view, 0, 0, 4, 4, out);
    for (std::size_t r = 0; r < 4; r++)
        for (std::size_t c = 0; c < 4; c++)
            EXPECT_FLOAT_EQ(out[c * 4 + r].toFloat(), m.at(r, c));
}

TEST(BlockTranspose, HandlesRectangularEdgeBlock)
{
    Rng rng(5);
    const Matrix m = Matrix::random(10, 6, rng);
    const std::vector<Half> buf = toHalf(m);
    const HalfMatrixView view = viewOf(buf, 10, 6);

    std::vector<Half> out;
    blockTranspose(view, 7, 2, 3, 4, out);  // 3 rows x 4 cols tail
    for (std::size_t r = 0; r < 3; r++)
        for (std::size_t c = 0; c < 4; c++)
            EXPECT_EQ(out[c * 3 + r].bits(),
                      view.at(7 + r, 2 + c).bits());
}

TEST(BlockTranspose, OutOfRangeDies)
{
    std::vector<Half> buf(16);
    const HalfMatrixView view = viewOf(buf, 4, 4);
    std::vector<Half> out;
    EXPECT_DEATH(blockTranspose(view, 2, 0, 4, 4, out), "range");
}

TEST(ViewOf, ShapeMismatchDies)
{
    std::vector<Half> buf(10);
    EXPECT_DEATH(viewOf(buf, 3, 4), "mismatch");
}

/** Direct FP32 dot-product scores for comparison. */
std::vector<float>
directScores(const Matrix &q, const Matrix &k, float scale)
{
    std::vector<float> out(q.rows() * k.rows(), 0.0f);
    for (std::size_t g = 0; g < q.rows(); g++) {
        for (std::size_t i = 0; i < k.rows(); i++) {
            float acc = 0;
            for (std::size_t c = 0; c < k.cols(); c++) {
                acc += Half(q.at(g, c)).toFloat() *
                       Half(k.at(i, c)).toFloat();
            }
            out[g * k.rows() + i] = acc * scale;
        }
    }
    return out;
}

class QkGemvShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t>>
{
};

TEST_P(QkGemvShapes, MatchesDirectDotProducts)
{
    const auto [s, d, g] = GetParam();
    Rng rng(11);
    const Matrix q = Matrix::random(g, d, rng);
    const Matrix k = Matrix::random(s, d, rng);
    const std::vector<Half> qh = toHalf(q);
    const std::vector<Half> kh = toHalf(k);
    const float scale = 0.125f;

    const std::vector<float> blocked =
        qkGemv(viewOf(qh, g, d), viewOf(kh, s, d), scale, 128);
    const std::vector<float> direct = directScores(q, k, scale);
    ASSERT_EQ(blocked.size(), direct.size());
    for (std::size_t i = 0; i < blocked.size(); i++)
        EXPECT_NEAR(blocked[i], direct[i],
                    2e-4f * static_cast<float>(d))
            << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QkGemvShapes,
    ::testing::Values(std::make_tuple(1, 8, 1),     // tiny
                      std::make_tuple(128, 128, 1), // exactly one block
                      std::make_tuple(129, 128, 1), // one row spillover
                      std::make_tuple(300, 64, 1),  // ragged blocks
                      std::make_tuple(256, 256, 1), // d > block tiling
                      std::make_tuple(200, 96, 4),  // GQA group of 4
                      std::make_tuple(512, 128, 5), // GQA group of 5
                      std::make_tuple(1000, 40, 8)));

TEST(QkGemv, DimensionMismatchDies)
{
    std::vector<Half> q(8), k(32);
    EXPECT_DEATH(qkGemv(viewOf(q, 1, 8), viewOf(k, 2, 16), 1.0f),
                 "mismatch");
}

class SvGemvShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t>>
{
};

TEST_P(SvGemvShapes, MatchesDirectWeightedSum)
{
    const auto [s, d, g] = GetParam();
    Rng rng(13);
    const Matrix v = Matrix::random(s, d, rng);
    const std::vector<Half> vh = toHalf(v);
    std::vector<float> probs(g * s);
    for (auto &p : probs)
        p = static_cast<float>(rng.uniform(0.0, 1.0));

    const std::vector<float> blocked =
        svGemv(probs, g, viewOf(vh, s, d), 128);

    for (std::size_t gi = 0; gi < g; gi++) {
        for (std::size_t c = 0; c < d; c++) {
            float acc = 0;
            for (std::size_t i = 0; i < s; i++)
                acc += probs[gi * s + i] * Half(v.at(i, c)).toFloat();
            EXPECT_NEAR(blocked[gi * d + c], acc,
                        1e-3f * static_cast<float>(s) / 100.0f)
                << "g=" << gi << " c=" << c;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvGemvShapes,
    ::testing::Values(std::make_tuple(1, 8, 1),
                      std::make_tuple(128, 128, 1),
                      std::make_tuple(300, 64, 2),
                      std::make_tuple(513, 128, 5)));

TEST(SvGemv, ProbabilityShapeMismatchDies)
{
    std::vector<Half> v(64);
    std::vector<float> probs(3);
    EXPECT_DEATH(svGemv(probs, 1, viewOf(v, 8, 8)), "mismatch");
}

// ---------------------------------------------------------------------------
// SIMD differential lanes: the AVX2 MAC loops vectorise across output
// lanes without FMA, so their FP32 results must be *bitwise* equal to
// the scalar reference — not merely within tolerance (accel/simd.h).
// ---------------------------------------------------------------------------

bool
bitwiseEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(SimdDifferential, QkGemvAvx2IsBitwiseEqualToScalar)
{
    if (!simdLevelSupported(SimdLevel::Avx2))
        GTEST_SKIP() << "CPU lacks AVX2/F16C";
    // Shapes cover vector-width multiples, odd tails, multi-tile head
    // dims (d > 128), and GQA groups.
    const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
        {1, 7, 5}, {4, 300, 64}, {8, 129, 80}, {2, 64, 200}, {1, 8, 8}};
    std::uint64_t seed = 201;
    for (const auto &[g, s, d] : shapes) {
        Rng rng(seed++);
        const std::vector<Half> qh = toHalf(Matrix::random(g, d, rng));
        const std::vector<Half> kh = toHalf(Matrix::random(s, d, rng));
        const float scale = 0.125f;

        std::vector<float> scalar;
        std::vector<float> avx2;
        {
            test::ScopedSimdLevel lvl(SimdLevel::Scalar);
            scalar = qkGemv(viewOf(qh, g, d), viewOf(kh, s, d), scale);
        }
        {
            test::ScopedSimdLevel lvl(SimdLevel::Avx2);
            avx2 = qkGemv(viewOf(qh, g, d), viewOf(kh, s, d), scale);
        }
        EXPECT_TRUE(bitwiseEqual(scalar, avx2))
            << "g=" << g << " s=" << s << " d=" << d;
    }
}

TEST(SimdDifferential, SvGemvAvx2IsBitwiseEqualToScalar)
{
    if (!simdLevelSupported(SimdLevel::Avx2))
        GTEST_SKIP() << "CPU lacks AVX2/F16C";
    const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
        {1, 8, 1}, {300, 64, 2}, {129, 80, 8}, {513, 13, 3}};
    std::uint64_t seed = 301;
    for (const auto &[s, d, g] : shapes) {
        Rng rng(seed++);
        const std::vector<Half> vh = toHalf(Matrix::random(s, d, rng));
        std::vector<float> probs(g * s);
        for (auto &p : probs)
            p = static_cast<float>(rng.uniform(0.0, 1.0));

        std::vector<float> scalar;
        std::vector<float> avx2;
        {
            test::ScopedSimdLevel lvl(SimdLevel::Scalar);
            scalar = svGemv(probs, g, viewOf(vh, s, d));
        }
        {
            test::ScopedSimdLevel lvl(SimdLevel::Avx2);
            avx2 = svGemv(probs, g, viewOf(vh, s, d));
        }
        EXPECT_TRUE(bitwiseEqual(scalar, avx2))
            << "s=" << s << " d=" << d << " g=" << g;
    }
}

TEST(SimdDifferential, F16cWideningMatchesHalfToFloatExhaustively)
{
#if HILOS_TEST_X86
    if (!simdLevelSupported(SimdLevel::Avx2))
        GTEST_SKIP() << "CPU lacks AVX2/F16C";
    // Every half pattern through VCVTPH2PS vs the software widening.
    // Non-NaN values must agree bit-for-bit (this is what makes the
    // AVX2 kernel lanes exact); signalling NaNs may be quietened by
    // the instruction, so NaN payloads only need to stay NaN.
    std::vector<Half> in(65536);
    for (std::uint32_t i = 0; i < 65536; i++)
        in[i] = Half::fromBits(static_cast<std::uint16_t>(i));
    std::vector<float> out(in.size());
    for (std::size_t i = 0; i < in.size(); i += 8)
        widenEightF16c(in.data() + i, out.data() + i);

    for (std::uint32_t i = 0; i < 65536; i++) {
        const float ref =
            Half::halfToFloat(static_cast<std::uint16_t>(i));
        if (std::isnan(ref)) {
            ASSERT_TRUE(std::isnan(out[i])) << "bits=" << i;
            continue;
        }
        std::uint32_t got_bits;
        std::uint32_t ref_bits;
        std::memcpy(&got_bits, &out[i], sizeof(got_bits));
        std::memcpy(&ref_bits, &ref, sizeof(ref_bits));
        ASSERT_EQ(got_bits, ref_bits) << "bits=" << i;
    }
#else
    GTEST_SKIP() << "VCVTPH2PS is x86-64 only";
#endif
}

}  // namespace
}  // namespace hilos

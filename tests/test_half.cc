/**
 * @file
 * Tests for the IEEE-754 binary16 type: exact widenings, round-to-
 * nearest-even narrowing, subnormals, infinities and NaN, plus
 * property-style round-trip sweeps.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/half.h"
#include "common/random.h"

namespace hilos {
namespace {

TEST(Half, ZeroIsAllBitsClear)
{
    EXPECT_EQ(Half(0.0f).bits(), 0u);
    EXPECT_EQ(Half(0.0f).toFloat(), 0.0f);
}

TEST(Half, NegativeZeroKeepsSign)
{
    const Half h(-0.0f);
    EXPECT_EQ(h.bits(), 0x8000u);
    EXPECT_TRUE(std::signbit(h.toFloat()));
}

TEST(Half, OneRoundTrips)
{
    EXPECT_EQ(Half(1.0f).bits(), 0x3c00u);
    EXPECT_EQ(Half(1.0f).toFloat(), 1.0f);
}

TEST(Half, KnownConstants)
{
    EXPECT_EQ(Half(2.0f).bits(), 0x4000u);
    EXPECT_EQ(Half(-2.0f).bits(), 0xc000u);
    EXPECT_EQ(Half(0.5f).bits(), 0x3800u);
    EXPECT_EQ(Half(65504.0f).bits(), 0x7bffu);  // max finite
}

TEST(Half, MaxFiniteValue)
{
    EXPECT_FLOAT_EQ(Half::max().toFloat(), 65504.0f);
}

TEST(Half, OverflowBecomesInfinity)
{
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(Half(65520.0f).toFloat(), inf);  // first value rounding to inf
    EXPECT_EQ(Half(1e10f).toFloat(), inf);
    EXPECT_EQ(Half(-1e10f).toFloat(), -inf);
}

TEST(Half, JustBelowOverflowRoundsToMax)
{
    // 65519.996 rounds down to 65504 (nearest even mantissa).
    EXPECT_FLOAT_EQ(Half(65519.0f).toFloat(), 65504.0f);
}

TEST(Half, InfinityPropagates)
{
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(Half(inf), Half::infinity());
    EXPECT_EQ(Half(inf).toFloat(), inf);
    EXPECT_EQ(Half(-inf).toFloat(), -inf);
}

TEST(Half, NanPropagates)
{
    const Half h(std::numeric_limits<float>::quiet_NaN());
    EXPECT_TRUE(std::isnan(h.toFloat()));
}

TEST(Half, SmallestNormal)
{
    const float min_normal = 6.103515625e-05f;  // 2^-14
    EXPECT_EQ(Half(min_normal).bits(), 0x0400u);
    EXPECT_FLOAT_EQ(Half::minNormal().toFloat(), min_normal);
}

TEST(Half, SubnormalsRepresentable)
{
    const float smallest = 5.960464477539063e-08f;  // 2^-24
    const Half h(smallest);
    EXPECT_EQ(h.bits(), 0x0001u);
    EXPECT_FLOAT_EQ(h.toFloat(), smallest);
}

TEST(Half, UnderflowToZero)
{
    // Below half the smallest subnormal -> signed zero.
    EXPECT_EQ(Half(1e-9f).bits(), 0x0000u);
    EXPECT_EQ(Half(-1e-9f).bits(), 0x8000u);
}

TEST(Half, RoundToNearestEvenTies)
{
    // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10; RNE
    // keeps the even mantissa (1.0).
    const float halfway = 1.0f + std::ldexp(1.0f, -11);
    EXPECT_EQ(Half(halfway).bits(), Half(1.0f).bits());
    // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; rounds up to
    // the even mantissa (1 + 2^-9).
    const float halfway2 = 1.0f + 3.0f * std::ldexp(1.0f, -11);
    EXPECT_EQ(Half(halfway2).bits(),
              Half(1.0f + std::ldexp(1.0f, -9)).bits());
}

TEST(Half, RoundTripIsExactForAllBitPatterns)
{
    // Every finite half value must survive half -> float -> half.
    for (std::uint32_t bits = 0; bits <= 0xffffu; bits++) {
        const Half h = Half::fromBits(static_cast<std::uint16_t>(bits));
        if (std::isnan(h.toFloat()))
            continue;  // NaN payloads need not be preserved exactly
        const Half round(h.toFloat());
        EXPECT_EQ(round.bits(), h.bits()) << "bits=" << bits;
    }
}

TEST(Half, NarrowingErrorIsBounded)
{
    // Relative error of narrowing a normal float is at most 2^-11.
    Rng rng(42);
    for (int i = 0; i < 10000; i++) {
        const float x =
            static_cast<float>(rng.uniform(-1000.0, 1000.0));
        if (std::fabs(x) < 6.2e-5f)
            continue;  // subnormal range has absolute, not relative, ulp
        const float back = Half(x).toFloat();
        EXPECT_LE(std::fabs(back - x), std::fabs(x) * 4.9e-4f)
            << "x=" << x;
    }
}

TEST(Half, OrderingPreserved)
{
    // Narrowing is monotonic: x <= y implies h(x) <= h(y).
    Rng rng(7);
    for (int i = 0; i < 5000; i++) {
        const float a = static_cast<float>(rng.uniform(-100.0, 100.0));
        const float b = static_cast<float>(rng.uniform(-100.0, 100.0));
        const float ha = Half(a).toFloat();
        const float hb = Half(b).toFloat();
        if (a <= b) {
            EXPECT_LE(ha, hb) << a << " vs " << b;
        } else {
            EXPECT_GE(ha, hb) << a << " vs " << b;
        }
    }
}

TEST(Half, BitwiseEquality)
{
    EXPECT_EQ(Half(1.5f), Half(1.5f));
    EXPECT_NE(Half(1.5f), Half(-1.5f));
    EXPECT_NE(Half(0.0f), Half(-0.0f));  // bitwise: signed zeros differ
}

class HalfExactValues : public ::testing::TestWithParam<float>
{
};

TEST_P(HalfExactValues, SmallIntegersAreExact)
{
    const float v = GetParam();
    EXPECT_EQ(Half(v).toFloat(), v);
}

INSTANTIATE_TEST_SUITE_P(Integers, HalfExactValues,
                         ::testing::Values(-2048.0f, -17.0f, -3.0f, -1.0f,
                                           0.0f, 1.0f, 2.0f, 3.0f, 5.0f,
                                           255.0f, 1024.0f, 2048.0f));

}  // namespace
}  // namespace hilos

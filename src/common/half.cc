#include "common/half.h"

#include <cmath>
#include <cstring>

namespace hilos {

namespace {

std::uint32_t
floatBits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

float
bitsToFloat(std::uint32_t u)
{
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
}

}  // namespace

std::uint16_t
Half::fromFloat(float value)
{
    const std::uint32_t f = floatBits(value);
    const std::uint32_t sign = (f >> 16) & 0x8000u;
    const std::uint32_t exp32 = (f >> 23) & 0xffu;
    std::uint32_t mant = f & 0x007fffffu;

    if (exp32 == 0xff) {
        // Inf or NaN. Preserve NaN-ness by forcing a nonzero mantissa.
        const std::uint32_t nan_payload = mant ? 0x0200u : 0u;
        return static_cast<std::uint16_t>(sign | 0x7c00u | nan_payload);
    }

    // Unbiased exponent.
    const int e = static_cast<int>(exp32) - 127;

    if (e > 15) {
        // Overflow -> infinity (round-to-nearest maps all too-large
        // magnitudes past halfway to inf).
        return static_cast<std::uint16_t>(sign | 0x7c00u);
    }

    if (e >= -14) {
        // Normal half. Keep 10 mantissa bits, round-to-nearest-even on
        // the 13 dropped bits.
        std::uint32_t half_exp = static_cast<std::uint32_t>(e + 15);
        std::uint32_t half_mant = mant >> 13;
        const std::uint32_t rem = mant & 0x1fffu;
        const std::uint32_t halfway = 0x1000u;
        if (rem > halfway || (rem == halfway && (half_mant & 1u))) {
            half_mant++;
            if (half_mant == 0x400u) {  // mantissa carry into exponent
                half_mant = 0;
                half_exp++;
                if (half_exp == 31)
                    return static_cast<std::uint16_t>(sign | 0x7c00u);
            }
        }
        return static_cast<std::uint16_t>(sign | (half_exp << 10) |
                                          half_mant);
    }

    if (e >= -24) {
        // Subnormal half: shift in the implicit leading one, then round.
        mant |= 0x00800000u;
        const int shift = -e - 14 + 13;  // 14..23
        std::uint32_t half_mant = mant >> shift;
        const std::uint32_t rem = mant & ((1u << shift) - 1);
        const std::uint32_t halfway = 1u << (shift - 1);
        if (rem > halfway || (rem == halfway && (half_mant & 1u)))
            half_mant++;
        // A carry out of the subnormal range lands exactly on the
        // smallest normal (exponent field becomes 1) — the bit pattern
        // works out naturally.
        return static_cast<std::uint16_t>(sign | half_mant);
    }

    // Underflow to signed zero.
    return static_cast<std::uint16_t>(sign);
}

float
Half::halfToFloat(std::uint16_t bits)
{
    const std::uint32_t sign = (static_cast<std::uint32_t>(bits) & 0x8000u)
                               << 16;
    const std::uint32_t exp16 = (bits >> 10) & 0x1fu;
    std::uint32_t mant = bits & 0x3ffu;

    if (exp16 == 0) {
        if (mant == 0)
            return bitsToFloat(sign);  // signed zero
        // Subnormal: normalise.
        int e = -1;
        do {
            e++;
            mant <<= 1;
        } while ((mant & 0x400u) == 0);
        mant &= 0x3ffu;
        const std::uint32_t exp32 = static_cast<std::uint32_t>(127 - 15 - e);
        return bitsToFloat(sign | (exp32 << 23) | (mant << 13));
    }

    if (exp16 == 31) {
        // Inf or NaN.
        return bitsToFloat(sign | 0x7f800000u | (mant << 13));
    }

    const std::uint32_t exp32 = exp16 + (127 - 15);
    return bitsToFloat(sign | (exp32 << 23) | (mant << 13));
}

}  // namespace hilos

/**
 * @file
 * IEEE-754 binary16 ("half") storage type.
 *
 * The HILOS accelerator stores KV-cache data in FP16 and accumulates in
 * FP32 (§5.4 of the paper). This type reproduces that behaviour in
 * software: conversion to/from float uses round-to-nearest-even, and all
 * arithmetic is performed by converting through float, exactly as a
 * load/compute/store pipeline with FP32 internal precision would.
 */

#ifndef HILOS_COMMON_HALF_H_
#define HILOS_COMMON_HALF_H_

#include <cstdint>

namespace hilos {

/**
 * IEEE-754 binary16 value. Trivially copyable, 2 bytes, so vectors of
 * Half model device buffers byte-for-byte.
 */
class Half
{
  public:
    /** Zero-initialised half. */
    constexpr Half() : bits_(0) {}

    /** Convert from float with round-to-nearest-even. */
    explicit Half(float value) : bits_(fromFloat(value)) {}

    /** Reinterpret raw binary16 bits. */
    static constexpr Half
    fromBits(std::uint16_t bits)
    {
        Half h;
        h.bits_ = bits;
        return h;
    }

    /** Raw binary16 bits. */
    constexpr std::uint16_t bits() const { return bits_; }

    /** Widen to float (exact: every binary16 value is a float). */
    float toFloat() const { return halfToFloat(bits_); }

    /** Implicit widening, mirroring hardware FP16->FP32 promotion. */
    operator float() const { return toFloat(); }

    /** Bitwise equality (distinguishes +0 from -0; NaN == NaN). */
    constexpr bool
    operator==(const Half &other) const
    {
        return bits_ == other.bits_;
    }
    constexpr bool
    operator!=(const Half &other) const
    {
        return bits_ != other.bits_;
    }

    /** Largest finite binary16 value (65504). */
    static constexpr Half max() { return fromBits(0x7bff); }
    /** Smallest positive normal binary16 value (2^-14). */
    static constexpr Half minNormal() { return fromBits(0x0400); }
    /** Positive infinity. */
    static constexpr Half infinity() { return fromBits(0x7c00); }

    /** Round-to-nearest-even float -> binary16 bits. */
    static std::uint16_t fromFloat(float value);
    /** Exact binary16 bits -> float. */
    static float halfToFloat(std::uint16_t bits);

  private:
    std::uint16_t bits_;
};

static_assert(sizeof(Half) == 2, "Half must be 2 bytes");

}  // namespace hilos

#endif  // HILOS_COMMON_HALF_H_

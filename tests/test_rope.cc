/**
 * @file
 * Tests for rotary position embeddings: norm preservation, relative-
 * position structure (the property attention relies on), determinism of
 * the cached tables, and the re-application identity the X-cache
 * regeneration depends on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "llm/rope.h"

namespace hilos {
namespace {

float
dot(const std::vector<float> &a, const std::vector<float> &b)
{
    float acc = 0;
    for (std::size_t i = 0; i < a.size(); i++)
        acc += a[i] * b[i];
    return acc;
}

TEST(Rope, PositionZeroIsIdentity)
{
    const RopeTable rope(8, 16);
    std::vector<float> v = {1, 2, 3, 4, 5, 6, 7, 8};
    const std::vector<float> orig = v;
    rope.apply(v.data(), 0);
    for (std::size_t i = 0; i < v.size(); i++)
        EXPECT_FLOAT_EQ(v[i], orig[i]);
}

TEST(Rope, RotationPreservesNorm)
{
    Rng rng(1);
    const RopeTable rope(64, 1024);
    for (std::size_t pos : {1ul, 17ul, 500ul, 1023ul}) {
        std::vector<float> v = rng.normalVector(64);
        float before = dot(v, v);
        rope.apply(v.data(), pos);
        EXPECT_NEAR(dot(v, v), before, before * 1e-5f) << "pos " << pos;
    }
}

TEST(Rope, DotProductDependsOnRelativePositionOnly)
{
    // <R(p) q, R(p+k) v> must be invariant in p — the property that
    // makes RoPE a *relative* encoding.
    Rng rng(2);
    const RopeTable rope(32, 4096);
    std::vector<float> q = rng.normalVector(32);
    std::vector<float> k = rng.normalVector(32);
    const std::size_t delta = 37;

    auto rotated_dot = [&](std::size_t p) {
        std::vector<float> qa = q, kb = k;
        rope.apply(qa.data(), p);
        rope.apply(kb.data(), p + delta);
        return dot(qa, kb);
    };
    const float base = rotated_dot(0);
    for (std::size_t p : {10ul, 100ul, 2000ul})
        EXPECT_NEAR(rotated_dot(p), base, std::fabs(base) * 1e-3f + 1e-3f)
            << "p " << p;
}

TEST(Rope, DifferentPositionsGiveDifferentVectors)
{
    Rng rng(3);
    const RopeTable rope(16, 64);
    std::vector<float> a = rng.normalVector(16);
    std::vector<float> b = a;
    rope.apply(a.data(), 1);
    rope.apply(b.data(), 2);
    float diff = 0;
    for (std::size_t i = 0; i < 16; i++)
        diff += std::fabs(a[i] - b[i]);
    EXPECT_GT(diff, 1e-3f);
}

TEST(Rope, ReapplicationReproducesOriginalRotation)
{
    // The X-cache regeneration identity: rotating a freshly projected K
    // at its historical position equals the K that was rotated when the
    // token was first processed.
    Rng rng(4);
    const RopeTable rope(32, 128);
    std::vector<float> k_proj = rng.normalVector(32);

    std::vector<float> first = k_proj;
    rope.apply(first.data(), 77);  // at token time
    std::vector<float> regen = k_proj;
    rope.apply(regen.data(), 77);  // regenerated later from X
    for (std::size_t i = 0; i < 32; i++)
        EXPECT_FLOAT_EQ(first[i], regen[i]);
}

TEST(Rope, TableBytesAreSmall)
{
    // The "efficient caching strategy": the whole 128K x 128 table is
    // megabytes, vs terabytes of KV cache.
    const RopeTable rope(128, 131072);
    EXPECT_LT(rope.tableBytes(), 70u << 20);
}

TEST(Rope, OddDimensionDies)
{
    EXPECT_DEATH(RopeTable(7, 16), "even");
}

TEST(Rope, PositionBeyondTableDies)
{
    const RopeTable rope(8, 16);
    std::vector<float> v(8, 1.0f);
    EXPECT_DEATH(rope.apply(v.data(), 16), "beyond");
}

}  // namespace
}  // namespace hilos

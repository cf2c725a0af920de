/**
 * @file
 * Tests for the minimal matrix type and FP16 conversion helpers.
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "llm/tensor.h"

namespace hilos {
namespace {

TEST(Matrix, ConstructionAndFill)
{
    Matrix m(2, 3, 1.5f);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    for (std::size_t i = 0; i < m.size(); i++)
        EXPECT_FLOAT_EQ(m.data()[i], 1.5f);
}

TEST(Matrix, MatmulMatchesHandComputation)
{
    Matrix a(2, 2);
    a.at(0, 0) = 1;
    a.at(0, 1) = 2;
    a.at(1, 0) = 3;
    a.at(1, 1) = 4;
    Matrix b(2, 2);
    b.at(0, 0) = 5;
    b.at(0, 1) = 6;
    b.at(1, 0) = 7;
    b.at(1, 1) = 8;
    const Matrix c = a.matmul(b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(Matrix, MatmulShapeMismatchDies)
{
    Matrix a(2, 3), b(2, 3);
    EXPECT_DEATH(a.matmul(b), "mismatch");
}

TEST(Matrix, MaxAbsDiff)
{
    Matrix a(1, 3), b(1, 3);
    a.at(0, 0) = 1;
    b.at(0, 0) = 1.5;
    a.at(0, 2) = -2;
    b.at(0, 2) = 2;
    EXPECT_FLOAT_EQ(a.maxAbsDiff(b), 4.0f);
}

TEST(Matrix, RandomIsDeterministicPerSeed)
{
    Rng r1(9), r2(9);
    const Matrix a = Matrix::random(3, 3, r1);
    const Matrix b = Matrix::random(3, 3, r2);
    EXPECT_FLOAT_EQ(a.maxAbsDiff(b), 0.0f);
}

TEST(HalfConversion, RoundTripWithinUlp)
{
    Rng rng(3);
    const Matrix m = Matrix::random(8, 8, rng);
    const Matrix back = fromHalf(toHalf(m), 8, 8);
    EXPECT_LT(m.maxAbsDiff(back), 5e-3f);
}

TEST(HalfConversion, ShapeMismatchDies)
{
    std::vector<Half> buf(10);
    EXPECT_DEATH(fromHalf(buf, 3, 4), "mismatch");
}

}  // namespace
}  // namespace hilos

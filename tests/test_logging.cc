/**
 * @file
 * Tests for the logging/error-reporting helpers.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/logging.h"

namespace hilos {
namespace {

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(HILOS_FATAL("bad config value ", 42),
                 std::runtime_error);
}

TEST(Logging, FatalMessageIncludesComposedPieces)
{
    try {
        HILOS_FATAL("expected ", 3, " devices, got ", 5);
        FAIL() << "fatal did not throw";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("expected 3 devices, got 5"),
                  std::string::npos);
    }
}

TEST(Logging, AssertPassesOnTrueCondition)
{
    EXPECT_NO_THROW(HILOS_ASSERT(1 + 1 == 2, "math works"));
}

TEST(Logging, AssertDeathOnFalseCondition)
{
    EXPECT_DEATH(HILOS_ASSERT(false, "must not hold"), "assertion");
}

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(HILOS_PANIC("internal invariant broken"), "panic");
}

}  // namespace
}  // namespace hilos

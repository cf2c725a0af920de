/**
 * @file
 * Heap footprint of a cold plan build, counted deterministically.
 *
 * Every engine is cheap to construct: building one and asking it for
 * its decode and prefill plans allocates kilobytes, not the megabytes
 * a device model with a functional FTL would cost. The bound is a byte
 * count, not a wall time, so it cannot flake on a loaded host.
 *
 * This binary replaces the global operator new with a counting one;
 * it is its own executable so the counter affects nothing else.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/hilos.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_bytes{0};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_bytes.fetch_add(size, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

}  // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace hilos {
namespace {

constexpr std::uint64_t kFootprintBound = 64 * 1024;

/** Bytes allocated by makeEngine plus a decode and a prefill plan. */
std::uint64_t
coldPlanBytes(EngineKind kind, const SystemConfig &sys,
              const RunConfig &run)
{
    g_bytes.store(0);
    g_counting.store(true);
    const auto engine = makeEngine(kind, sys);
    const StepPlan decode = decodeStepPlanFor(kind, sys, run);
    const StepPlan prefill = prefillStepPlanFor(kind, sys, run);
    g_counting.store(false);
    EXPECT_NE(engine, nullptr);
    EXPECT_TRUE(decode.feasible) << decode.note;
    EXPECT_TRUE(prefill.feasible) << prefill.note;
    return g_bytes.load();
}

TEST(EngineFootprint, ColdPlanBuildAllocatesUnder64KiB)
{
    const SystemConfig sys = defaultSystem();
    RunConfig run;
    run.model = opt66b();
    run.batch = 16;
    run.context_len = 16384;
    run.output_len = 64;
    for (const EngineKind kind :
         {EngineKind::FlexDram, EngineKind::FlexSsd,
          EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
          EngineKind::VllmMultiGpu, EngineKind::Hilos}) {
        const std::uint64_t bytes = coldPlanBytes(kind, sys, run);
        EXPECT_GT(bytes, 0u) << "the allocation counter is not wired";
        EXPECT_LT(bytes, kFootprintBound)
            << makeEngine(kind, sys)->name() << " allocated " << bytes
            << " B for one engine and its two plans";
    }
}

}  // namespace
}  // namespace hilos

#include "runtime/plan_cache.h"

namespace hilos {

namespace {

/** The 64-bit FNV-1a prime. */
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

}  // namespace

std::uint64_t
PlanCache::keyOf(std::string_view engine_name, std::string_view model_name,
                 PlanPhase phase)
{
    // FNV-1a, 64-bit. Collisions only cost a rebuild mismatch.
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::string_view s) {
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= kFnvPrime;
        }
    };
    mix(engine_name);
    mix("|");
    mix(model_name);
    mix("|");
    mix(planPhaseName(phase));
    return h;
}

std::uint64_t
PlanCache::mixKey(std::uint64_t key, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        key ^= (value >> (8 * i)) & 0xffu;
        key *= kFnvPrime;
    }
    return key;
}

}  // namespace hilos

#include "accel/simd.h"

#include "common/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HILOS_SIMD_X86 1
#else
#define HILOS_SIMD_X86 0
#endif

namespace hilos {

namespace {

bool
cpuHasAvx2F16c()
{
#if HILOS_SIMD_X86
    return __builtin_cpu_supports("avx2") != 0 &&
           __builtin_cpu_supports("f16c") != 0;
#else
    return false;
#endif
}

SimdLevel &
activeLevelRef()
{
    static SimdLevel level =
        cpuHasAvx2F16c() ? SimdLevel::Avx2 : SimdLevel::Scalar;
    return level;
}

}  // namespace

const char *
simdLevelName(SimdLevel level)
{
    return level == SimdLevel::Avx2 ? "avx2" : "scalar";
}

bool
simdLevelSupported(SimdLevel level)
{
    return level == SimdLevel::Scalar || cpuHasAvx2F16c();
}

SimdLevel
activeSimdLevel()
{
    return activeLevelRef();
}

void
setSimdLevel(SimdLevel level)
{
    HILOS_ASSERT(simdLevelSupported(level), "SIMD level ",
                 simdLevelName(level), " is not supported on this CPU");
    activeLevelRef() = level;
}

}  // namespace hilos

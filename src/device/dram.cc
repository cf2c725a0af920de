#include "device/dram.h"

namespace hilos {

DramConfig
hostDramConfig()
{
    return DramConfig{};
}

}  // namespace hilos

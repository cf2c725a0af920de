#include "device/dram.h"

#include "common/logging.h"

namespace hilos {

Dram::Dram(const DramConfig &cfg) : cfg_(cfg)
{
    HILOS_ASSERT(cfg_.capacity > 0 && cfg_.bandwidth > 0.0,
                 "invalid DRAM config");
}

Seconds
Dram::accessTime(Bytes bytes) const
{
    HILOS_ASSERT(bytes >= 0.0, "negative bytes");
    return bytes / cfg_.bandwidth;
}

bool
Dram::reserve(std::uint64_t bytes)
{
    if (bytes > available())
        return false;
    reserved_ += bytes;
    return true;
}

void
Dram::release(std::uint64_t bytes)
{
    HILOS_ASSERT(bytes <= reserved_, "releasing more than reserved");
    reserved_ -= bytes;
}

DramConfig
hostDramConfig()
{
    return DramConfig{};
}

}  // namespace hilos

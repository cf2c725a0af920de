#include "sim/bandwidth.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace hilos {

BandwidthResource::BandwidthResource(std::string name, Bandwidth rate,
                                     Seconds latency)
    : name_(std::move(name)), rate_(rate), latency_(latency)
{
    HILOS_ASSERT(rate_ > 0.0, "bandwidth must be positive: ", rate_);
    HILOS_ASSERT(latency_ >= 0.0, "latency must be non-negative");
}

Seconds
BandwidthResource::serviceTime(std::uint64_t bytes) const
{
    return latency_ + Bytes(static_cast<double>(bytes)) / rate_;
}

Seconds
BandwidthResource::transfer(Seconds start, std::uint64_t bytes)
{
    const Seconds begin = std::max(start, busy_until_);
    const Seconds service = serviceTime(bytes);
    busy_until_ = begin + service;
    busy_time_ += service;
    return busy_until_;
}

Seconds
BandwidthResource::occupy(Seconds start, Seconds duration)
{
    HILOS_ASSERT(duration >= 0.0, "negative stall duration");
    if (duration == 0.0)
        return std::max(start, busy_until_);
    const Seconds begin = std::max(start, busy_until_);
    busy_until_ = begin + duration;
    busy_time_ += duration;
    return busy_until_;
}

double
BandwidthResource::utilization(Seconds horizon) const
{
    if (horizon <= 0.0)
        return 0.0;
    const double util = busy_time_ / horizon;
    // A serialised channel cannot be busy for longer than the window
    // that contains all of its service; a value above 1 means the
    // caller queried mid-flight (horizon < busyUntil()) or busy-time
    // accounting double-counted somewhere. Surface it instead of
    // silently saturating at 1.0.
    HILOS_ASSERT(util <= 1.0 + 1e-9,
                 "utilization of '", name_, "' exceeds 1: busy ",
                 busy_time_, " s over horizon ", horizon,
                 " s (busy until ", busy_until_,
                 " s); query after the window completes");
    return util;
}

}  // namespace hilos

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

void
BandwidthResource::setRate(Bandwidth rate)
{
    HILOS_ASSERT(rate > 0.0, "bandwidth must be positive: ", rate);
    rate_ = rate;
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

void
BandwidthResource::reset()
{
    busy_until_ = 0.0;
    busy_time_ = 0.0;
}

BandwidthPool::BandwidthPool(std::string name, unsigned instances,
                             Bandwidth rate, Seconds latency)
    : name_(std::move(name))
{
    HILOS_ASSERT(instances >= 1, "pool '", name_,
                 "' needs at least one instance");
    links_.reserve(instances);
    for (unsigned i = 0; i < instances; ++i)
        links_.emplace_back(name_ + "[" + std::to_string(i) + "]", rate,
                            latency);
}

Seconds
BandwidthPool::occupyOn(std::uint64_t i, Seconds start, Seconds duration)
{
    return links_[i % links_.size()].occupy(start, duration);
}

Seconds
BandwidthPool::occupyNext(Seconds start, Seconds duration)
{
    const Seconds done = links_[next_].occupy(start, duration);
    next_ = (next_ + 1) % links_.size();
    return done;
}

const BandwidthResource &
BandwidthPool::instance(unsigned i) const
{
    HILOS_ASSERT(i < links_.size(), "pool '", name_, "' has ",
                 links_.size(), " instances, asked for ", i);
    return links_[i];
}

Seconds
BandwidthPool::maxBusyUntil() const
{
    Seconds latest = 0.0;
    for (const BandwidthResource &link : links_)
        latest = std::max(latest, link.busyUntil());
    return latest;
}

double
BandwidthPool::meanUtilization(Seconds horizon) const
{
    double sum = 0.0;
    for (const BandwidthResource &link : links_)
        sum += link.utilization(horizon);
    return sum / static_cast<double>(links_.size());
}

void
BandwidthPool::reset()
{
    for (BandwidthResource &link : links_)
        link.reset();
    next_ = 0;
}

}  // namespace hilos

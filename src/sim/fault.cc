#include "sim/fault.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/logging.h"

namespace hilos {

bool
isHostScope(FaultKind kind)
{
    return kind == FaultKind::HostFail ||
           kind == FaultKind::HostLinkDegrade ||
           kind == FaultKind::HostStall;
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::NandReadError:
        return "nand-read-error";
      case FaultKind::NvmeTimeout:
        return "nvme-timeout";
      case FaultKind::LinkDegrade:
        return "link-degrade";
      case FaultKind::DeviceFail:
        return "device-fail";
      case FaultKind::HostFail:
        return "host-fail";
      case FaultKind::HostLinkDegrade:
        return "host-link-degrade";
      case FaultKind::HostStall:
        return "host-stall";
    }
    return "unknown";
}

Seconds
RetryPolicy::backoffDelay(unsigned attempt) const
{
    HILOS_ASSERT(attempt >= 1, "backoff attempt is 1-based");
    Seconds delay = backoff_base;
    for (unsigned i = 1; i < attempt; i++) {
        delay *= backoff_multiplier;
        if (delay >= backoff_cap)
            return backoff_cap;
    }
    return std::min(delay, backoff_cap);
}

Seconds
RetryPolicy::expectedNvmePenalty(double timeout_prob) const
{
    if (timeout_prob <= 0.0)
        return 0.0;
    HILOS_ASSERT(timeout_prob <= 1.0, "invalid timeout probability");
    // Attempt k (1-based) happens with probability p^k of the previous
    // k attempts all timing out; each timeout pays the command timeout
    // plus the k-th backoff delay before re-issue.
    Seconds expected = 0.0;
    double p_k = 1.0;
    for (unsigned k = 1; k < nvme_max_attempts; k++) {
        p_k *= timeout_prob;
        expected += p_k * (nvme_timeout + backoffDelay(k));
    }
    return expected;
}

Seconds
RetryPolicy::expectedEccPenalty(double error_prob) const
{
    if (error_prob <= 0.0)
        return 0.0;
    HILOS_ASSERT(error_prob <= 1.0, "invalid ECC error probability");
    // Ladder depth is drawn uniformly in [1, ecc_max_steps].
    const double mean_steps =
        (1.0 + static_cast<double>(ecc_max_steps)) / 2.0;
    return error_prob * mean_steps * ecc_step_latency;
}

FaultPlan &
FaultPlan::addNandReadError(double probability, unsigned device)
{
    FaultEvent ev;
    ev.kind = FaultKind::NandReadError;
    ev.device = device;
    ev.probability = probability;
    events.push_back(ev);
    return *this;
}

FaultPlan &
FaultPlan::addNvmeTimeout(double probability, unsigned device)
{
    FaultEvent ev;
    ev.kind = FaultKind::NvmeTimeout;
    ev.device = device;
    ev.probability = probability;
    events.push_back(ev);
    return *this;
}

FaultPlan &
FaultPlan::addLinkDegrade(Seconds at, double bw_multiplier,
                          unsigned device)
{
    FaultEvent ev;
    ev.kind = FaultKind::LinkDegrade;
    ev.device = device;
    ev.at = at;
    ev.bw_multiplier = bw_multiplier;
    events.push_back(ev);
    return *this;
}

FaultPlan &
FaultPlan::addUplinkDegrade(Seconds at, double bw_multiplier)
{
    return addLinkDegrade(at, bw_multiplier, kUplinkTarget);
}

FaultPlan &
FaultPlan::addDeviceFailure(Seconds at, unsigned device)
{
    FaultEvent ev;
    ev.kind = FaultKind::DeviceFail;
    ev.device = device;
    ev.at = at;
    events.push_back(ev);
    return *this;
}

FaultPlan &
FaultPlan::addFleetFailure(Seconds at)
{
    return addDeviceFailure(at, kAllDevices);
}

FaultPlan &
FaultPlan::addHostFailure(Seconds at, unsigned host)
{
    FaultEvent ev;
    ev.kind = FaultKind::HostFail;
    ev.device = host;
    ev.at = at;
    events.push_back(ev);
    return *this;
}

FaultPlan &
FaultPlan::addHostLinkDegrade(Seconds at, double bw_multiplier)
{
    FaultEvent ev;
    ev.kind = FaultKind::HostLinkDegrade;
    ev.device = kAllDevices;
    ev.at = at;
    ev.bw_multiplier = bw_multiplier;
    events.push_back(ev);
    return *this;
}

FaultPlan &
FaultPlan::addHostStall(Seconds at, Seconds duration, unsigned host)
{
    FaultEvent ev;
    ev.kind = FaultKind::HostStall;
    ev.device = host;
    ev.at = at;
    ev.duration = duration;
    events.push_back(ev);
    return *this;
}

std::vector<std::string>
FaultPlan::validate() const
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const FaultEvent &ev = events[i];
        const std::string ref = "event[" + std::to_string(i) + "] " +
                                faultKindName(ev.kind);
        const bool probabilistic = ev.kind == FaultKind::NandReadError ||
                                   ev.kind == FaultKind::NvmeTimeout;
        const bool degrade = ev.kind == FaultKind::LinkDegrade ||
                             ev.kind == FaultKind::HostLinkDegrade;
        if (probabilistic &&
            !(ev.probability >= 0.0 && ev.probability <= 1.0)) {
            out.push_back(ref + ": probability " +
                          std::to_string(ev.probability) +
                          " is outside [0, 1]");
        }
        if (degrade &&
            !(ev.bw_multiplier > 0.0 && ev.bw_multiplier <= 1.0)) {
            out.push_back(ref + ": bandwidth multiplier " +
                          std::to_string(ev.bw_multiplier) +
                          " is outside (0, 1]");
        }
        if (!(std::isfinite(ev.at) && ev.at >= 0.0)) {
            out.push_back(ref + ": activation time " +
                          std::to_string(ev.at) +
                          " is not finite and non-negative");
        }
        if (ev.kind == FaultKind::HostStall &&
            !(std::isfinite(ev.duration) && ev.duration >= 0.0)) {
            out.push_back(ref + ": stall duration " +
                          std::to_string(ev.duration) +
                          " is not finite and non-negative");
        }
        if (ev.device != kAllDevices && ev.device != kUplinkTarget &&
            ev.device >= kMaxRealTarget) {
            out.push_back(ref + ": target " + std::to_string(ev.device) +
                          " is inside the reserved sentinel gap [" +
                          std::to_string(kMaxRealTarget) + ", " +
                          std::to_string(kUplinkTarget) + ")");
        }
        if (isHostScope(ev.kind) && ev.device == kUplinkTarget) {
            out.push_back(ref + ": the chassis-uplink sentinel is not a "
                                "valid host target");
        }
        if (ev.kind == FaultKind::HostLinkDegrade &&
            ev.device != kAllDevices) {
            out.push_back(ref + ": the inter-host interconnect is "
                                "shared; a per-host target " +
                          std::to_string(ev.device) + " is meaningless");
        }
    }

    // Worst-case compound derate per link: every in-range degrade event
    // active at once, as FaultInjector and HostFaultView multiply them.
    double uplink = 1.0;
    double fleet_wide = 1.0;
    double inter_host = 1.0;
    std::map<unsigned, double> per_device;
    for (const FaultEvent &ev : events) {
        if (!(ev.bw_multiplier > 0.0 && ev.bw_multiplier <= 1.0))
            continue;  // already named above
        if (ev.kind == FaultKind::HostLinkDegrade) {
            inter_host *= ev.bw_multiplier;
        } else if (ev.kind == FaultKind::LinkDegrade) {
            if (ev.device == kUplinkTarget)
                uplink *= ev.bw_multiplier;
            else if (ev.device == kAllDevices)
                fleet_wide *= ev.bw_multiplier;
            else
                per_device.try_emplace(ev.device, 1.0).first->second *=
                    ev.bw_multiplier;
        }
    }
    double device_link = 1.0;
    for (const auto &[dev, derate] : per_device)
        device_link = std::min(device_link, derate);
    const struct {
        const char *link;
        double derate;
    } compound[] = {{"chassis-uplink", uplink},
                    {"device-link", fleet_wide * device_link},
                    {"inter-host", inter_host}};
    for (const auto &c : compound) {
        if (c.derate < kMinCompoundDerate) {
            std::ostringstream os;
            os << "compound " << c.link << " derate " << c.derate
               << " is below the floor " << kMinCompoundDerate;
            out.push_back(os.str());
        }
    }
    return out;
}

FaultPlan
FaultPlan::deviceScope() const
{
    FaultPlan out;
    out.seed = seed;
    out.retry = retry;
    for (const FaultEvent &ev : events) {
        if (!isHostScope(ev.kind))
            out.events.push_back(ev);
    }
    return out;
}

bool
FaultPlan::hasHostEvents() const
{
    for (const FaultEvent &ev : events) {
        if (isHostScope(ev.kind))
            return true;
    }
    return false;
}

namespace {

std::vector<std::string>
splitClauses(const std::string &spec)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : spec) {
        if (c == ';' || c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

double
parseDouble(const std::string &s, const std::string &clause)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0')
        HILOS_FATAL("fault plan: bad number '", s, "' in '", clause, "'");
    return v;
}

unsigned
parseDevice(const std::string &s, const std::string &clause)
{
    if (s == "all")
        return kAllDevices;
    char *end = nullptr;
    const unsigned long v = std::strtoul(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
        HILOS_FATAL("fault plan: bad device '", s, "' in '", clause, "'");
    return static_cast<unsigned>(v);
}

/** Split "value[:dev]" into the value string and a device target. */
std::pair<std::string, unsigned>
splitDeviceSuffix(const std::string &s, const std::string &clause)
{
    const auto colon = s.find(':');
    if (colon == std::string::npos)
        return {s, kAllDevices};
    return {s.substr(0, colon),
            parseDevice(s.substr(colon + 1), clause)};
}

}  // namespace

FaultPlan
parseFaultPlan(const std::string &spec)
{
    FaultPlan plan;
    for (const std::string &clause : splitClauses(spec)) {
        const auto eq = clause.find('=');
        if (eq == std::string::npos)
            HILOS_FATAL("fault plan: missing '=' in '", clause, "'");
        std::string key = clause.substr(0, eq);
        const std::string value = clause.substr(eq + 1);
        Seconds at = 0.0;
        const auto at_pos = key.find('@');
        if (at_pos != std::string::npos) {
            at = parseDouble(key.substr(at_pos + 1), clause);
            key = key.substr(0, at_pos);
        }

        if (key == "seed") {
            plan.seed = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
        } else if (key == "nand-err") {
            const auto [v, dev] = splitDeviceSuffix(value, clause);
            plan.addNandReadError(parseDouble(v, clause), dev);
        } else if (key == "nvme-timeout") {
            const auto [v, dev] = splitDeviceSuffix(value, clause);
            plan.addNvmeTimeout(parseDouble(v, clause), dev);
        } else if (key == "degrade") {
            const auto [v, dev] = splitDeviceSuffix(value, clause);
            plan.addLinkDegrade(at, parseDouble(v, clause), dev);
        } else if (key == "uplink") {
            plan.addUplinkDegrade(at, parseDouble(value, clause));
        } else if (key == "fail") {
            plan.addDeviceFailure(at, parseDevice(value, clause));
        } else if (key == "host-fail") {
            plan.addHostFailure(at, parseDevice(value, clause));
        } else if (key == "host-degrade") {
            plan.addHostLinkDegrade(at, parseDouble(value, clause));
        } else if (key == "host-stall") {
            const auto [v, host] = splitDeviceSuffix(value, clause);
            plan.addHostStall(at, parseDouble(v, clause), host);
        } else {
            HILOS_FATAL("fault plan: unknown clause '", clause,
                        "' (seed, nand-err, nvme-timeout, degrade, "
                        "uplink, fail, host-fail, host-degrade, "
                        "host-stall)");
        }
    }
    return plan;
}

bool
FaultStats::any() const
{
    return nand_read_errors > 0 || nvme_timeouts > 0 ||
           nvme_failures > 0 || redispatched_slices > 0 ||
           retry_time > 0.0;
}

FaultInjector::FaultInjector() = default;

FaultInjector::FaultInjector(const FaultPlan &plan, unsigned num_devices)
    : active_(!plan.empty()), num_devices_(num_devices),
      retry_(plan.retry),
      nand_prob_(num_devices, 0.0), nvme_prob_(num_devices, 0.0),
      fail_at_(num_devices, std::numeric_limits<Seconds>::infinity())
{
    HILOS_ASSERT(num_devices >= 1, "fault injector needs >= 1 device");
    const std::vector<std::string> diags = plan.validate();
    if (!diags.empty())
        HILOS_FATAL("invalid fault plan: ", diags.front());
    for (const FaultEvent &ev : plan.events) {
        // Host-scope events are HostFaultView's business; a device
        // injector sees only the device-scope subset.
        if (isHostScope(ev.kind))
            continue;
        const bool fleet_wide = ev.device == kAllDevices;
        HILOS_ASSERT(fleet_wide || ev.device == kUplinkTarget ||
                         ev.device < num_devices,
                     "fault event targets device ", ev.device,
                     " but the fleet has ", num_devices);
        switch (ev.kind) {
          case FaultKind::NandReadError:
            for (unsigned d = 0; d < num_devices; d++) {
                if (fleet_wide || ev.device == d) {
                    nand_prob_[d] = std::min(
                        1.0, nand_prob_[d] + ev.probability);
                }
            }
            break;
          case FaultKind::NvmeTimeout:
            for (unsigned d = 0; d < num_devices; d++) {
                if (fleet_wide || ev.device == d) {
                    nvme_prob_[d] = std::min(
                        1.0, nvme_prob_[d] + ev.probability);
                }
            }
            break;
          case FaultKind::LinkDegrade:
            degrades_.push_back(ev);
            break;
          case FaultKind::DeviceFail:
            for (unsigned d = 0; d < num_devices; d++) {
                if (fleet_wide || ev.device == d)
                    fail_at_[d] = std::min(fail_at_[d], ev.at);
            }
            break;
          default:
            break;
        }
    }
    if (active_) {
        // One independent stream per device: draws on one device never
        // shift another device's sequence (splitmix-style seeding).
        rng_.reserve(num_devices);
        for (unsigned d = 0; d < num_devices; d++) {
            std::uint64_t z =
                plan.seed + 0x9e3779b97f4a7c15ull *
                                (static_cast<std::uint64_t>(d) + 1);
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            rng_.emplace_back(z ^ (z >> 31));
        }
    }
}

std::mt19937_64 &
FaultInjector::rngFor(unsigned dev)
{
    HILOS_ASSERT(dev < rng_.size(), "no RNG stream for device ", dev);
    return rng_[dev];
}

Seconds
FaultInjector::nandReadPenalty(unsigned dev)
{
    if (!active_ || nand_prob_[dev] <= 0.0)
        return 0.0;
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(rngFor(dev)) >= nand_prob_[dev])
        return 0.0;
    std::uniform_int_distribution<unsigned> steps_dist(
        1, retry_.ecc_max_steps);
    const unsigned steps = steps_dist(rngFor(dev));
    const Seconds penalty =
        static_cast<double>(steps) * retry_.ecc_step_latency;
    stats_.nand_read_errors++;
    stats_.nand_retry_steps += steps;
    stats_.retry_time += penalty;
    return penalty;
}

FaultInjector::NvmeOutcome
FaultInjector::nvmeCommand(unsigned dev)
{
    NvmeOutcome out;
    if (!active_ || nvme_prob_[dev] <= 0.0)
        return out;
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (unsigned attempt = 1; attempt <= retry_.nvme_max_attempts;
         attempt++) {
        if (u(rngFor(dev)) >= nvme_prob_[dev])
            return out;  // this attempt completed
        stats_.nvme_timeouts++;
        if (attempt == retry_.nvme_max_attempts) {
            out.failed = true;  // retries exhausted
            stats_.nvme_failures++;
            return out;
        }
        const Seconds delay =
            retry_.nvme_timeout + retry_.backoffDelay(attempt);
        out.extra_latency += delay;
        out.retries++;
        stats_.nvme_retries++;
        stats_.retry_time += delay;
    }
    return out;
}

double
FaultInjector::nandErrorProbability(unsigned dev) const
{
    return active_ ? nand_prob_.at(dev) : 0.0;
}

double
FaultInjector::nvmeTimeoutProbability(unsigned dev) const
{
    return active_ ? nvme_prob_.at(dev) : 0.0;
}

double
FaultInjector::linkDerate(unsigned dev, Seconds now) const
{
    double derate = 1.0;
    for (const FaultEvent &ev : degrades_) {
        if (ev.device == kUplinkTarget)
            continue;
        if ((ev.device == kAllDevices || ev.device == dev) &&
            now >= ev.at) {
            derate *= ev.bw_multiplier;
        }
    }
    return derate;
}

double
FaultInjector::uplinkDerate(Seconds now) const
{
    double derate = 1.0;
    for (const FaultEvent &ev : degrades_) {
        if (ev.device == kUplinkTarget && now >= ev.at)
            derate *= ev.bw_multiplier;
    }
    return derate;
}

bool
FaultInjector::deviceFailed(unsigned dev, Seconds now) const
{
    return active_ && now >= fail_at_.at(dev);
}

Seconds
FaultInjector::deviceFailTime(unsigned dev) const
{
    if (!active_)
        return std::numeric_limits<Seconds>::infinity();
    return fail_at_.at(dev);
}

unsigned
FaultInjector::survivingDevices(Seconds now) const
{
    if (!active_)
        return num_devices_;
    unsigned alive = 0;
    for (unsigned d = 0; d < num_devices_; d++) {
        if (!deviceFailed(d, now))
            alive++;
    }
    return alive;
}

std::vector<Seconds>
FaultInjector::eventTimes() const
{
    std::vector<Seconds> times;
    for (Seconds t : fail_at_) {
        if (std::isfinite(t))
            times.push_back(t);
    }
    for (const FaultEvent &ev : degrades_)
        times.push_back(ev.at);
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    return times;
}

HostFaultView::HostFaultView() = default;

HostFaultView::HostFaultView(const FaultPlan &plan, unsigned num_hosts)
    : num_hosts_(num_hosts),
      fail_at_(num_hosts, std::numeric_limits<Seconds>::infinity())
{
    HILOS_ASSERT(num_hosts >= 1, "host fault view needs >= 1 host");
    const std::vector<std::string> diags = plan.validate();
    if (!diags.empty())
        HILOS_FATAL("invalid fault plan: ", diags.front());
    for (const FaultEvent &ev : plan.events) {
        if (!isHostScope(ev.kind))
            continue;
        active_ = true;
        const bool fleet_wide = ev.device == kAllDevices;
        HILOS_ASSERT(fleet_wide || ev.device < num_hosts,
                     "host event targets host ", ev.device,
                     " but the fleet has ", num_hosts, " hosts");
        switch (ev.kind) {
          case FaultKind::HostFail:
            for (unsigned h = 0; h < num_hosts; h++) {
                if (fleet_wide || ev.device == h)
                    fail_at_[h] = std::min(fail_at_[h], ev.at);
            }
            break;
          case FaultKind::HostLinkDegrade:
            degrades_.push_back(ev);
            break;
          case FaultKind::HostStall:
            if (ev.duration <= 0.0)
                break;  // a zero-length stall is unobservable
            for (unsigned h = 0; h < num_hosts; h++) {
                if (!fleet_wide && ev.device != h)
                    continue;
                StallWindow w;
                w.host = h;
                w.begin = ev.at;
                const Seconds budget = ladderBudget(plan.retry);
                w.escalated = ev.duration > budget;
                w.end = ev.at + (w.escalated
                                     ? budget
                                     : probeRecovery(plan.retry,
                                                     ev.duration));
                stalls_.push_back(w);
                if (w.escalated)
                    fail_at_[h] = std::min(fail_at_[h], w.end);
            }
            break;
          default:
            break;
        }
    }
}

bool
HostFaultView::hostFailed(unsigned host, Seconds now) const
{
    return active_ && now >= fail_at_.at(host);
}

bool
HostFaultView::hostStalled(unsigned host, Seconds now) const
{
    if (!active_ || hostFailed(host, now))
        return false;
    for (const StallWindow &w : stalls_) {
        if (w.host == host && now >= w.begin && now < w.end)
            return true;
    }
    return false;
}

Seconds
HostFaultView::hostFailTime(unsigned host) const
{
    if (!active_)
        return std::numeric_limits<Seconds>::infinity();
    return fail_at_.at(host);
}

unsigned
HostFaultView::servingHosts(Seconds now) const
{
    if (!active_)
        return num_hosts_;
    unsigned serving = 0;
    for (unsigned h = 0; h < num_hosts_; h++) {
        if (!hostFailed(h, now) && !hostStalled(h, now))
            serving++;
    }
    return serving;
}

unsigned
HostFaultView::stalledHosts(Seconds now) const
{
    if (!active_)
        return 0;
    unsigned stalled = 0;
    for (unsigned h = 0; h < num_hosts_; h++) {
        if (hostStalled(h, now))
            stalled++;
    }
    return stalled;
}

double
HostFaultView::interHostDerate(Seconds now) const
{
    double derate = 1.0;
    for (const FaultEvent &ev : degrades_) {
        if (now >= ev.at)
            derate *= ev.bw_multiplier;
    }
    return derate;
}

std::vector<Seconds>
HostFaultView::eventTimes() const
{
    std::vector<Seconds> times;
    for (Seconds t : fail_at_) {
        if (std::isfinite(t))
            times.push_back(t);
    }
    for (const StallWindow &w : stalls_) {
        times.push_back(w.begin);
        times.push_back(w.end);
    }
    for (const FaultEvent &ev : degrades_)
        times.push_back(ev.at);
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    return times;
}

Seconds
HostFaultView::ladderBudget(const RetryPolicy &retry)
{
    Seconds budget = 0.0;
    for (unsigned k = 1; k < retry.nvme_max_attempts; k++)
        budget += retry.nvme_timeout + retry.backoffDelay(k);
    return budget;
}

Seconds
HostFaultView::probeRecovery(const RetryPolicy &retry, Seconds duration)
{
    Seconds probe = 0.0;
    for (unsigned k = 1; k < retry.nvme_max_attempts; k++) {
        probe += retry.nvme_timeout + retry.backoffDelay(k);
        if (probe >= duration)
            return probe;
    }
    return probe;  // ladder exhausted: caller escalates instead
}

}  // namespace hilos

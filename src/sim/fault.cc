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

Seconds
RetryPolicy::ladderBudget() const
{
    Seconds budget = 0.0;
    for (unsigned k = 1; k < nvme_max_attempts; k++)
        budget += nvme_timeout + backoffDelay(k);
    return budget;
}

Seconds
RetryPolicy::probeRecovery(Seconds duration) const
{
    Seconds probe = 0.0;
    for (unsigned k = 1; k < nvme_max_attempts; k++) {
        probe += nvme_timeout + backoffDelay(k);
        if (probe >= duration)
            return probe;
    }
    return probe;  // ladder exhausted: caller escalates instead
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
    // active at once, as ConditionTimeline multiplies them.
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

ConditionTimeline::ConditionTimeline() : ConditionTimeline(FaultPlan{}, 1)
{
}

ConditionTimeline::ConditionTimeline(const FaultPlan &plan, unsigned devices,
                                     unsigned hosts)
    : num_devices_(devices), num_hosts_(hosts)
{
    HILOS_ASSERT(devices >= 1, "condition timeline needs >= 1 device");
    if (plan.empty())
        return;  // healthy forever: no per-device or per-host state
    nand_prob_.assign(devices, 0.0);
    nvme_prob_.assign(devices, 0.0);
    device_fail_at_.assign(devices, std::numeric_limits<Seconds>::infinity());
    host_fail_at_.assign(hosts, std::numeric_limits<Seconds>::infinity());
    const std::vector<std::string> diags = plan.validate();
    if (!diags.empty())
        HILOS_FATAL("invalid fault plan: ", diags.front());
    for (const FaultEvent &ev : plan.events) {
        const bool every = ev.device == kAllDevices;
        if (isHostScope(ev.kind)) {
            if (hosts == 0)
                continue;  // one chassis: no host layer to fault
            HILOS_ASSERT(every || ev.device < hosts,
                         "host event targets host ", ev.device,
                         " but the fleet has ", hosts, " hosts");
        } else if (!every && ev.device != kUplinkTarget &&
                   ev.device >= devices) {
            // FleetConfig::validate() checks host targets first; nothing
            // checks a device target against the engine's device count,
            // so one past it is the plan author's error, not a bug.
            HILOS_FATAL("fault plan: ", faultKindName(ev.kind),
                        " targets device ", ev.device, " but the fleet has ",
                        devices);
        }
        empty_ = false;
        switch (ev.kind) {
          case FaultKind::NandReadError:
          case FaultKind::NvmeTimeout: {
            std::vector<double> &prob =
                ev.kind == FaultKind::NandReadError ? nand_prob_
                                                    : nvme_prob_;
            for (unsigned d = 0; d < devices; d++) {
                if (every || ev.device == d)
                    prob[d] = std::min(1.0, prob[d] + ev.probability);
            }
            break;
          }
          case FaultKind::LinkDegrade:
            link_degrades_.push_back(ev);
            changes_.push_back(ev.at);
            break;
          case FaultKind::DeviceFail:
            for (unsigned d = 0; d < devices; d++) {
                if (every || ev.device == d)
                    device_fail_at_[d] = std::min(device_fail_at_[d], ev.at);
            }
            break;
          case FaultKind::HostFail:
            for (unsigned h = 0; h < hosts; h++) {
                if (every || ev.device == h)
                    host_fail_at_[h] = std::min(host_fail_at_[h], ev.at);
            }
            break;
          case FaultKind::HostLinkDegrade:
            host_degrades_.push_back(ev);
            changes_.push_back(ev.at);
            break;
          case FaultKind::HostStall:
            if (ev.duration <= 0.0)
                break;  // a zero-length stall is unobservable
            for (unsigned h = 0; h < hosts; h++) {
                if (!every && ev.device != h)
                    continue;
                StallWindow w;
                w.host = h;
                w.begin = ev.at;
                const Seconds budget = plan.retry.ladderBudget();
                w.escalated = ev.duration > budget;
                w.end = ev.at + (w.escalated
                                     ? budget
                                     : plan.retry.probeRecovery(ev.duration));
                stalls_.push_back(w);
                if (w.escalated)
                    host_fail_at_[h] = std::min(host_fail_at_[h], w.end);
                changes_.push_back(w.begin);
                changes_.push_back(w.end);
            }
            break;
        }
    }
    for (const std::vector<Seconds> *fails :
         {&device_fail_at_, &host_fail_at_}) {
        for (const Seconds t : *fails) {
            if (std::isfinite(t))
                changes_.push_back(t);
        }
    }
    std::sort(changes_.begin(), changes_.end());
    changes_.erase(std::unique(changes_.begin(), changes_.end()),
                   changes_.end());
}

Seconds
ConditionTimeline::nextChangeAfter(Seconds t) const
{
    for (const Seconds c : changes_) {
        if (c > t + 1e-12)
            return c;
    }
    return std::numeric_limits<Seconds>::infinity();
}

std::size_t
ConditionTimeline::segmentAt(Seconds t) const
{
    return static_cast<std::size_t>(
        std::upper_bound(changes_.begin(), changes_.end(), t) -
        changes_.begin());
}

bool
ConditionTimeline::deviceFailed(unsigned dev, Seconds t) const
{
    return t >= deviceFailTime(dev);
}

Seconds
ConditionTimeline::deviceFailTime(unsigned dev) const
{
    if (device_fail_at_.empty())
        return std::numeric_limits<Seconds>::infinity();
    return device_fail_at_.at(dev);
}

unsigned
ConditionTimeline::survivingDevices(Seconds t) const
{
    unsigned alive = 0;
    for (unsigned d = 0; d < num_devices_; d++)
        alive += deviceFailed(d, t) ? 0 : 1;
    return alive;
}

double
ConditionTimeline::linkDerate(unsigned dev, Seconds t) const
{
    double derate = 1.0;
    for (const FaultEvent &ev : link_degrades_) {
        if (ev.device != kUplinkTarget &&
            (ev.device == kAllDevices || ev.device == dev) && t >= ev.at)
            derate *= ev.bw_multiplier;
    }
    return derate;
}

double
ConditionTimeline::uplinkDerate(Seconds t) const
{
    double derate = 1.0;
    for (const FaultEvent &ev : link_degrades_) {
        if (ev.device == kUplinkTarget && t >= ev.at)
            derate *= ev.bw_multiplier;
    }
    return derate;
}

double
ConditionTimeline::nandErrorProbability(unsigned dev) const
{
    return nand_prob_.empty() ? 0.0 : nand_prob_.at(dev);
}

double
ConditionTimeline::nvmeTimeoutProbability(unsigned dev) const
{
    return nvme_prob_.empty() ? 0.0 : nvme_prob_.at(dev);
}

bool
ConditionTimeline::hostFailed(unsigned host, Seconds t) const
{
    return t >= hostFailTime(host);
}

bool
ConditionTimeline::hostStalled(unsigned host, Seconds t) const
{
    if (hostFailed(host, t))
        return false;
    for (const StallWindow &w : stalls_) {
        if (w.host == host && t >= w.begin && t < w.end)
            return true;
    }
    return false;
}

Seconds
ConditionTimeline::hostFailTime(unsigned host) const
{
    if (host_fail_at_.empty())
        return std::numeric_limits<Seconds>::infinity();
    return host_fail_at_.at(host);
}

unsigned
ConditionTimeline::servingHosts(Seconds t) const
{
    return num_hosts_ - failedHosts(t) - stalledHosts(t);
}

unsigned
ConditionTimeline::stalledHosts(Seconds t) const
{
    unsigned stalled = 0;
    for (unsigned h = 0; h < num_hosts_; h++)
        stalled += hostStalled(h, t) ? 1 : 0;
    return stalled;
}

unsigned
ConditionTimeline::failedHosts(Seconds t) const
{
    unsigned failed = 0;
    for (unsigned h = 0; h < num_hosts_; h++)
        failed += hostFailed(h, t) ? 1 : 0;
    return failed;
}

bool
ConditionTimeline::allHostsStalled(Seconds t) const
{
    return num_hosts_ > 0 && failedHosts(t) < num_hosts_ &&
           servingHosts(t) == 0;
}

double
ConditionTimeline::interHostDerate(Seconds t) const
{
    double derate = 1.0;
    for (const FaultEvent &ev : host_degrades_) {
        if (t >= ev.at)
            derate *= ev.bw_multiplier;
    }
    return derate;
}

ConditionTimeline::StallTally
ConditionTimeline::recoveredStallsBefore(Seconds end) const
{
    StallTally tally;
    for (const StallWindow &w : stalls_) {
        if (w.escalated || w.begin >= end)
            continue;
        tally.stalls++;
        tally.time += std::min(w.end, end) - w.begin;
    }
    return tally;
}

}  // namespace hilos

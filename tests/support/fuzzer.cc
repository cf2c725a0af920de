#include "support/fuzzer.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "llm/model_config.h"

namespace hilos {
namespace test {

namespace {

template <typename T, std::size_t N>
T
pick(Rng &rng, const T (&options)[N])
{
    return options[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(N) - 1))];
}

bool
chance(Rng &rng, double p)
{
    return rng.uniform() < p;
}

}  // namespace

std::uint64_t
fuzzSeedForIteration(std::uint64_t base_seed, std::uint64_t iter)
{
    // splitmix64: well-distributed stream of iteration seeds.
    std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (iter + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
FuzzAttentionCase::describe() const
{
    std::ostringstream os;
    os << "s=" << s << " d=" << d << " g=" << g << " valid=" << valid_len
       << " window=" << window_start << " sinks=" << sink_tokens
       << " buf=" << n_buf << " block=" << block_tokens;
    return os.str();
}

std::string
FuzzEngineCase::describe() const
{
    std::ostringstream os;
    os << "model=" << run.model.name << " batch=" << run.batch
       << " context=" << run.context_len << " output=" << run.output_len
       << " devices=" << opts.num_devices
       << " xcache=" << (opts.xcache ? 1 : 0)
       << " writeback=" << (opts.delayed_writeback ? 1 : 0)
       << " alpha=" << opts.alpha_override
       << " spill=" << opts.spill_interval
       << " cxl=" << (opts.cxl_mode ? 1 : 0)
       << " window=" << opts.attention_window
       << " faults=" << opts.fault_plan.events.size();
    return os.str();
}

ConfigFuzzer::ConfigFuzzer(std::uint64_t seed) : seed_(seed), rng_(seed) {}

FuzzAttentionCase
ConfigFuzzer::attentionCase()
{
    FuzzAttentionCase c;
    c.seed = seed_;
    constexpr std::size_t dims[] = {16, 32, 64, 128};
    c.d = pick(rng_, dims);
    c.g = static_cast<std::size_t>(rng_.uniformInt(1, 8));
    constexpr std::size_t blocks[] = {1, 7, 32, 128, 333};
    c.block_tokens = pick(rng_, blocks);

    // Stored context: off-burst lengths included; occasionally empty
    // (first decode steps, everything still host-buffered).
    c.s = chance(rng_, 0.05)
              ? 0
              : static_cast<std::size_t>(rng_.uniformInt(1, 1024));
    c.valid_len = c.s == 0 ? 0
                           : static_cast<std::size_t>(rng_.uniformInt(
                                 1, static_cast<std::int64_t>(c.s)));
    if (chance(rng_, 0.4) && c.valid_len > 0) {
        c.window_start = static_cast<std::size_t>(
            rng_.uniformInt(1, static_cast<std::int64_t>(c.valid_len)));
        if (chance(rng_, 0.5))
            c.sink_tokens = static_cast<std::size_t>(rng_.uniformInt(1, 8));
    }
    if (chance(rng_, 0.4))
        c.n_buf = static_cast<std::size_t>(rng_.uniformInt(1, 48));

    // Guarantee a non-empty attended context (the kernel's contract):
    // a fully slid window with no sinks and no buffered tail re-opens.
    const bool sinks_attended = c.sink_tokens > 0 && c.valid_len > 0;
    if (c.window_start >= c.valid_len && !sinks_attended && c.n_buf == 0) {
        if (c.valid_len > 0)
            c.window_start = c.valid_len - 1;
        else
            c.n_buf = 1 + static_cast<std::size_t>(rng_.uniformInt(0, 15));
    }
    return c;
}

FuzzEngineCase
ConfigFuzzer::engineCase(bool allow_faults)
{
    FuzzEngineCase c;
    c.seed = seed_;

    const std::vector<ModelConfig> models = allModels();
    c.run.model = models[static_cast<std::size_t>(rng_.uniformInt(
        0, static_cast<std::int64_t>(models.size()) - 1))];
    constexpr std::uint64_t batches[] = {1, 2, 4, 8, 16, 32};
    c.run.batch = pick(rng_, batches);
    // Log-uniform context in [2K, 128K], not necessarily a power of 2.
    const double e = rng_.uniform(11.0, 17.0);
    c.run.context_len = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(std::pow(2.0, e)),
        c.run.model.max_position);
    c.run.output_len = static_cast<std::uint64_t>(rng_.uniformInt(8, 128));

    constexpr unsigned fleets[] = {1, 2, 4, 6, 8, 12, 16};
    c.opts.num_devices = pick(rng_, fleets);
    c.opts.xcache = !chance(rng_, 0.2);
    c.opts.delayed_writeback = !chance(rng_, 0.2);
    c.opts.alpha_override =
        chance(rng_, 0.25) ? rng_.uniform(0.05, 0.95) : -1.0;
    constexpr unsigned spills[] = {4, 8, 16, 32, 64};
    c.opts.spill_interval = pick(rng_, spills);
    c.opts.cxl_mode = chance(rng_, 0.1);
    if (chance(rng_, 0.25))
        c.opts.attention_window = 1024 * static_cast<std::uint64_t>(
            rng_.uniformInt(1, static_cast<std::int64_t>(
                std::max<std::uint64_t>(1, c.run.context_len / 1024))));

    if (allow_faults && chance(rng_, 0.3)) {
        FaultPlan &plan = c.opts.fault_plan;
        plan.seed = fuzzSeedForIteration(seed_, 0xfa);
        const int n_events = static_cast<int>(rng_.uniformInt(1, 3));
        bool failed_one = false;
        for (int i = 0; i < n_events; i++) {
            switch (rng_.uniformInt(0, 3)) {
            case 0:
                plan.addNandReadError(
                    std::pow(10.0, rng_.uniform(-5.0, -2.5)));
                break;
            case 1:
                plan.addNvmeTimeout(
                    std::pow(10.0, rng_.uniform(-6.0, -3.0)));
                break;
            case 2:
                plan.addLinkDegrade(rng_.uniform(0.0, 5.0),
                                    rng_.uniform(0.3, 1.0));
                break;
            default:
                // Fail at most one device so survivors always exist.
                if (c.opts.num_devices > 1 && !failed_one) {
                    plan.addDeviceFailure(
                        rng_.uniform(0.0, 10.0),
                        static_cast<unsigned>(rng_.uniformInt(
                            0, c.opts.num_devices - 1)));
                    failed_one = true;
                } else {
                    plan.addLinkDegrade(rng_.uniform(0.0, 5.0),
                                        rng_.uniform(0.5, 1.0));
                }
                break;
            }
        }
    }
    return c;
}

std::string
FuzzFleetCase::describe() const
{
    std::ostringstream os;
    os << "model=" << run.model.name << " batch=" << run.batch
       << " context=" << run.context_len << " output=" << run.output_len
       << " fleet=" << fleet.hosts << "x" << fleet.devices_per_host
       << " policy=" << placementPolicyName(fleet.policy)
       << " spares=" << fleet.spare_hosts
       << " faults=" << fleet.fault_plan.events.size();
    return os.str();
}

FuzzFleetCase
ConfigFuzzer::fleetCase()
{
    FuzzFleetCase c;
    c.seed = seed_;

    const std::vector<ModelConfig> models = allModels();
    c.run.model = models[static_cast<std::size_t>(rng_.uniformInt(
        0, static_cast<std::int64_t>(models.size()) - 1))];
    constexpr std::uint64_t batches[] = {4, 8, 16, 32, 64};
    c.run.batch = pick(rng_, batches);
    const double e = rng_.uniform(11.0, 16.0);
    c.run.context_len = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(std::pow(2.0, e)),
        c.run.model.max_position);
    c.run.output_len = static_cast<std::uint64_t>(rng_.uniformInt(8, 64));

    constexpr unsigned host_counts[] = {1, 2, 3, 4, 6, 8};
    c.fleet.hosts = pick(rng_, host_counts);
    constexpr unsigned devices[] = {2, 4, 8, 16};
    c.fleet.devices_per_host = pick(rng_, devices);
    constexpr PlacementPolicy policies[] = {PlacementPolicy::Spread,
                                            PlacementPolicy::Pack,
                                            PlacementPolicy::FaultAware};
    c.fleet.policy = pick(rng_, policies);
    c.fleet.spare_hosts =
        c.fleet.hosts > 1
            ? static_cast<unsigned>(rng_.uniformInt(
                  0, std::min(2u, c.fleet.hosts - 1)))
            : 0;

    FaultPlan &plan = c.fleet.fault_plan;
    plan.seed = fuzzSeedForIteration(seed_, 0xf1ee7);
    if (c.fleet.hosts > 1 && chance(rng_, 0.8)) {
        // Host losses (failures + stalls that escalate past the retry
        // ladder) are capped at hosts-1 so survivors always exist and
        // graceful degradation is the only acceptable outcome.
        const unsigned max_losses = c.fleet.hosts - 1;
        unsigned losses = 0;
        const auto any_host = [&]() {
            return static_cast<unsigned>(
                rng_.uniformInt(0, c.fleet.hosts - 1));
        };
        const int n_events = static_cast<int>(rng_.uniformInt(1, 4));
        for (int i = 0; i < n_events; i++) {
            switch (rng_.uniformInt(0, 3)) {
            case 0:
                if (losses < max_losses) {
                    plan.addHostFailure(rng_.uniform(0.0, 300.0),
                                        any_host());
                    losses++;
                } else {
                    plan.addHostLinkDegrade(rng_.uniform(0.0, 300.0),
                                            rng_.uniform(0.3, 1.0));
                }
                break;
            case 1: {
                const Seconds budget = plan.retry.ladderBudget();
                const bool escalate =
                    chance(rng_, 0.3) && losses < max_losses;
                const Seconds duration =
                    escalate ? budget * rng_.uniform(2.0, 50.0)
                             : budget * rng_.uniform(0.1, 0.9);
                if (escalate)
                    losses++;
                plan.addHostStall(rng_.uniform(0.0, 300.0), duration,
                                  any_host());
                break;
            }
            case 2:
                plan.addHostLinkDegrade(rng_.uniform(0.0, 300.0),
                                        rng_.uniform(0.3, 1.0));
                break;
            default:
                // Device-scope probabilistic faults fan out to every
                // host's own injector alongside the cluster events.
                if (chance(rng_, 0.5)) {
                    plan.addNandReadError(
                        std::pow(10.0, rng_.uniform(-5.0, -3.0)));
                } else {
                    plan.addNvmeTimeout(
                        std::pow(10.0, rng_.uniform(-6.0, -4.0)));
                }
                break;
            }
        }
    }
    return c;
}

std::string
FuzzServingCase::describe() const
{
    std::ostringstream os;
    os << "engine=" << engineKindName(kind)
       << " model=" << serving.model.name
       << " max_batch=" << serving.max_batch
       << " policy=" << servingPolicyName(serving.policy)
       << " slo=" << serving.slo.value()
       << " devices=" << opts.num_devices << " rate=" << arrival_rate
       << " requests=" << requests.size();
    std::size_t ties = 0;
    for (std::size_t i = 1; i < requests.size(); i++)
        ties += requests[i].arrival == requests[i - 1].arrival ? 1 : 0;
    os << " ties=" << ties;
    if (!requests.empty())
        os << " class=" << requestClassName(requests.front().cls);
    return os.str();
}

FuzzServingCase
ConfigFuzzer::servingCase()
{
    FuzzServingCase c;
    c.seed = seed_;

    constexpr EngineKind kinds[] = {
        EngineKind::FlexDram,     EngineKind::FlexSsd,
        EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
        EngineKind::VllmMultiGpu, EngineKind::Hilos};
    c.kind = pick(rng_, kinds);
    constexpr unsigned devices[] = {4, 8, 16};
    c.opts.num_devices = pick(rng_, devices);

    const std::vector<ModelConfig> models = allModels();
    c.serving.model = models[static_cast<std::size_t>(rng_.uniformInt(
        0, static_cast<std::int64_t>(models.size()) - 1))];
    constexpr std::uint64_t batches[] = {1, 4, 8, 16};
    c.serving.max_batch = pick(rng_, batches);
    constexpr ServingPolicy policies[] = {ServingPolicy::Fcfs,
                                          ServingPolicy::Sjf,
                                          ServingPolicy::SloAware};
    c.serving.policy = pick(rng_, policies);
    if (chance(rng_, 0.5))
        c.serving.slo = Seconds(rng_.uniform(5.0, 600.0));

    PoissonStreamConfig pc;
    // Log-uniform arrival rate spanning idle to saturated.
    c.arrival_rate = std::pow(10.0, rng_.uniform(-2.0, 0.5));
    pc.arrival_rate = c.arrival_rate;
    pc.count = static_cast<std::size_t>(rng_.uniformInt(1, 48));
    // Homogeneous class (see FuzzServingCase doc); jitter still varies
    // per-request lengths by +-25%.
    constexpr RequestClass classes[] = {RequestClass::Small,
                                        RequestClass::Medium,
                                        RequestClass::Long};
    const RequestClass cls = pick(rng_, classes);
    pc.small_weight = cls == RequestClass::Small ? 1.0 : 0.0;
    pc.medium_weight = cls == RequestClass::Medium ? 1.0 : 0.0;
    pc.long_weight = cls == RequestClass::Long ? 1.0 : 0.0;
    pc.length_jitter = 0.25;
    c.requests = makePoissonArrivals(pc, rng_);
    // Tie about a quarter of the arrivals to the one before, so every
    // policy's (arrival, id) tiebreak decides some admissions.
    for (std::size_t i = 1; i < c.requests.size(); i++)
        if (chance(rng_, 0.25))
            c.requests[i].arrival = c.requests[i - 1].arrival;
    return c;
}

}  // namespace test
}  // namespace hilos

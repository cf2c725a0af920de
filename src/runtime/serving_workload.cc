#include "runtime/serving_workload.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"

namespace hilos {

namespace {

/** Scale a canonical length by a jitter factor in [1-j, 1+j], >= 1. */
std::uint64_t
jittered(std::uint64_t base, double jitter, Rng &rng)
{
    if (jitter <= 0.0)
        return std::max<std::uint64_t>(base, 1);
    const double factor = rng.uniform(1.0 - jitter, 1.0 + jitter);
    const double scaled =
        std::floor(static_cast<double>(base) * factor + 0.5);
    return std::max<std::uint64_t>(static_cast<std::uint64_t>(scaled), 1);
}

RequestClass
drawClass(const PoissonStreamConfig &cfg, Rng &rng)
{
    const double total =
        cfg.small_weight + cfg.medium_weight + cfg.long_weight;
    if (total <= 0.0)
        return RequestClass::Small;
    const double u = rng.uniform(0.0, total);
    if (u < cfg.small_weight)
        return RequestClass::Small;
    if (u < cfg.small_weight + cfg.medium_weight)
        return RequestClass::Medium;
    return RequestClass::Long;
}

}  // namespace

std::vector<Request>
makePoissonArrivals(const PoissonStreamConfig &cfg, Rng &rng)
{
    HILOS_ASSERT(cfg.arrival_rate > 0.0,
                 "arrival rate must be positive: ", cfg.arrival_rate);
    HILOS_ASSERT(cfg.length_jitter >= 0.0 && cfg.length_jitter < 1.0,
                 "length jitter must be in [0, 1): ", cfg.length_jitter);
    std::vector<Request> out;
    out.reserve(cfg.count);
    Seconds clock = 0.0;
    for (std::size_t i = 0; i < cfg.count; i++) {
        // Exponential inter-arrival gap via inverse transform; the
        // uniform draw is in [0, 1) so 1-u is in (0, 1] and the log is
        // finite.
        const double u = rng.uniform(0.0, 1.0);
        clock += Seconds(-std::log(1.0 - u) / cfg.arrival_rate);
        Request r = makeRequest(drawClass(cfg, rng));
        r.input_tokens = jittered(r.input_tokens, cfg.length_jitter, rng);
        r.output_tokens = jittered(r.output_tokens, cfg.length_jitter, rng);
        r.arrival = clock;
        out.push_back(r);
    }
    return out;
}

RequestClass
classifyByInputLength(std::uint64_t input_tokens)
{
    // Midpoints of the canonical class lengths (256 / 1024 / 8192).
    if (input_tokens < 640)
        return RequestClass::Small;
    if (input_tokens < 4608)
        return RequestClass::Medium;
    return RequestClass::Long;
}

std::vector<Request>
parseArrivalTrace(const std::string &text)
{
    std::vector<Request> out;
    std::istringstream lines(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(lines, line)) {
        lineno++;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;  // blank or comment-only line
        std::istringstream fields(line);
        double arrival = 0.0;
        std::uint64_t input = 0;
        std::uint64_t output = 0;
        std::string trailing;
        const bool parsed =
            static_cast<bool>(fields >> arrival >> input >> output) &&
            !(fields >> trailing);
        if (!parsed)
            HILOS_FATAL("arrival trace line ", lineno,
                        ": expected `<arrival_seconds> <input> <output>`");
        if (!(arrival >= 0.0))
            HILOS_FATAL("arrival trace line ", lineno,
                        ": negative arrival time ", arrival);
        if (input < 1 || output < 1)
            HILOS_FATAL("arrival trace line ", lineno,
                        ": token counts must be >= 1");
        Request r;
        r.cls = classifyByInputLength(input);
        r.input_tokens = input;
        r.output_tokens = output;
        r.arrival = arrival;
        out.push_back(r);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival < b.arrival;
                     });
    return out;
}

}  // namespace hilos

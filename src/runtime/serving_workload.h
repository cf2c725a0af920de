/**
 * @file
 * Online-serving arrival streams.
 *
 * The offline layer (`runtime/batcher`) answers "how fast does a fixed
 * request set drain"; the serving simulator asks "what happens when a
 * million users send traffic". This module produces the request streams
 * that drive it: a seeded Poisson process with a configurable class mix
 * and per-request length jitter, and a plain-text trace format so real
 * arrival logs (or hand-written scenarios) replay deterministically.
 */

#ifndef HILOS_RUNTIME_SERVING_WORKLOAD_H_
#define HILOS_RUNTIME_SERVING_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "llm/workload.h"

namespace hilos {

/** Parameters of a Poisson arrival stream. */
/**
 * The slowest rate a generated stream may use (requests/s): the last of
 * `count` arrivals lands near count / rate seconds, and the serving
 * report sums such times, so a slower rate can push a report to inf.
 */
inline constexpr double kMinArrivalRate = 1e-9;
/** The longest generated stream; each request keeps a ~200 B record. */
inline constexpr std::size_t kMaxStreamRequests = 10'000'000;

struct PoissonStreamConfig {
    /** Mean arrival rate in requests per second (>= kMinArrivalRate). */
    double arrival_rate = 1.0;
    /** Number of requests to generate (<= kMaxStreamRequests). */
    std::size_t count = 64;
    /**
     * Relative class-mix weights (need not sum to 1; all-zero draws
     * every request from RequestClass::Small). Defaults follow the
     * Azure mix the offline benches use: mostly short, some medium,
     * a long-context tail.
     */
    double small_weight = 0.6;
    double medium_weight = 0.3;
    double long_weight = 0.1;
    /**
     * Uniform per-request jitter applied to the class's canonical
     * input/output lengths: each length scales by a factor drawn from
     * [1 - jitter, 1 + jitter], floored at one token. 0 disables.
     */
    double length_jitter = 0.25;
};

/**
 * Generate `cfg.count` requests with exponential inter-arrival gaps at
 * `cfg.arrival_rate`, sorted by arrival time (arrivals start at the
 * first gap, not at t=0). Deterministic for a given (cfg, rng state).
 */
std::vector<Request> makePoissonArrivals(const PoissonStreamConfig &cfg,
                                         Rng &rng);

/** The request class whose canonical input length is nearest. */
RequestClass classifyByInputLength(std::uint64_t input_tokens);

/**
 * Parse an arrival trace: one request per line as
 * `<arrival_seconds> <input_tokens> <output_tokens>`, `#` starts a
 * comment, blank lines are skipped. Arrivals must be non-negative and
 * token counts >= 1; the first malformed line is a fatal user error
 * naming its line number. Requests are returned sorted by arrival.
 */
std::vector<Request> parseArrivalTrace(const std::string &text);

}  // namespace hilos

#endif  // HILOS_RUNTIME_SERVING_WORKLOAD_H_

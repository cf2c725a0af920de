/**
 * @file
 * Admission / scheduling policies for the online serving simulator.
 *
 * A policy is a deterministic total order over pending requests,
 * encoded once in `admitsBefore`. The serving simulator keeps its
 * pending queue in that order and admits from the front at every step
 * boundary, never leapfrogging a request it cannot fit (so FCFS is
 * starvation-free by construction and the other policies starve only
 * while strictly better-ranked work keeps arriving).
 */

#ifndef HILOS_RUNTIME_SERVING_POLICY_H_
#define HILOS_RUNTIME_SERVING_POLICY_H_

#include <cstdint>
#include <string>

#include "common/units.h"

namespace hilos {

/** Admission orderings the serving simulator supports. */
enum class ServingPolicy {
    Fcfs,      ///< first-come first-served: (arrival, id)
    Sjf,       ///< shortest job first: least remaining decode work
    SloAware,  ///< earliest deadline first: (arrival + slo, id)
};

/** Printable policy name (also the CLI spelling). */
std::string servingPolicyName(ServingPolicy policy);

/**
 * Parse a CLI spelling ("fcfs", "sjf", "slo").
 * @return false (leaving `out` untouched) on an unknown name
 */
bool parseServingPolicy(const std::string &name, ServingPolicy *out);

/** A pending request as the admission order sees it. */
struct AdmissionCandidate {
    std::size_t id = 0;  ///< submission index; the final tiebreak
    Seconds arrival = 0.0;
    std::uint64_t input_tokens = 0;
    std::uint64_t output_tokens = 0;
    Seconds deadline = 0.0;  ///< arrival + slo (SLO-aware only)
};

/**
 * True when `a` is admitted before `b` under `policy`. Every policy's
 * ordering ends in the (arrival, id) tiebreak, so over candidates with
 * distinct ids this is a strict total order: admission is
 * deterministic for any arrival permutation.
 */
bool admitsBefore(ServingPolicy policy, const AdmissionCandidate &a,
                  const AdmissionCandidate &b);

}  // namespace hilos

#endif  // HILOS_RUNTIME_SERVING_POLICY_H_

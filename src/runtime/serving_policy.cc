#include "runtime/serving_policy.h"

#include <tuple>

#include "common/logging.h"

namespace hilos {

std::string
servingPolicyName(ServingPolicy policy)
{
    switch (policy) {
    case ServingPolicy::Fcfs:
        return "fcfs";
    case ServingPolicy::Sjf:
        return "sjf";
    case ServingPolicy::SloAware:
        return "slo";
    }
    HILOS_ASSERT(false, "unknown serving policy");
    return "";
}

bool
parseServingPolicy(const std::string &name, ServingPolicy *out)
{
    if (name == "fcfs")
        *out = ServingPolicy::Fcfs;
    else if (name == "sjf")
        *out = ServingPolicy::Sjf;
    else if (name == "slo")
        *out = ServingPolicy::SloAware;
    else
        return false;
    return true;
}

bool
admitsBefore(ServingPolicy policy, const AdmissionCandidate &a,
             const AdmissionCandidate &b)
{
    const auto fcfs = [&] {
        return std::make_tuple(a.arrival.value(), a.id) <
               std::make_tuple(b.arrival.value(), b.id);
    };
    switch (policy) {
    case ServingPolicy::Fcfs:
        return fcfs();
    case ServingPolicy::Sjf:
        // Remaining decode work is the output length; prompt length
        // breaks ties (a shorter prompt prefills faster).
        if (a.output_tokens != b.output_tokens)
            return a.output_tokens < b.output_tokens;
        if (a.input_tokens != b.input_tokens)
            return a.input_tokens < b.input_tokens;
        return fcfs();
    case ServingPolicy::SloAware:
        // Earliest deadline first; deadline = arrival + slo.
        if (a.deadline != b.deadline)
            return a.deadline < b.deadline;
        return fcfs();
    }
    HILOS_ASSERT(false, "unknown serving policy");
    return false;
}

}  // namespace hilos

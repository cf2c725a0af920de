/**
 * @file
 * Seeded, schedule-driven fault injection for the HILOS simulator.
 *
 * The paper's evaluation assumes a perfectly healthy fleet of 4-16
 * SmartSSDs; this subsystem makes non-ideal conditions representable
 * without sacrificing reproducibility. A FaultPlan is a declarative
 * list of events — probabilistic per-operation faults (NAND read errors
 * that trigger an ECC read-retry ladder, NVMe command timeouts with
 * bounded exponential backoff) and timed state changes (P2P/uplink
 * bandwidth degradation, whole-device failure). A FaultInjector
 * evaluates the plan with one deterministic RNG stream per device, so
 * the same seed and plan always reproduce bit-identical results.
 *
 * Invariants the rest of the stack relies on:
 *  - an empty plan injects nothing and draws no random numbers, so the
 *    zero-fault path is byte-identical to a build without this layer;
 *  - faults perturb timing, traffic, and availability only — never the
 *    attention numerics;
 *  - probabilistic penalties have closed-form expectations (used by the
 *    analytic engine) alongside the sampled draws (used by the event
 *    simulator), so the two models stay comparable under faults.
 */

#ifndef HILOS_SIM_FAULT_H_
#define HILOS_SIM_FAULT_H_

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/units.h"

namespace hilos {

/** Event target sentinel: applies to every SmartSSD in the fleet. */
constexpr unsigned kAllDevices = std::numeric_limits<unsigned>::max();
/** Event target sentinel: applies to the shared chassis uplink. */
constexpr unsigned kUplinkTarget = kAllDevices - 1;
/**
 * Exclusive upper bound on real device/host indices. Targets in
 * [kMaxRealTarget, kUplinkTarget) are the reserved gap between real
 * indices and the sentinels; FaultPlan::validate() rejects them so a
 * typo can never silently alias a future sentinel.
 */
constexpr unsigned kMaxRealTarget = 1u << 16;
/**
 * Floor on a compound bandwidth derate. Degrade events on one link
 * multiply, and a fault-conditioned plan divides bytes by the product,
 * so FaultPlan::validate() rejects a plan whose worst-case product on
 * the uplink, any device link or the inter-host link falls below this
 * floor: no op duration can then overflow to inf.
 */
constexpr double kMinCompoundDerate = 1e-3;

/** The fault classes the simulator can inject. */
enum class FaultKind {
    NandReadError,    ///< probabilistic, per NAND read: ECC retry ladder
    NvmeTimeout,      ///< probabilistic, per command: timeout + backoff
    LinkDegrade,      ///< timed: bandwidth multiplier from `at` onward
    DeviceFail,       ///< timed: device permanently fails at `at`
    HostFail,         ///< timed: whole host permanently lost at `at`
    HostLinkDegrade,  ///< timed: inter-host interconnect multiplier
    HostStall,        ///< timed: host pauses for `duration`, retried
};

/** True for cluster-granularity kinds consumed by HostFaultView. */
bool isHostScope(FaultKind kind);

/** Stable lower-case name of a fault kind (diagnostics, serialization). */
const char *faultKindName(FaultKind kind);

/** One entry of a FaultPlan. */
struct FaultEvent {
    FaultKind kind = FaultKind::NandReadError;
    /**
     * Target device index, kAllDevices, or kUplinkTarget. Host-scope
     * kinds reuse this field as the host index (or kAllDevices).
     */
    unsigned device = kAllDevices;
    /** Activation time for timed events (absolute run seconds). */
    Seconds at = 0.0;
    /** Per-operation probability for probabilistic events. */
    double probability = 0.0;
    /** Bandwidth multiplier in (0, 1] for *LinkDegrade. */
    double bw_multiplier = 1.0;
    /** Unresponsive interval for HostStall (escalates past the ladder). */
    Seconds duration = 0.0;
};

/**
 * Retry/timeout knobs shared by the NVMe and NAND recovery paths.
 *
 * An NVMe command that times out is re-issued after a bounded
 * exponential backoff; a NAND read whose ECC fails walks a read-retry
 * ladder of re-reads at shifted reference voltages.
 */
struct RetryPolicy {
    unsigned nvme_max_attempts = 5;       ///< total tries incl. first
    Seconds nvme_timeout = msec(10);      ///< host-side command timeout
    Seconds backoff_base = usec(100);     ///< first retry delay
    double backoff_multiplier = 2.0;      ///< per-retry growth
    Seconds backoff_cap = msec(50);       ///< delay ceiling
    unsigned ecc_max_steps = 8;           ///< read-retry ladder depth
    Seconds ecc_step_latency = usec(70);  ///< extra tR per ladder step

    /** Backoff delay before retry `attempt` (1-based), capped. */
    Seconds backoffDelay(unsigned attempt) const;

    /**
     * Expected extra latency per NVMe command when each attempt times
     * out independently with probability `timeout_prob`.
     */
    Seconds expectedNvmePenalty(double timeout_prob) const;

    /**
     * Expected extra latency per NAND read at ECC failure probability
     * `error_prob` (mean ladder depth at uniform step draws).
     */
    Seconds expectedEccPenalty(double error_prob) const;
};

/**
 * A declarative, seeded schedule of faults for one run.
 */
struct FaultPlan {
    std::uint64_t seed = 0x48494c4f53ull;
    RetryPolicy retry;
    std::vector<FaultEvent> events;

    /** True when the plan injects nothing (the zero-fault fast path). */
    bool empty() const { return events.empty(); }

    /**
     * Check every event against the representable ranges: probability
     * in [0, 1], *LinkDegrade multiplier in (0, 1], finite non-negative
     * `at` and `duration`, and no target inside the reserved gap
     * between real indices and the kUplinkTarget/kAllDevices sentinels;
     * plus, over the whole plan, every link's compound derate (all its
     * degrade events active at once) at or above kMinCompoundDerate.
     * Returns one named diagnostic per violation (empty = valid), in
     * the style of StepPlan::validate(); FaultInjector and
     * HostFaultView construction are gated on it.
     */
    std::vector<std::string> validate() const;

    /**
     * The device-scope subset of this plan (same seed and retry
     * policy, host-scope events dropped): what each host's own
     * injector sees when a fleet run fans the plan out per host.
     */
    FaultPlan deviceScope() const;

    /** True when the plan contains at least one host-scope event. */
    bool hasHostEvents() const;

    FaultPlan &addNandReadError(double probability,
                                unsigned device = kAllDevices);
    FaultPlan &addNvmeTimeout(double probability,
                              unsigned device = kAllDevices);
    FaultPlan &addLinkDegrade(Seconds at, double bw_multiplier,
                              unsigned device = kAllDevices);
    FaultPlan &addUplinkDegrade(Seconds at, double bw_multiplier);
    FaultPlan &addDeviceFailure(Seconds at, unsigned device);
    /** Fail the whole fleet at `at` (degenerate-plan error handling). */
    FaultPlan &addFleetFailure(Seconds at);
    FaultPlan &addHostFailure(Seconds at, unsigned host);
    /** Degrade the inter-host interconnect from `at` onward. */
    FaultPlan &addHostLinkDegrade(Seconds at, double bw_multiplier);
    /** Stall `host` for `duration` seconds starting at `at`. */
    FaultPlan &addHostStall(Seconds at, Seconds duration,
                            unsigned host = kAllDevices);
};

/**
 * Parse a semicolon/comma-separated fault-plan spec, e.g.
 *   "seed=7;nand-err=1e-3;nvme-timeout=1e-4:2;fail@2.5=3;"
 *   "degrade@1.0=0.5:2;uplink@4.0=0.8;fail@9=all"
 * Clauses:
 *   seed=<u64>            RNG seed
 *   nand-err=<p>[:dev]    per-read ECC error probability
 *   nvme-timeout=<p>[:dev] per-command timeout probability
 *   degrade@<t>=<m>[:dev] P2P bandwidth multiplier m from t seconds
 *   uplink@<t>=<m>        chassis-uplink multiplier from t seconds
 *   fail@<t>=<dev|all>    device (or fleet) failure at t seconds
 *   host-fail@<t>=<h|all> host h (or every host) lost at t seconds
 *   host-degrade@<t>=<m>  inter-host interconnect multiplier from t
 *   host-stall@<t>=<d>[:h] host h unresponsive for d seconds from t
 * Raises a fatal error on malformed input.
 */
FaultPlan parseFaultPlan(const std::string &spec);

/** Counters accumulated by a FaultInjector over one simulation. */
struct FaultStats {
    std::uint64_t nand_read_errors = 0;
    std::uint64_t nand_retry_steps = 0;
    std::uint64_t nvme_timeouts = 0;
    std::uint64_t nvme_retries = 0;
    std::uint64_t nvme_failures = 0;  ///< retries exhausted
    std::uint64_t redispatched_slices = 0;
    Seconds retry_time = 0.0;  ///< total latency added by recovery

    bool any() const;
};

/**
 * Evaluates a FaultPlan against per-operation queries.
 *
 * Probabilistic queries (nandReadPenalty, nvmeCommand) consume one
 * deterministic per-device RNG stream each, so results depend only on
 * (seed, plan, per-device call order) — the slice-level test oracle
 * issues them in deterministic loop order. Timed queries (deviceFailed, linkDerate)
 * are pure functions of the plan and the supplied clock.
 */
class FaultInjector
{
  public:
    /** Null injector: nothing ever faults, no RNG state. */
    FaultInjector();

    FaultInjector(const FaultPlan &plan, unsigned num_devices);

    /** True when the plan contains at least one event. */
    bool active() const { return active_; }

    /** Outcome of one NVMe command on device `dev`. */
    struct NvmeOutcome {
        Seconds extra_latency = 0.0;
        unsigned retries = 0;
        bool failed = false;  ///< retries exhausted; re-dispatch needed
    };

    /**
     * Sample the ECC read-retry penalty of one NAND read on `dev`
     * (0 when the read succeeds first try).
     */
    Seconds nandReadPenalty(unsigned dev);

    /** Sample the timeout/backoff outcome of one NVMe command. */
    NvmeOutcome nvmeCommand(unsigned dev);

    /** Configured per-read ECC error probability of `dev`. */
    double nandErrorProbability(unsigned dev) const;
    /** Configured per-command timeout probability of `dev`. */
    double nvmeTimeoutProbability(unsigned dev) const;

    /** Product of active P2P degradations on `dev` at time `now`. */
    double linkDerate(unsigned dev, Seconds now) const;
    /** Product of active chassis-uplink degradations at time `now`. */
    double uplinkDerate(Seconds now) const;

    /** Whether `dev` has failed by time `now`. */
    bool deviceFailed(unsigned dev, Seconds now) const;
    /** Failure time of `dev` (infinity when it never fails). */
    Seconds deviceFailTime(unsigned dev) const;
    /** Number of devices still alive at time `now`. */
    unsigned survivingDevices(Seconds now) const;
    /** Sorted finite times at which any timed event activates. */
    std::vector<Seconds> eventTimes() const;

    /** Record one slice re-dispatched off a failed device. */
    void noteRedispatch() { stats_.redispatched_slices++; }

    const RetryPolicy &retryPolicy() const { return retry_; }
    const FaultStats &stats() const { return stats_; }
    unsigned numDevices() const { return num_devices_; }

  private:
    std::mt19937_64 &rngFor(unsigned dev);

    bool active_ = false;
    unsigned num_devices_ = 0;
    RetryPolicy retry_;
    std::vector<double> nand_prob_;
    std::vector<double> nvme_prob_;
    std::vector<Seconds> fail_at_;
    std::vector<FaultEvent> degrades_;
    std::vector<std::mt19937_64> rng_;
    FaultStats stats_;
};

/**
 * Cluster-granularity companion to FaultInjector: evaluates the
 * host-scope events of a FaultPlan against a fleet of `num_hosts`
 * hosts. Pure function of (plan, num_hosts) — no RNG state — so the
 * analytic and replay fleet backends share one view.
 *
 * A HostStall mirrors the NVMe-timeout ladder at host granularity: the
 * scheduler probes the silent host at the ladder's timeout+backoff
 * boundaries and either observes recovery at the first probe at or
 * after the stall ends, or exhausts the ladder and escalates the stall
 * to a permanent HostFail at `begin + ladderBudget`.
 */
class HostFaultView
{
  public:
    /** One evaluated stall interval of a host. */
    struct StallWindow {
        unsigned host = 0;
        Seconds begin = 0.0;
        /** Recovery-probe time, or escalation time when escalated. */
        Seconds end = 0.0;
        bool escalated = false;  ///< stall outlived the retry ladder
    };

    /** Null view: every host healthy forever. */
    HostFaultView();

    HostFaultView(const FaultPlan &plan, unsigned num_hosts);

    /** True when the plan contains at least one host-scope event. */
    bool active() const { return active_; }
    unsigned numHosts() const { return num_hosts_; }

    /** Whether `host` is permanently lost by time `now`. */
    bool hostFailed(unsigned host, Seconds now) const;
    /** Whether `host` is inside a stall window at time `now`. */
    bool hostStalled(unsigned host, Seconds now) const;
    /** Failure time of `host` (infinity when it never fails). */
    Seconds hostFailTime(unsigned host) const;
    /** Hosts neither failed nor stalled at time `now`. */
    unsigned servingHosts(Seconds now) const;
    /** Hosts stalled (but not failed) at time `now`. */
    unsigned stalledHosts(Seconds now) const;
    /** Product of active inter-host degradations at time `now`. */
    double interHostDerate(Seconds now) const;
    /** Sorted finite times at which the fleet state changes. */
    std::vector<Seconds> eventTimes() const;
    const std::vector<StallWindow> &stalls() const { return stalls_; }

    /**
     * Total time the retry ladder spends before declaring a silent
     * host dead: sum of timeout + backoff over every allowed retry.
     */
    static Seconds ladderBudget(const RetryPolicy &retry);
    /**
     * Time to observe recovery of a stall of `duration`: the first
     * probe boundary at or after the stall ends (== ladderBudget when
     * the ladder would be exhausted first).
     */
    static Seconds probeRecovery(const RetryPolicy &retry,
                                 Seconds duration);

  private:
    bool active_ = false;
    unsigned num_hosts_ = 0;
    std::vector<Seconds> fail_at_;
    std::vector<StallWindow> stalls_;
    std::vector<FaultEvent> degrades_;
};

}  // namespace hilos

#endif  // HILOS_SIM_FAULT_H_

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
 * bandwidth degradation, device, host and link failures, host stalls).
 * A ConditionTimeline evaluates the plan into the conditions in force
 * at any run time, the clock every engine's decode epochs follow.
 *
 * Invariants the rest of the stack relies on:
 *  - an empty plan changes nothing, so the zero-fault path is
 *    byte-identical to a build without this layer;
 *  - faults perturb timing, traffic, and availability only — never the
 *    attention numerics;
 *  - probabilistic penalties have closed-form expectations (used by the
 *    engines) alongside sampled draws (seeded per device, used by the
 *    slice-level test oracle), so the two stay comparable under faults.
 */

#ifndef HILOS_SIM_FAULT_H_
#define HILOS_SIM_FAULT_H_

#include <cstdint>
#include <limits>
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

/** True for cluster-granularity (host-scope) kinds. */
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

    /**
     * Total time the retry ladder spends before declaring a silent
     * host dead: sum of timeout + backoff over every allowed retry.
     */
    Seconds ladderBudget() const;
    /**
     * Time to observe recovery of a stall of `duration`: the first
     * probe boundary at or after the stall ends (== ladderBudget() when
     * the ladder would be exhausted first).
     */
    Seconds probeRecovery(Seconds duration) const;
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
     * the style of StepPlan::validate(); ConditionTimeline
     * construction is gated on it.
     */
    std::vector<std::string> validate() const;

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

/** One evaluated stall interval of a host. */
struct StallWindow {
    unsigned host = 0;
    Seconds begin = 0.0;
    /** Recovery-probe time, or escalation time when escalated. */
    Seconds end = 0.0;
    bool escalated = false;  ///< stall outlived the retry ladder
};

/**
 * The operating conditions a FaultPlan puts in force over run time, for
 * a fleet of `hosts` hosts of `devices` SmartSSDs each: the one clock
 * every engine cuts its decode epochs on. A pure function of (plan,
 * shape) with no RNG state, so the analytic and replay backends share
 * it; the sampled per-read draws live with the slice-level test oracle.
 *
 * Device-scope events name a device index within a host and apply to
 * that device on every host. A timeline with `hosts == 0` models one
 * chassis outside any fleet and leaves host-scope events out.
 *
 * A HostStall mirrors the NVMe-timeout ladder at host granularity: the
 * scheduler probes the silent host at the ladder's timeout+backoff
 * boundaries and either observes recovery at the first probe at or
 * after the stall ends, or exhausts the ladder and escalates the stall
 * to a permanent HostFail at `begin + ladderBudget`.
 */
class ConditionTimeline
{
  public:
    /** Empty timeline: one healthy device forever. */
    ConditionTimeline();

    ConditionTimeline(const FaultPlan &plan, unsigned devices,
                      unsigned hosts = 0);

    /** True when the plan holds no event in scope: nothing ever faults. */
    bool empty() const { return empty_; }

    /** Sorted, unique finite times at which any condition changes. */
    const std::vector<Seconds> &changeTimes() const { return changes_; }
    /** First change time after `t` (infinity when none). */
    Seconds nextChangeAfter(Seconds t) const;
    /**
     * Change times at or before `t`: the index of the constant-condition
     * segment `t` falls in, the same for every time the conditions hold.
     */
    std::size_t segmentAt(Seconds t) const;

    /** Whether device `dev` has failed by time `t`. */
    bool deviceFailed(unsigned dev, Seconds t) const;
    /** Failure time of `dev` (infinity when it never fails). */
    Seconds deviceFailTime(unsigned dev) const;
    /** Devices still alive at time `t`. */
    unsigned survivingDevices(Seconds t) const;
    /** Product of active P2P degradations on `dev` at time `t`. */
    double linkDerate(unsigned dev, Seconds t) const;
    /** Product of active chassis-uplink degradations at time `t`. */
    double uplinkDerate(Seconds t) const;
    /** Per-read ECC error probability of `dev`. */
    double nandErrorProbability(unsigned dev) const;
    /** Per-command NVMe timeout probability of `dev`. */
    double nvmeTimeoutProbability(unsigned dev) const;

    /** Whether `host` is permanently lost by time `t`. */
    bool hostFailed(unsigned host, Seconds t) const;
    /** Whether `host` is inside a stall window at time `t`. */
    bool hostStalled(unsigned host, Seconds t) const;
    /** Failure time of `host` (infinity when it never fails). */
    Seconds hostFailTime(unsigned host) const;
    /** Hosts neither failed nor stalled at time `t`. */
    unsigned servingHosts(Seconds t) const;
    /** Hosts stalled (but not failed) at time `t`. */
    unsigned stalledHosts(Seconds t) const;
    /** Hosts permanently lost by time `t`. */
    unsigned failedHosts(Seconds t) const;
    /** True when hosts survive at `t` but every one of them is stalled. */
    bool allHostsStalled(Seconds t) const;
    /** Product of active inter-host degradations at time `t`. */
    double interHostDerate(Seconds t) const;
    const std::vector<StallWindow> &stalls() const { return stalls_; }

    /** Recovered stalls that began before `end`, with their time up to it. */
    struct StallTally {
        unsigned stalls = 0;
        Seconds time = 0.0;
    };
    StallTally recoveredStallsBefore(Seconds end) const;

  private:
    bool empty_ = true;
    unsigned num_devices_ = 1;
    unsigned num_hosts_ = 0;
    std::vector<Seconds> changes_;
    std::vector<double> nand_prob_;
    std::vector<double> nvme_prob_;
    std::vector<Seconds> device_fail_at_;
    std::vector<FaultEvent> link_degrades_;
    std::vector<Seconds> host_fail_at_;
    std::vector<StallWindow> stalls_;
    std::vector<FaultEvent> host_degrades_;
};

}  // namespace hilos

#endif  // HILOS_SIM_FAULT_H_

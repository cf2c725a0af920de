#include "runtime/fleet_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/logging.h"
#include "runtime/event_sim.h"
#include "runtime/step_plan.h"

namespace hilos {

namespace {

/** Token id + metadata each request contributes to the per-step sync. */
constexpr double kSyncBytesPerRequest = 16.0;

/**
 * Per-host engine options after fleet fan-out: each host runs
 * `devices_per_host` SmartSSDs under the device-scope subset of the
 * fleet's fault plan. Also the construction gate on FleetConfig
 * validity (members initialize before the engine ctor body runs).
 */
HilosOptions
fleetHostOptions(const FleetConfig &fleet, const HilosOptions &base)
{
    const std::vector<std::string> diags = fleet.validate();
    if (!diags.empty())
        HILOS_FATAL("invalid fleet config: ", diags.front());
    HilosOptions opts = base;
    opts.num_devices = fleet.devices_per_host;
    opts.fault_plan = fleet.fault_plan.deviceScope();
    return opts;
}

void
scaleTraffic(TrafficCounters &t, double factor)
{
    t.host_read_bytes *= factor;
    t.host_write_bytes *= factor;
    t.attn_host_read_bytes *= factor;
    t.attn_host_write_bytes *= factor;
    t.internal_bytes *= factor;
    t.storage_write_bytes *= factor;
}

/** The infeasible plan of a fleet with no host to place work on. */
StepPlan
unplacedPlan(PlanPhase phase)
{
    StepPlan plan;
    plan.phase = phase;
    plan.feasible = false;
    plan.note = "no host can serve a share of this workload";
    return plan;
}

/** `cfg` narrowed to the largest per-host share of `place`. */
RunConfig
hostShare(const RunConfig &cfg, const FleetPlacement &place)
{
    RunConfig host_cfg = cfg;
    host_cfg.batch = place.maxHostBatch();
    return host_cfg;
}

}  // namespace

std::vector<std::string>
FleetConfig::validate() const
{
    std::vector<std::string> out;
    if (hosts < 1 || hosts > 64) {
        out.push_back("fleet: " + std::to_string(hosts) +
                      " hosts is outside [1, 64]");
    }
    if (devices_per_host < 1 || devices_per_host > 16) {
        out.push_back("fleet: " + std::to_string(devices_per_host) +
                      " devices per host is outside [1, 16]");
    }
    if (policy == PlacementPolicy::FaultAware && spare_hosts >= hosts) {
        out.push_back("fleet: " + std::to_string(spare_hosts) +
                      " spare hosts leaves no server in a fleet of " +
                      std::to_string(hosts));
    }
    if (!(std::isfinite(inter_host_bw) && inter_host_bw > 0.0)) {
        out.push_back("fleet: inter-host bandwidth must be finite and "
                      "positive");
    }
    if (!(std::isfinite(inter_host_latency) &&
          inter_host_latency >= 0.0)) {
        out.push_back("fleet: inter-host latency must be finite and "
                      "non-negative");
    }
    for (const FaultEvent &ev : fault_plan.events) {
        if (isHostScope(ev.kind) && ev.device != kAllDevices &&
            ev.device < kMaxRealTarget && ev.device >= hosts) {
            out.push_back(std::string("fleet: ") +
                          faultKindName(ev.kind) + " targets host " +
                          std::to_string(ev.device) +
                          " but the fleet has " + std::to_string(hosts) +
                          " hosts");
        }
    }
    for (const std::string &d : fault_plan.validate())
        out.push_back(d);
    return out;
}

FleetEngine::FleetEngine(const SystemConfig &sys, const FleetConfig &fleet,
                         const HilosOptions &host_opts)
    : sys_(sys), fleet_(fleet),
      host_opts_(fleetHostOptions(fleet, host_opts)),
      sched_(sys, host_opts_, fleet.policy, fleet.spare_hosts),
      host_engine_(sys, host_opts_)
{
}

std::string
FleetEngine::name() const
{
    return "Fleet(" + std::to_string(fleet_.hosts) + "x" +
           std::to_string(fleet_.devices_per_host) + "," +
           placementPolicyName(fleet_.policy) + ")";
}

Seconds
FleetEngine::coordinationTime(std::uint64_t placed_batch,
                              double derate) const
{
    if (fleet_.hosts <= 1)
        return 0.0;
    const Bytes sync_bytes =
        static_cast<double>(placed_batch) * kSyncBytesPerRequest;
    return 2.0 * fleet_.inter_host_latency +
           sync_bytes / (fleet_.inter_host_bw * derate);
}

std::vector<bool>
FleetEngine::servingMask(const HostFaultView &view, Seconds now) const
{
    std::vector<bool> serving(fleet_.hosts, true);
    for (unsigned h = 0; h < fleet_.hosts; h++) {
        if (view.hostFailed(h, now) || view.hostStalled(h, now))
            serving[h] = false;
    }
    return serving;
}

RunResult
FleetEngine::run(const RunConfig &cfg) const
{
    const unsigned H = fleet_.hosts;
    const HostFaultView view(fleet_.fault_plan, H);
    const double out_tokens = static_cast<double>(cfg.output_len);

    // Per-host analytic runs keyed by per-host batch: every epoch whose
    // placement lands the same share reuses one evaluation.
    std::map<std::uint64_t, RunResult> host_cache;
    const auto hostRun = [&](std::uint64_t b) -> const RunResult & {
        auto it = host_cache.find(b);
        if (it == host_cache.end()) {
            RunConfig host_cfg = cfg;
            host_cfg.batch = b;
            it = host_cache.emplace(b, host_engine_.run(host_cfg)).first;
        }
        return it->second;
    };

    FleetSummary fl;
    fl.hosts = H;
    fl.devices_per_host = fleet_.devices_per_host;
    fl.policy = placementPolicyName(fleet_.policy);

    const FleetPlacement p0 = healthyPlacement(cfg);
    if (p0.placed_batch == 0) {
        RunResult res;
        res.feasible = false;
        res.note = "no host can serve a share of this workload";
        res.faults.requests_failed = cfg.batch;
        fl.availability = 0.0;
        res.fleet = fl;
        return res;
    }
    const RunResult &ideal_host = hostRun(p0.maxHostBatch());
    if (!ideal_host.feasible) {
        RunResult res = ideal_host;
        res.note += " (per-host share of the fleet placement)";
        res.faults.requests_failed = cfg.batch;
        fl.availability = 0.0;
        res.fleet = fl;
        return res;
    }
    const Seconds ideal_coord = coordinationTime(p0.placed_batch, 1.0);
    const Seconds ideal_step = ideal_host.decode_step_time + ideal_coord;

    if (!view.active() || cfg.output_len == 0) {
        // No host-scope events (or no decode): one healthy epoch. With
        // one host this path is bit-identical to the host engine.
        RunResult res = ideal_host;
        res.effective_batch = p0.placed_batch;
        res.decode_step_time = ideal_step;
        if (H > 1)
            res.breakdown.add("inter_host_sync", ideal_coord);
        scaleTraffic(res.traffic,
                     static_cast<double>(p0.serving_hosts));
        res.energy.gpu *= p0.serving_hosts;
        res.energy.cpu *= p0.serving_hosts;
        res.energy.dram *= p0.serving_hosts;
        res.energy.storage *= p0.serving_hosts;
        res.total_time = res.prefill_time + out_tokens * ideal_step;
        res.faults.requests_failed += p0.dropped_batch;
        FleetEpoch ep;
        ep.start = res.prefill_time;
        ep.hosts_serving = p0.serving_hosts;
        ep.placed_batch = p0.placed_batch;
        ep.step_time = ideal_step;
        ep.tokens = cfg.output_len;
        fl.epochs.push_back(ep);
        fl.degraded_step_time = ideal_step;
        res.fleet = fl;
        return res;
    }

    // Cluster epochs: constant fleet conditions between host-scope
    // events, re-placed deterministically at every boundary.
    RunResult res;
    res.effective_batch = p0.placed_batch;
    propagatePrefill(ideal_host, res);
    res.fpga_power_watts = ideal_host.fpga_power_watts;
    res.faults = ideal_host.faults;

    const std::vector<Seconds> events = view.eventTimes();
    const auto nextEventAfter = [&](Seconds t) -> Seconds {
        for (const Seconds ev : events) {
            if (ev > t + 1e-12)
                return ev;
        }
        return std::numeric_limits<Seconds>::infinity();
    };

    Seconds now = res.prefill_time;
    std::uint64_t remaining = cfg.output_len;
    std::uint64_t done = 0;
    std::uint64_t max_dropped = p0.dropped_batch;
    Seconds decode_time = 0.0;
    Seconds last_step = ideal_step;
    double weighted_serving = 0.0;
    unsigned charged_failures = 0;
    bool rebuilt = false;
    FleetPlacement prev_place = p0;

    const auto finish = [&](RunResult &r) {
        const Seconds run_end = now;
        for (const HostFaultView::StallWindow &w : view.stalls()) {
            if (w.escalated || w.begin >= run_end)
                continue;
            fl.host_stalls++;
            fl.stall_time += std::min(w.end, run_end) - w.begin;
        }
        unsigned failed_end = 0;
        for (unsigned h = 0; h < H; h++)
            failed_end += view.hostFailed(h, run_end) ? 1 : 0;
        fl.hosts_failed = failed_end;
        fl.availability =
            out_tokens > 0.0
                ? weighted_serving /
                      (out_tokens * static_cast<double>(H))
                : 0.0;
        fl.degraded_step_time = last_step;
        fl.slowdown = ideal_step > 0.0
                          ? r.decode_step_time / ideal_step
                          : 1.0;
        r.fleet = fl;
    };

    while (remaining > 0) {
        unsigned failed_now = 0;
        for (unsigned h = 0; h < H; h++)
            failed_now += view.hostFailed(h, now) ? 1 : 0;
        if (failed_now >= H) {
            res.feasible = false;
            res.note = "every host failed mid-run; no surviving fleet "
                       "to re-place requests";
            res.faults.requests_failed = prev_place.placed_batch;
            finish(res);
            return res;
        }
        if (failed_now > charged_failures) {
            // Shard rebuild: the KV cache of requests homed on the
            // newly failed hosts re-homes onto survivors over the
            // (possibly degraded) inter-host link; decode pauses. A
            // further failure inside the rebuild window is observed on
            // the next pass — a cascade charges cumulative rebuilds.
            std::uint64_t lost_batch = 0;
            for (const HostAssignment &a : prev_place.assignments) {
                if (view.hostFailed(a.host, now))
                    lost_batch += a.batch;
            }
            if (lost_batch > 0) {
                std::uint64_t seq_now = cfg.context_len + done;
                if (host_opts_.attention_window > 0) {
                    seq_now = std::min(seq_now,
                                       host_opts_.attention_window);
                }
                const Bytes lost_bytes =
                    cfg.model.kvBytesTotal(lost_batch, seq_now);
                const Bandwidth rebuild_bw =
                    fleet_.inter_host_bw * view.interHostDerate(now);
                const Seconds rebuild = lost_bytes / rebuild_bw;
                fl.rebuild_bytes += lost_bytes;
                fl.rebuild_time += rebuild;
                now += rebuild;
                rebuilt = true;
            }
            charged_failures = failed_now;
            continue;
        }

        const std::vector<bool> serving = servingMask(view, now);
        unsigned serving_alive = 0;
        for (unsigned h = 0; h < H; h++)
            serving_alive += serving[h] ? 1 : 0;
        const unsigned stalled_now = view.stalledHosts(now);
        if (serving_alive == 0) {
            // Every alive host is stalled: decode pauses until the
            // next fleet event (a stall window always ends).
            const Seconds next_ev = nextEventAfter(now);
            HILOS_ASSERT(std::isfinite(next_ev),
                         "stalled fleet with no recovery event");
            now = next_ev;
            continue;
        }

        const FleetPlacement place =
            sched_.place(cfg, cfg.batch, serving);
        if (place.placed_batch == 0) {
            res.feasible = false;
            res.note = "surviving hosts cannot serve any share of the "
                       "batch";
            res.faults.requests_failed = cfg.batch;
            finish(res);
            return res;
        }
        max_dropped = std::max(max_dropped, place.dropped_batch);
        for (const HostAssignment &a : place.assignments) {
            if (a.batch == 0)
                continue;
            for (const HostAssignment &p : prev_place.assignments) {
                if (p.host == a.host && p.spare)
                    fl.spares_activated++;
            }
        }

        const RunResult &hr = hostRun(place.maxHostBatch());
        if (!hr.feasible) {
            res.feasible = false;
            res.note = hr.note + " on the surviving hosts (" +
                       std::to_string(serving_alive) + " of " +
                       std::to_string(H) + ")";
            res.faults.requests_failed = cfg.batch;
            finish(res);
            return res;
        }
        const double derate = view.interHostDerate(now);
        const Seconds coord =
            coordinationTime(place.placed_batch, derate);
        const Seconds step = hr.decode_step_time + coord;
        HILOS_ASSERT(step > 0.0, "fleet decode step must be positive");

        const Seconds next_ev = nextEventAfter(now);
        std::uint64_t tokens = remaining;
        if (std::isfinite(next_ev)) {
            const double span = (next_ev - now) / step;
            const auto fit = static_cast<std::uint64_t>(std::ceil(span));
            tokens =
                std::min(remaining, std::max<std::uint64_t>(1, fit));
        }
        const double w = static_cast<double>(tokens) / out_tokens;

        RunResult er = hr;
        er.decode_step_time = step;
        scaleTraffic(er.traffic,
                     static_cast<double>(place.serving_hosts));
        accumulateWeighted(res, er, w);
        if (H > 1)
            res.breakdown.add("inter_host_sync", w * coord);
        res.energy.gpu += w * place.serving_hosts * hr.energy.gpu;
        res.energy.cpu += w * place.serving_hosts * hr.energy.cpu;
        res.energy.dram += w * place.serving_hosts * hr.energy.dram;
        res.energy.storage +=
            w * place.serving_hosts * hr.energy.storage;

        FleetEpoch ep;
        ep.start = now;
        ep.hosts_serving = place.serving_hosts;
        ep.hosts_stalled = stalled_now;
        ep.hosts_failed = failed_now;
        ep.placed_batch = place.placed_batch;
        ep.step_time = step;
        ep.tokens = tokens;
        fl.epochs.push_back(ep);

        weighted_serving += static_cast<double>(tokens) *
                            static_cast<double>(place.serving_hosts);
        decode_time += static_cast<double>(tokens) * step;
        now += static_cast<double>(tokens) * step;
        remaining -= tokens;
        last_step = step;
        prev_place = place;
    }

    finish(res);
    res.total_time = res.prefill_time + decode_time + fl.rebuild_time +
                     fl.stall_time;
    // Requests that rode out a rebuild, a stall, or a degraded link
    // finished late; requests beyond the worst epoch's capacity never
    // finished at all.
    if (rebuilt || fl.stall_time > 0.0 || fl.rebuild_time > 0.0) {
        res.faults.requests_degraded = std::max(
            res.faults.requests_degraded, prev_place.placed_batch);
    }
    res.faults.requests_failed += max_dropped;
    res.fleet = fl;  // finish() ran before total_time; re-store
    return res;
}

FleetPlacement
FleetEngine::healthyPlacement(const RunConfig &cfg) const
{
    return sched_.place(cfg, cfg.batch,
                        std::vector<bool>(fleet_.hosts, true));
}

void
FleetEngine::appendCoordination(StepPlan &plan, std::uint64_t placed_batch,
                                double derate) const
{
    if (!plan.feasible || fleet_.hosts <= 1)
        return;
    plan.declareStage("inter_host_sync");
    plan.declareResource(PlanResource::InterNode, 1);
    plan.addTailOp(
        transferOp(PlanResource::InterNode, "inter_host_sync",
                   coordinationTime(placed_batch, derate),
                   static_cast<double>(placed_batch) * kSyncBytesPerRequest)
            .stageTag("inter_host_sync"));
}

void
FleetEngine::buildDecodePlan(const RunConfig &cfg, RunResult &res,
                             StepPlan &plan) const
{
    const FleetPlacement place = healthyPlacement(cfg);
    if (place.placed_batch == 0) {
        plan = unplacedPlan(PlanPhase::Decode);
        return;
    }
    host_engine_.buildDecodePlan(hostShare(cfg, place), res, plan);
    appendCoordination(plan, place.placed_batch, 1.0);
}

void
FleetEngine::buildPrefillPlan(const RunConfig &cfg,
                              std::uint64_t chunk_index,
                              std::uint64_t chunk_count,
                              StepPlan &plan) const
{
    const FleetPlacement place = healthyPlacement(cfg);
    if (place.placed_batch == 0) {
        plan = unplacedPlan(PlanPhase::Prefill);
        return;
    }
    host_engine_.buildPrefillPlan(hostShare(cfg, place), chunk_index,
                                  chunk_count, plan);
}

RunResult
FleetEngine::runCached(const RunConfig &cfg, PlanCache &) const
{
    return run(cfg);
}

StepPlan
FleetEngine::decodeStepPlanAt(const RunConfig &cfg, Seconds now) const
{
    const HostFaultView view(fleet_.fault_plan, fleet_.hosts);
    const FleetPlacement place =
        sched_.place(cfg, cfg.batch, servingMask(view, now));
    if (place.placed_batch == 0)
        return unplacedPlan(PlanPhase::Decode);
    StepPlan plan =
        host_engine_.decodeStepPlanAt(hostShare(cfg, place), now);
    appendCoordination(plan, place.placed_batch,
                       view.interHostDerate(now));
    return plan;
}

Seconds
FleetEngine::simulatedDecodeStep(const RunConfig &cfg, Seconds now) const
{
    const StepPlan plan = decodeStepPlanAt(cfg, now);
    return plan.feasible ? simulatePlan(plan).decode_step_time : Seconds(0.0);
}

}  // namespace hilos

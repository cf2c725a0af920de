#include "runtime/fleet_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "runtime/event_sim.h"
#include "runtime/step_plan.h"

namespace hilos {

namespace {

/** Token id + metadata each request contributes to the per-step sync. */
constexpr double kSyncBytesPerRequest = 16.0;

/**
 * Per-host engine options after fleet fan-out: each host runs
 * `devices_per_host` SmartSSDs under the fleet's fault plan (a host
 * engine reads only its device-scope events). Also the construction
 * gate on FleetConfig validity (members initialize before the engine
 * ctor body runs).
 */
HilosOptions
fleetHostOptions(const FleetConfig &fleet, const HilosOptions &base)
{
    const std::vector<std::string> diags = fleet.validate();
    if (!diags.empty())
        HILOS_FATAL("invalid fleet config: ", diags.front());
    HilosOptions opts = base;
    opts.num_devices = fleet.devices_per_host;
    opts.fault_plan = fleet.fault_plan;
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

/**
 * Mark `plan` the infeasible plan of a fleet with no host to place
 * work on. In place, like every engine's infeasible exit: assigning a
 * fresh plan would also reset the build mode a PlanCache rebuild runs
 * the builder under.
 */
void
markUnplaced(StepPlan &plan, PlanPhase phase)
{
    plan.phase = phase;
    plan.feasible = false;
    plan.note = "no host can serve a share of this workload";
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
      host_engine_(sys, host_opts_),
      timeline_(fleet.fault_plan, fleet.devices_per_host, fleet.hosts)
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

FleetPlacement
FleetEngine::healthyPlacement(const RunConfig &cfg) const
{
    return sched_.place(cfg, cfg.batch, allHostsMask(fleet_.hosts));
}

FleetPlacement
FleetEngine::placementAt(const RunConfig &cfg, Seconds now) const
{
    std::uint64_t serving = allHostsMask(fleet_.hosts);
    for (unsigned h = 0; h < fleet_.hosts; h++) {
        if (timeline_.hostFailed(h, now) || timeline_.hostStalled(h, now))
            serving &= ~(std::uint64_t{1} << h);
    }
    return sched_.place(cfg, cfg.batch, serving);
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
        markUnplaced(plan, PlanPhase::Decode);
        res.feasible = false;
        res.note = plan.note;
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
        markUnplaced(plan, PlanPhase::Prefill);
        return;
    }
    host_engine_.buildPrefillPlan(hostShare(cfg, place), chunk_index,
                                  chunk_count, plan);
}

void
FleetEngine::buildDecodePlanAt(const RunConfig &cfg, Seconds now,
                               RunResult &res, StepPlan &plan) const
{
    const FleetPlacement place = placementAt(cfg, now);
    if (place.placed_batch == 0) {
        markUnplaced(plan, PlanPhase::Decode);
        if (now > 0.0 && timeline_.failedHosts(now) >= fleet_.hosts) {
            plan.note = "every host failed mid-run; no surviving fleet to "
                        "re-place requests";
        }
        res.feasible = false;
        res.note = plan.note;
        return;
    }
    host_engine_.buildDecodePlanAt(hostShare(cfg, place), now, res, plan);
    appendCoordination(plan, place.placed_batch,
                       timeline_.interHostDerate(now));
}

void
FleetEngine::buildPrefillPlanAt(const RunConfig &cfg, Seconds now,
                                std::uint64_t chunk_index,
                                std::uint64_t chunk_count,
                                StepPlan &plan) const
{
    const FleetPlacement place = placementAt(cfg, now);
    if (place.placed_batch == 0) {
        markUnplaced(plan, PlanPhase::Prefill);
        return;
    }
    host_engine_.buildPrefillPlanAt(hostShare(cfg, place), now, chunk_index,
                                    chunk_count, plan);
}

StepPlan
FleetEngine::rebuildPlanAt(const RunConfig &cfg, Seconds since, Seconds now,
                           std::uint64_t done) const
{
    if (timeline_.failedHosts(now) >= fleet_.hosts)
        return StepPlan{};  // no survivor to rebuild onto
    // Host losses are permanent, so with no host and no host device
    // lost since `since` nothing needs rebuilding: skip the placement.
    const ConditionTimeline &host_timeline = host_engine_.timeline();
    if (timeline_.failedHosts(now) == timeline_.failedHosts(since) &&
        host_timeline.survivingDevices(now) >=
            host_timeline.survivingDevices(since))
        return StepPlan{};
    // Shards live where the placement held since `since` put them.
    const FleetPlacement held = placementAt(cfg, since);
    StepPlan plan = host_engine_.rebuildPlanAt(hostShare(cfg, held), since,
                                               now, done);
    std::uint64_t lost_batch = 0;
    for (const HostAssignment &a : held.assignments) {
        if (timeline_.hostFailed(a.host, now))
            lost_batch += a.batch;
    }
    if (lost_batch == 0)
        return plan;
    // The KV cache of requests homed on the lost hosts re-homes onto
    // the survivors over the (possibly degraded) inter-host link,
    // priced at the prompt's length as the fleet golden pins it (the
    // `done` decode tokens since are not yet counted).
    std::uint64_t seq_now = cfg.context_len;
    if (host_opts_.attention_window > 0)
        seq_now = std::min(seq_now, host_opts_.attention_window);
    const Bytes lost_bytes = cfg.model.kvBytesTotal(lost_batch, seq_now);
    const Bandwidth rebuild_bw =
        fleet_.inter_host_bw * timeline_.interHostDerate(now);
    plan.declareStage("host_rebuild");
    plan.declareResource(PlanResource::InterNode, 1);
    plan.addTailOp(transferOp(PlanResource::InterNode, "host_rebuild",
                              lost_bytes / rebuild_bw, lost_bytes)
                       .stageTag("host_rebuild"));
    return plan;
}

void
FleetEngine::summarize(const RunConfig &cfg, const EpochLog &log,
                       RunResult &res) const
{
    const FleetPlacement p0 = placementAt(cfg, 0.0);
    if (!host_engine_.timeline().empty())
        host_engine_.summarize(hostShare(cfg, p0), log, res);
    res.effective_batch = p0.placed_batch;

    FleetSummary fl;
    fl.hosts = fleet_.hosts;
    fl.devices_per_host = fleet_.devices_per_host;
    fl.policy = placementPolicyName(fleet_.policy);
    fl.epochs.reserve(log.epochs.size());

    // Whole-run host accounting per (share, host conditions): a host's
    // conditions change only at its own timeline's change times. A run
    // prices a few such pairs, so a linear scan finds them.
    struct HostRun {
        std::uint64_t batch;
        std::size_t segment;
        RunResult result;
    };
    std::vector<HostRun> host_runs;
    host_runs.reserve(log.epochs.size());
    const RunResult idle;  // an epoch with nothing placed runs no host
    const auto hostRun = [&](std::uint64_t b,
                             Seconds t) -> const RunResult & {
        if (b == 0)
            return idle;
        const std::size_t seen = host_engine_.timeline().segmentAt(t);
        for (const HostRun &run : host_runs) {
            if (run.batch == b && run.segment == seen)
                return run.result;
        }
        RunConfig host_cfg = cfg;
        host_cfg.batch = b;
        return host_runs
            .emplace_back(b, seen,
                          host_engine_.runAt(host_cfg, t, log.cache))
            .result;
    };

    // Serving hosts carry the traffic and energy of their share; the
    // decode step, breakdown and prefill are the fleet plans' own.
    TrafficCounters traffic;
    ComponentBusy busy;
    EnergyBreakdown energy;
    double weighted_serving = 0.0;
    std::uint64_t max_dropped = p0.dropped_batch;
    FleetPlacement prev = p0;
    for (const DecodeEpoch &ep : log.epochs) {
        const FleetPlacement place = placementAt(cfg, ep.start);
        max_dropped = std::max(max_dropped, place.dropped_batch);
        for (const HostAssignment &a : place.assignments) {
            if (a.batch == 0)
                continue;
            for (const HostAssignment &p : prev.assignments) {
                if (p.host == a.host && p.spare)
                    fl.spares_activated++;
            }
        }
        const RunResult &hr = hostRun(place.maxHostBatch(), ep.start);
        const double w = ep.weight;
        TrafficCounters t = hr.traffic;
        scaleTraffic(t, static_cast<double>(place.serving_hosts));
        traffic.host_read_bytes += w * t.host_read_bytes;
        traffic.host_write_bytes += w * t.host_write_bytes;
        traffic.attn_host_read_bytes += w * t.attn_host_read_bytes;
        traffic.attn_host_write_bytes += w * t.attn_host_write_bytes;
        traffic.internal_bytes += w * t.internal_bytes;
        traffic.storage_write_bytes += w * t.storage_write_bytes;
        busy.gpu += w * hr.busy.gpu;
        busy.cpu += w * hr.busy.cpu;
        busy.dram += w * hr.busy.dram;
        busy.storage += w * hr.busy.storage;
        busy.fpga += w * hr.busy.fpga;
        energy.gpu += w * place.serving_hosts * hr.energy.gpu;
        energy.cpu += w * place.serving_hosts * hr.energy.cpu;
        energy.dram += w * place.serving_hosts * hr.energy.dram;
        energy.storage += w * place.serving_hosts * hr.energy.storage;

        FleetEpoch fe;
        fe.start = ep.start;
        fe.hosts_serving = place.serving_hosts;
        fe.hosts_stalled = timeline_.stalledHosts(ep.start);
        fe.hosts_failed = timeline_.failedHosts(ep.start);
        fe.placed_batch = place.placed_batch;
        fe.step_time = ep.step;
        fe.tokens = ep.tokens;
        fl.epochs.push_back(fe);
        weighted_serving += static_cast<double>(ep.tokens) *
                            static_cast<double>(place.serving_hosts);
        prev = place;
    }

    fl.host_stalls = timeline_.recoveredStallsBefore(log.end).stalls;
    fl.stall_time = log.stall_time;
    fl.hosts_failed = timeline_.failedHosts(log.end);
    fl.rebuild_bytes = log.rebuild_bytes;
    fl.rebuild_time = log.rebuild_time;
    fl.availability =
        cfg.output_len == 0
            ? 1.0
            : weighted_serving / (static_cast<double>(cfg.output_len) *
                                  static_cast<double>(fleet_.hosts));
    if (!log.epochs.empty())
        fl.degraded_step_time = log.epochs.back().step;
    if (!res.feasible) {
        res.faults.requests_failed = cfg.batch;
        res.fleet = std::move(fl);
        return;
    }
    fl.slowdown = log.healthy_step > 0.0
                      ? res.decode_step_time / log.healthy_step
                      : 1.0;
    res.traffic = traffic;
    res.busy = busy;
    res.energy = energy;
    // Requests that rode out a rebuild or a stall finished late;
    // requests beyond the worst epoch's capacity never finished.
    if (log.rebuild_time > 0.0 || fl.stall_time > 0.0) {
        res.faults.requests_degraded =
            std::max(res.faults.requests_degraded, prev.placed_batch);
    }
    res.faults.requests_failed += max_dropped;
    res.fleet = std::move(fl);
}

Seconds
FleetEngine::simulatedDecodeStep(const RunConfig &cfg, Seconds now) const
{
    const StepPlan plan = decodeStepPlanAt(cfg, now);
    return plan.feasible ? simulatePlan(plan).decode_step_time : Seconds(0.0);
}

}  // namespace hilos

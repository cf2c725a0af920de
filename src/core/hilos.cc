#include "core/hilos.h"

#include "common/logging.h"
#include "runtime/plan_cache.h"
#include "sim/parallel.h"

namespace hilos {

std::string_view
engineKindName(EngineKind kind)
{
    for (const EngineName &e : kEngineNames) {
        if (e.kind == kind)
            return e.name;
    }
    HILOS_PANIC("unknown engine kind");
}

bool
parseEngineKind(std::string_view name, EngineKind *out)
{
    for (const EngineName &e : kEngineNames) {
        if (e.name == name) {
            *out = e.kind;
            return true;
        }
    }
    return false;
}

std::unique_ptr<InferenceEngine>
makeEngine(EngineKind kind, const SystemConfig &sys,
           const HilosOptions &hilos_opts)
{
    switch (kind) {
      case EngineKind::FlexDram:
        return std::make_unique<FlexGenEngine>(sys, FlexTier::HostDram);
      case EngineKind::FlexSsd:
        return std::make_unique<FlexGenEngine>(sys,
                                               FlexTier::BaselineSsds);
      case EngineKind::FlexSmartSsdRaw:
        return std::make_unique<FlexGenEngine>(
            sys, FlexTier::SmartSsdsNoFpga);
      case EngineKind::DeepSpeedUvm:
        return std::make_unique<DeepSpeedUvmEngine>(sys);
      case EngineKind::VllmMultiGpu:
        return std::make_unique<VllmMultiGpuEngine>(sys,
                                                    VllmClusterConfig{});
      case EngineKind::Hilos:
        return std::make_unique<HilosEngine>(sys, hilos_opts);
    }
    HILOS_PANIC("unknown engine kind");
}

std::unique_ptr<InferenceEngine>
makeFleetEngine(const SystemConfig &sys, const FleetConfig &fleet,
                const HilosOptions &host_opts)
{
    return std::make_unique<FleetEngine>(sys, fleet, host_opts);
}

StepPlan
decodeStepPlanFor(EngineKind kind, const SystemConfig &sys,
                  const RunConfig &run, const HilosOptions &hilos_opts)
{
    return makeEngine(kind, sys, hilos_opts)->decodeStepPlan(run);
}

StepPlan
prefillStepPlanFor(EngineKind kind, const SystemConfig &sys,
                   const RunConfig &run, std::uint64_t chunk_index,
                   std::uint64_t chunk_count,
                   const HilosOptions &hilos_opts)
{
    return makeEngine(kind, sys, hilos_opts)
        ->prefillStepPlan(run, chunk_index, chunk_count);
}

std::vector<RunResult>
runGrid(const SystemConfig &sys, const std::vector<GridPoint> &grid,
        unsigned jobs)
{
    SweepDriver driver(jobs);
    struct Slot {
        bool valid = false;
        EngineKind kind = EngineKind::Hilos;
        std::unique_ptr<InferenceEngine> engine;
        PlanCache cache;
    };
    std::vector<Slot> slots(driver.jobs());
    return driver.mapWorker(grid, [&](unsigned worker, const GridPoint &p) {
        Slot &slot = slots[worker];
        // HilosOptions carries a FaultPlan with no cheap equality, so
        // Hilos points always refresh the engine (a config copy); the
        // worker's PlanCache persists regardless — a verified rebuild
        // re-annotates under the new options, and any topology change
        // falls back to a cold build.
        if (!slot.valid || slot.kind != p.kind ||
            p.kind == EngineKind::Hilos) {
            slot.engine = makeEngine(p.kind, sys, p.hilos);
            slot.kind = p.kind;
            slot.valid = true;
        }
        return slot.engine->runCached(p.run, slot.cache);
    });
}

std::vector<EngineComparison>
compareEngines(const SystemConfig &sys, const RunConfig &run,
               unsigned smartssds)
{
    HilosOptions opts;
    opts.num_devices = smartssds;
    std::vector<EngineComparison> rows;
    for (EngineKind kind :
         {EngineKind::FlexSsd, EngineKind::FlexDram,
          EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
          EngineKind::Hilos}) {
        auto engine = makeEngine(kind, sys, opts);
        rows.push_back(EngineComparison{engine->name(), engine->run(run)});
    }
    return rows;
}

double
normalizedThroughput(const RunResult &result,
                     const RunResult &flex_ssd_baseline)
{
    const double base = flex_ssd_baseline.decodeThroughput();
    const double mine = result.decodeThroughput();
    if (base <= 0.0 || mine <= 0.0)
        return 0.0;
    return mine / base;
}

}  // namespace hilos

/**
 * @file
 * HILOS public facade.
 *
 * One include for downstream users: build a system description, pick an
 * engine (HILOS or any baseline), run offline batched inference, and
 * get timing / traffic / energy / cost reports. The functional
 * accelerator, storage, and LLM substrates remain directly accessible
 * through their own headers for users who need the lower layers.
 *
 * Quickstart:
 * @code
 *   hilos::SystemConfig sys = hilos::defaultSystem();
 *   hilos::RunConfig run{hilos::opt66b(), 16, 32768, 64};
 *   auto engine = hilos::makeEngine(hilos::EngineKind::Hilos, sys);
 *   hilos::RunResult r = engine->run(run);
 *   std::cout << r.decodeThroughput() << " tokens/s\n";
 * @endcode
 */

#ifndef HILOS_CORE_HILOS_H_
#define HILOS_CORE_HILOS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "llm/model_config.h"
#include "runtime/deepspeed_uvm.h"
#include "runtime/engine.h"
#include "runtime/fleet_engine.h"
#include "runtime/flexgen.h"
#include "runtime/hilos_engine.h"
#include "runtime/serving.h"
#include "runtime/serving_workload.h"
#include "runtime/step_plan.h"
#include "runtime/system_config.h"
#include "runtime/vllm_multigpu.h"

namespace hilos {

/** The systems evaluated in the paper. */
enum class EngineKind {
    FlexDram,         ///< FLEX(DRAM)
    FlexSsd,          ///< FLEX(SSD)
    FlexSmartSsdRaw,  ///< FLEX(16 PCIe 3.0 SSDs), FPGAs disabled
    DeepSpeedUvm,     ///< DS+UVM(DRAM)
    VllmMultiGpu,     ///< 2-node 8-GPU vLLM
    Hilos,            ///< full HILOS
};

/** An EngineKind and its command-line name. */
struct EngineName {
    EngineKind kind;
    std::string_view name;
};

/** Every EngineKind with its name, in declaration order. */
inline constexpr EngineName kEngineNames[] = {
    {EngineKind::FlexDram, "flex-dram"},
    {EngineKind::FlexSsd, "flex-ssd"},
    {EngineKind::FlexSmartSsdRaw, "flex-16p3"},
    {EngineKind::DeepSpeedUvm, "ds-uvm"},
    {EngineKind::VllmMultiGpu, "vllm"},
    {EngineKind::Hilos, "hilos"},
};

/** The command-line name of `kind` (kEngineNames). */
std::string_view engineKindName(EngineKind kind);

/**
 * The kind called `name` in kEngineNames into `*out`; false, leaving
 * `*out` unchanged, for any other name.
 */
bool parseEngineKind(std::string_view name, EngineKind *out);

/**
 * Engine factory. `hilos_opts` applies only to EngineKind::Hilos.
 */
std::unique_ptr<InferenceEngine> makeEngine(
    EngineKind kind, const SystemConfig &sys,
    const HilosOptions &hilos_opts = HilosOptions{});

/**
 * Fleet factory: N hosts of HILOS SmartSSDs under one placement
 * policy (see runtime/fleet_engine.h). `host_opts` configures each
 * host's engine; its device count and fault plan are overridden by the
 * fleet shape and the device-scope subset of `fleet.fault_plan`.
 */
std::unique_ptr<InferenceEngine> makeFleetEngine(
    const SystemConfig &sys, const FleetConfig &fleet,
    const HilosOptions &host_opts = HilosOptions{});

/**
 * The decode-step plan a named engine emits for one workload
 * (InferenceEngine::decodeStepPlan). Infeasible configurations come
 * back with `feasible == false` and the reason in `note`; for
 * EngineKind::Hilos the plan describes the zero-fault ideal fleet.
 */
StepPlan decodeStepPlanFor(EngineKind kind, const SystemConfig &sys,
                           const RunConfig &run,
                           const HilosOptions &hilos_opts = HilosOptions{});

/**
 * The Prefill-phase plan a named engine emits for chunk `chunk_index`
 * of `chunk_count` (the defaults name the monolithic prefill). Same
 * conventions as decodeStepPlanFor: infeasible configurations come
 * back with `feasible == false`, and EngineKind::Hilos describes the
 * zero-fault ideal fleet.
 */
StepPlan prefillStepPlanFor(EngineKind kind, const SystemConfig &sys,
                            const RunConfig &run,
                            std::uint64_t chunk_index = 0,
                            std::uint64_t chunk_count = 1,
                            const HilosOptions &hilos_opts = HilosOptions{});

/**
 * One point of an engine sweep grid: which system to model and the
 * workload to run it on (see runGrid).
 */
struct GridPoint {
    EngineKind kind = EngineKind::Hilos;
    HilosOptions hilos;  ///< applies only to EngineKind::Hilos
    RunConfig run;
};

/**
 * Evaluate every grid point, fanning independent points across `jobs`
 * worker threads (0 = hardware concurrency, 1 = serial). Each worker
 * keeps the engine it last constructed plus a PlanCache
 * (runtime/plan_cache.h), so consecutive points differing only in
 * scalar parameters (batch, context, output length, HILOS knobs that
 * re-price but don't reshape the plan) rebuild annotations in place
 * instead of re-deriving the op topology. Topology changes — a
 * different engine kind, a capacity decision flipping a plan
 * infeasible — are caught by the cache's verified rebuild and fall
 * back to a cold build, so results are keyed by grid index and
 * bit-identical to a cold `makeEngine(...)->run()` per point for every
 * `jobs` value.
 */
std::vector<RunResult> runGrid(const SystemConfig &sys,
                               const std::vector<GridPoint> &grid,
                               unsigned jobs = 1);

/** One row of a cross-engine comparison. */
struct EngineComparison {
    std::string engine;
    RunResult result;
};

/**
 * Run every paper system on one workload.
 * @param smartssds SmartSSD count for the HILOS entry
 */
std::vector<EngineComparison> compareEngines(const SystemConfig &sys,
                                             const RunConfig &run,
                                             unsigned smartssds = 8);

/**
 * Throughput of `result` normalised to the FLEX(SSD) baseline on the
 * same workload (the Fig. 10 presentation); 0 when either side is
 * infeasible.
 */
double normalizedThroughput(const RunResult &result,
                            const RunResult &flex_ssd_baseline);

}  // namespace hilos

#endif  // HILOS_CORE_HILOS_H_

/**
 * @file
 * DeepSpeed ZeRO-Inference extended with Unified Virtual Memory
 * (DS+UVM(DRAM), §6.1): KV and activations live in host memory and the
 * GPU touches them through UVM page faults, paying a large effective
 * bandwidth penalty on every host-memory access (Fig. 10 shows >4x
 * slowdown versus FLEX(DRAM)).
 */

#ifndef HILOS_RUNTIME_DEEPSPEED_UVM_H_
#define HILOS_RUNTIME_DEEPSPEED_UVM_H_

#include <string>

#include "runtime/engine.h"
#include "runtime/step_plan.h"
#include "runtime/system_config.h"

namespace hilos {

/** DS+UVM(DRAM) baseline engine. */
class DeepSpeedUvmEngine : public InferenceEngine
{
  public:
    explicit DeepSpeedUvmEngine(const SystemConfig &sys);

    std::string name() const override { return "DS+UVM(DRAM)"; }
    RunResult run(const RunConfig &cfg) const override;
    RunResult runCached(const RunConfig &cfg,
                        PlanCache &cache) const override;
    StepPlan decodeStepPlan(const RunConfig &cfg) const override;
    StepPlan prefillStepPlan(const RunConfig &cfg,
                             std::uint64_t chunk_index = 0,
                             std::uint64_t chunk_count = 1) const override;

  private:
    /** Capacity decisions into `res`, decode step into `plan`. */
    void makePlan(const RunConfig &cfg, RunResult &res,
                  StepPlan &plan) const;

    /** Prefill-phase plan for one chunk. */
    void makePrefillPlan(const RunConfig &cfg, std::uint64_t chunk_index,
                         std::uint64_t chunk_count, StepPlan &plan) const;

    /** The capacity-shrunk batch (0 = infeasible, setting `note`). */
    std::uint64_t effectiveBatch(const RunConfig &cfg,
                                 std::string *note) const;

    SystemConfig sys_;
};

}  // namespace hilos

#endif  // HILOS_RUNTIME_DEEPSPEED_UVM_H_

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
    /** Capacity decisions into `res`, decode step into `plan`. */
    void buildDecodePlan(const RunConfig &cfg, RunResult &res,
                         StepPlan &plan) const override;
    /** Prefill-phase plan for one chunk. */
    void buildPrefillPlan(const RunConfig &cfg, std::uint64_t chunk_index,
                          std::uint64_t chunk_count,
                          StepPlan &plan) const override;

  private:
    /** The capacity-shrunk batch (0 = infeasible, setting `note`). */
    std::uint64_t effectiveBatch(const RunConfig &cfg,
                                 std::string *note) const;

    SystemConfig sys_;
    Gpu gpu_;
    PowerSpec power_;
};

}  // namespace hilos

#endif  // HILOS_RUNTIME_DEEPSPEED_UVM_H_

/**
 * @file
 * FlexGen-style offloading-based batched inference baselines (§2.2,
 * §6.1): KV cache on host DRAM, on a four-SSD RAID-0, or on the sixteen
 * SmartSSD NVMe devices with their FPGAs disabled. Decode attention is
 * offloaded to the CPU; weight staging overlaps with compute and I/O.
 */

#ifndef HILOS_RUNTIME_FLEXGEN_H_
#define HILOS_RUNTIME_FLEXGEN_H_

#include <string>

#include "runtime/engine.h"
#include "runtime/step_plan.h"
#include "runtime/system_config.h"

namespace hilos {

/** Which tier holds the KV cache. */
enum class FlexTier {
    HostDram,         ///< FLEX(DRAM)
    BaselineSsds,     ///< FLEX(SSD): 4 x PM9A3 RAID-0
    SmartSsdsNoFpga,  ///< FLEX(16 PCIe 3.0 SSDs): FPGAs disabled
};

/**
 * FlexGen baseline engine.
 */
class FlexGenEngine : public InferenceEngine
{
  public:
    FlexGenEngine(const SystemConfig &sys, FlexTier tier);

    std::string name() const override;
    /** Capacity decisions into `res`, decode step into `plan`. */
    void buildDecodePlan(const RunConfig &cfg, RunResult &res,
                         StepPlan &plan) const override;
    /** Prefill-phase plan for one chunk (shares buildDecodePlan's
     *  capacity decision via effectiveBatch). */
    void buildPrefillPlan(const RunConfig &cfg, std::uint64_t chunk_index,
                          std::uint64_t chunk_count,
                          StepPlan &plan) const override;

    /** Aggregate storage read bandwidth of this tier's fleet. */
    Bandwidth storageReadBw() const;
    /** Aggregate storage write bandwidth of this tier's fleet. */
    Bandwidth storageWriteBw() const;

  private:
    /** The capacity-shrunk batch (0 = infeasible); sets `note` when the
     *  batch shrank or the config does not fit. */
    std::uint64_t effectiveBatch(const RunConfig &cfg,
                                 std::string *note) const;

    SystemConfig sys_;
    FlexTier tier_;
    Gpu gpu_;
    Cpu cpu_;
    PowerSpec power_;
};

}  // namespace hilos

#endif  // HILOS_RUNTIME_FLEXGEN_H_

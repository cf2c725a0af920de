/**
 * @file
 * Distributed multi-GPU baseline (Fig. 17(b)): vLLM 0.9.1-style serving
 * on two nodes of four RTX A6000s, tensor parallelism inside a node and
 * pipeline parallelism across nodes over InfiniBand EDR. The KV cache
 * lives in aggregated GPU memory (paged attention), so the model is
 * batch-capacity-limited and communication-bound rather than
 * storage-bound.
 */

#ifndef HILOS_RUNTIME_VLLM_MULTIGPU_H_
#define HILOS_RUNTIME_VLLM_MULTIGPU_H_

#include <string>

#include "runtime/engine.h"
#include "runtime/step_plan.h"
#include "runtime/system_config.h"

namespace hilos {

/** Cluster shape for the multi-GPU baseline. */
struct VllmClusterConfig {
    GpuConfig gpu;              ///< per-GPU model (RTX A6000 default)
    unsigned nodes = 2;
    unsigned gpus_per_node = 4; ///< tensor-parallel degree
    Bandwidth intra_node_bw = 26.8 * GB;  ///< PCIe 4.0 x16 all-reduce path
    Bandwidth inter_node_bw = 12.5 * GB;  ///< InfiniBand EDR
    Seconds allreduce_latency = usec(20);
    Seconds pp_hop_latency = usec(15);
    /**
     * Fraction of host PCIe bandwidth the KV swap path achieves
     * (paging, preemption and scheduler overhead on the overflow path).
     */
    double swap_efficiency = 0.55;
    double node_price_usd = 28000.0;  ///< 4 x A6000 + host, per node

    VllmClusterConfig() { gpu = a6000Config(); }
};

/** vLLM tensor+pipeline-parallel baseline engine. */
class VllmMultiGpuEngine : public InferenceEngine
{
  public:
    VllmMultiGpuEngine(const SystemConfig &sys,
                       const VllmClusterConfig &cluster);

    std::string name() const override { return "vLLM(2x4xA6000)"; }
    /** Capacity decisions into `res`, decode step into `plan`. */
    void buildDecodePlan(const RunConfig &cfg, RunResult &res,
                         StepPlan &plan) const override;
    /** Prefill-phase plan for one chunk. */
    void buildPrefillPlan(const RunConfig &cfg, std::uint64_t chunk_index,
                          std::uint64_t chunk_count,
                          StepPlan &plan) const override;

    /** Aggregate GPU memory of the cluster. */
    double totalGpuMemory() const;

  private:
    SystemConfig sys_;
    VllmClusterConfig cluster_;
    Gpu gpu_;  ///< one cluster GPU
    /** The whole cluster's power: every GPU and every node's CPU. */
    PowerSpec power_;
};

}  // namespace hilos

#endif  // HILOS_RUNTIME_VLLM_MULTIGPU_H_

#include "runtime/vllm_multigpu.h"

#include <algorithm>

#include "common/logging.h"
#include "runtime/cost_model.h"
#include "runtime/prefill_constants.h"

namespace hilos {

namespace {

/**
 * Power figures for energy over the whole cluster: all cluster GPUs, one
 * CPU per node, no storage fleet. GPU and CPU power scale by their
 * counts.
 */
PowerSpec
clusterPower(const SystemConfig &sys, const VllmClusterConfig &cluster)
{
    const double gpus =
        static_cast<double>(cluster.nodes * cluster.gpus_per_node);
    PowerSpec p = powerSpecOf(sys);
    p.gpu_tdp = cluster.gpu.tdp * gpus;
    p.gpu_idle = cluster.gpu.idle_power * gpus;
    p.cpu_tdp = sys.cpu.tdp * static_cast<double>(cluster.nodes);
    p.cpu_idle = sys.cpu.idle_power * static_cast<double>(cluster.nodes);
    return p;
}

}  // namespace

VllmMultiGpuEngine::VllmMultiGpuEngine(const SystemConfig &sys,
                                       const VllmClusterConfig &cluster)
    : sys_(sys), cluster_(cluster), gpu_(cluster.gpu),
      power_(clusterPower(sys, cluster))
{
    HILOS_ASSERT(cluster_.nodes >= 1 && cluster_.gpus_per_node >= 1,
                 "invalid cluster shape");
}

double
VllmMultiGpuEngine::totalGpuMemory() const
{
    return static_cast<double>(cluster_.nodes) *
           static_cast<double>(cluster_.gpus_per_node) *
           static_cast<double>(cluster_.gpu.memory_capacity);
}

void
VllmMultiGpuEngine::buildDecodePlan(const RunConfig &cfg,
                                    RunResult &res, StepPlan &plan) const
{
    const ModelConfig &m = cfg.model;
    const unsigned tp = cluster_.gpus_per_node;
    const unsigned pp = cluster_.nodes;
    const std::uint64_t total_seq = cfg.context_len + cfg.output_len;

    // Everything (weights + paged KV + runtime overhead) must fit the
    // aggregated GPU memory.
    // Weights plus per-GPU runtime state: CUDA context, activation
    // workspace, and paged-attention metadata.
    const double weight_bytes =
        static_cast<double>(m.weightBytesTotal()) * 1.12;
    const double capacity = totalGpuMemory() * 0.92;  // allocator headroom
    if (weight_bytes > capacity) {
        res.feasible = false;
        res.note = "model weights exceed aggregate GPU memory";
        plan.feasible = false;
        plan.note = res.note;
        return;
    }
    res.effective_batch = maxFittingBatch(m, cfg.batch, total_seq,
                                          capacity, weight_bytes);
    // When the paged KV cache exceeds aggregate GPU memory, vLLM falls
    // back to its CPU swap space: the overflow share of each layer's KV
    // streams over host PCIe every step (this is the regime the paper's
    // multi-node comparison lands in at long contexts).
    double swap_fraction = 0.0;
    if (res.effective_batch < cfg.batch) {
        const double kv_needed =
            m.kvBytesTotal(cfg.batch, total_seq);
        const double kv_budget =
            std::max(0.0, capacity - weight_bytes);
        swap_fraction = 1.0 - kv_budget / kv_needed;
        res.effective_batch = cfg.batch;
        res.note = "KV overflow swaps to host memory (" +
                   std::to_string(static_cast<int>(swap_fraction * 100)) +
                   "% of KV per step over PCIe)";
    }
    const std::uint64_t b = res.effective_batch;
    const std::uint64_t s_mid = midGenerationContext(cfg.context_len, cfg.output_len);

    // --- Per-layer decode time on one pipeline stage ---
    // Weights are resident and shard across the TP group: the GEMMs are
    // HBM-bandwidth bound on the per-GPU shard.
    const double layer_weight_shard =
        m.loadedWeightBytesPerLayer(b) / static_cast<double>(tp);
    const Seconds gemm = gpu_.kernelTime(
        static_cast<double>(b) * m.denseFlopsPerTokenPerLayer() /
            static_cast<double>(tp),
        layer_weight_shard);
    // Paged attention over the sharded KV cache, HBM-bound.
    const Seconds attn =
        gpuAttentionTime(gpu_, m, b, s_mid) / static_cast<double>(tp);
    // Two all-reduces per layer (attention output + MLP output) over the
    // intra-node fabric: ring all-reduce moves 2 (tp-1)/tp of the
    // activation per GPU.
    const Bytes act_bytes = static_cast<double>(b) *
                            static_cast<double>(m.hidden) *
                            static_cast<double>(m.dtype_bytes);
    const Seconds allreduce =
        2.0 * (2.0 * static_cast<double>(tp - 1) /
                   static_cast<double>(tp) * act_bytes /
                   cluster_.intra_node_bw +
               cluster_.allreduce_latency);
    // Swapped KV streams host -> GPU over each node's PCIe link.
    const Seconds swap_stream =
        swap_fraction * kvLayerBytes(m, b, s_mid) /
        (static_cast<double>(pp) * sys_.host_pcie_bw *
         cluster_.swap_efficiency);
    // --- Pipeline composition across nodes ---
    // Each stage owns L/pp layers; stages overlap on different
    // microbatches, but auto-regressive decoding with a small batch
    // leaves bubbles: efficiency b / (b + pp - 1).
    const double pp_eff =
        static_cast<double>(b) / static_cast<double>(b + pp - 1);
    const Seconds pp_comm =
        static_cast<double>(pp) *
        (act_bytes / cluster_.inter_node_bw + cluster_.pp_hop_latency);

    // --- The decode-step plan: a serial per-layer chain (GEMM, paged
    // attention, collectives, swap), divided by the bubble efficiency,
    // plus the once-per-token inter-node hops as the serial tail ---
    plan.layers = m.layers;
    plan.layer_time_divisor = pp_eff;
    plan.declareStage("gpu_gemm");
    plan.declareStage("gpu_attention");
    plan.declareStage("tp_allreduce");
    plan.declareStage("pp_comm");
    plan.declareStage("kv_swap");
    plan.declareResource(PlanResource::IntraNode, 1);
    plan.declareResource(PlanResource::InterNode, 1);
    plan.declareResource(PlanResource::HostPcie, 1);

    const std::size_t op_gemm = plan.addOp(
        computeOp(ComputeUnit::Gpu, "tp_gemm", gemm)
            .stageTag("gpu_gemm")
            .busyTag(kBusyGpu));
    const std::size_t op_attn = plan.addOp(
        computeOp(ComputeUnit::Gpu, "paged_attention", attn)
            .stageTag("gpu_attention")
            .busyTag(kBusyGpu)
            .dep(op_gemm));
    const std::size_t op_ar = plan.addOp(
        transferOp(PlanResource::IntraNode, "tp_allreduce", allreduce,
                   2.0 * act_bytes)
            .stageTag("tp_allreduce")
            .share(TrafficField::Internal, 2.0 * act_bytes)
            .dep(op_attn));
    plan.addOp(
        transferOp(PlanResource::HostPcie, "kv_swap_stream", swap_stream,
                   swap_fraction * kvLayerBytes(m, b, s_mid))
            .stageTag("kv_swap")
            .dep(op_ar));
    plan.addTailOp(
        transferOp(PlanResource::InterNode, "pp_hops", pp_comm,
                   static_cast<double>(pp) * act_bytes)
            .stageTag("pp_comm"));

    // --- Energy spec: the cluster's power, no storage fleet ---
    plan.energy.enabled = true;
    plan.energy.power = power_;
}

void
VllmMultiGpuEngine::buildPrefillPlan(const RunConfig &cfg,
                                    std::uint64_t chunk_index,
                                    std::uint64_t chunk_count,
                                    StepPlan &plan) const
{
    const ModelConfig &m = cfg.model;
    const unsigned tp = cluster_.gpus_per_node;
    const unsigned pp = cluster_.nodes;

    plan.phase = PlanPhase::Prefill;
    plan.chunk_index = chunk_index;
    plan.chunk_count = chunk_count;

    const double weight_bytes =
        static_cast<double>(m.weightBytesTotal()) * 1.12;
    const double capacity = totalGpuMemory() * 0.92;  // allocator headroom
    if (weight_bytes > capacity) {
        plan.feasible = false;
        plan.note = "model weights exceed aggregate GPU memory";
        return;
    }
    // Decode falls back to host swap rather than shrinking the batch
    // (see buildDecodePlan), so prefill always runs the requested batch.
    const std::uint64_t b = cfg.batch;

    const auto [start, end] =
        prefillChunkRange(cfg.context_len, chunk_index, chunk_count);
    plan.chunk_tokens = end - start;

    const Seconds prefill_compute =
        prefillChunkComputeTime(gpu_, m, b, start, end) /
        static_cast<double>(tp);
    const Bytes act_bytes = static_cast<double>(b) *
                            static_cast<double>(m.hidden) *
                            static_cast<double>(m.dtype_bytes);
    // The same two per-layer all-reduces and once-per-pass pipeline
    // hops as decode, re-paid by every chunk's pass over the layers.
    const Seconds allreduce =
        2.0 * (2.0 * static_cast<double>(tp - 1) /
                   static_cast<double>(tp) * act_bytes /
                   cluster_.intra_node_bw +
               cluster_.allreduce_latency);
    const Seconds pp_comm =
        static_cast<double>(pp) *
        (act_bytes / cluster_.inter_node_bw + cluster_.pp_hop_latency);

    plan.layers = m.layers;
    plan.declareStage("prefill_compute");
    plan.declareStage("tp_allreduce");
    plan.declareStage("pp_comm");
    plan.declareResource(PlanResource::IntraNode, 1);
    plan.declareResource(PlanResource::InterNode, 1);

    const std::size_t op_compute = plan.addOp(
        computeOp(ComputeUnit::Gpu, "prefill_compute", prefill_compute)
            .stageTag("prefill_compute"));
    plan.addOp(transferOp(PlanResource::IntraNode, "tp_allreduce",
                          allreduce, 2.0 * act_bytes)
                   .stageTag("tp_allreduce")
                   .dep(op_compute));
    plan.addTailOp(transferOp(PlanResource::InterNode, "pp_hops", pp_comm,
                              static_cast<double>(pp) * act_bytes)
                       .stageTag("pp_comm"));

    plan.busy_step_fraction.gpu = kPrefillGpuBusyFraction;
}

}  // namespace hilos

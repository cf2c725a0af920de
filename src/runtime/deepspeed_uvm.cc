#include "runtime/deepspeed_uvm.h"

#include <algorithm>

#include "common/logging.h"
#include "runtime/cost_model.h"
#include "runtime/prefill_constants.h"

namespace hilos {

DeepSpeedUvmEngine::DeepSpeedUvmEngine(const SystemConfig &sys)
    : sys_(sys), gpu_(sys.gpu), power_(powerSpecOf(sys))
{
}

std::uint64_t
DeepSpeedUvmEngine::effectiveBatch(const RunConfig &cfg,
                                   std::string *note) const
{
    const ModelConfig &m = cfg.model;
    const std::uint64_t total_seq = cfg.context_len + cfg.output_len;
    const WeightHome home = chooseWeightHome(m, sys_.dram.capacity);
    const double weight_bytes = static_cast<double>(m.weightBytesTotal());
    const double resident =
        (home == WeightHome::HostDram ? weight_bytes : 0.0) +
        0.05 * static_cast<double>(sys_.dram.capacity);
    const std::uint64_t b =
        maxFittingBatch(m, cfg.batch, total_seq,
                        static_cast<double>(sys_.dram.capacity), resident);
    if (b == 0)
        *note = "host DRAM exhausted even at batch 1";
    return b;
}

void
DeepSpeedUvmEngine::buildDecodePlan(const RunConfig &cfg,
                                    RunResult &res, StepPlan &plan) const
{
    const ModelConfig &m = cfg.model;

    std::string cap_note;
    res.effective_batch = effectiveBatch(cfg, &cap_note);
    if (res.effective_batch == 0) {
        res.feasible = false;
        res.note = cap_note;
        plan.feasible = false;
        plan.note = res.note;
        return;
    }
    const std::uint64_t b = res.effective_batch;
    const std::uint64_t s_mid = midGenerationContext(cfg.context_len, cfg.output_len);

    // UVM page faults throttle the migrated-page path.
    const Bandwidth uvm_bw = sys_.host_pcie_bw / sys_.uvm_io_penalty;

    // ZeRO-Inference stages weights with a pinned prefetch pipeline.
    const WeightHome home = chooseWeightHome(m, sys_.dram.capacity);
    const Seconds weight = weightLoadTime(
        m, b, home, sys_.host_pcie_bw * sys_.baseline_weight_efficiency,
        sys_.dram.bandwidth);
    const Seconds gpu_compute =
        qkvProjTime(gpu_, m, b) + mlpTime(gpu_, m, b);
    // Attention runs on the GPU: the whole KV cache of the layer is
    // touched through UVM every step and migrates at the fault-
    // amortised rate.
    const Bytes kv_bytes = kvLayerBytes(m, b, s_mid);
    const Seconds kv_stream = kv_bytes / uvm_bw;
    // Intermediate activations spill through UVM both directions each
    // layer (the extension that keeps long-context decoding from
    // OOMing GPU memory).
    const Bytes act_bytes =
        2.0 * static_cast<double>(b) *
        static_cast<double>(m.hidden + m.intermediate) *
        static_cast<double>(m.dtype_bytes);
    const Seconds act_uvm = act_bytes / uvm_bw;

    // --- The decode-step plan: three overlapped roots, serial UVM
    // activation spill behind them ---
    plan.layers = m.layers;
    plan.declareStage("load_weight");
    plan.declareStage("kv_stream");
    plan.declareStage("gpu_compute");
    plan.declareStage("uvm_activations");
    plan.declareResource(PlanResource::HostPcie, 1);

    const double loaded_weight = m.loadedWeightBytesPerLayer(b);
    const std::size_t op_weight = plan.addOp(
        transferOp(PlanResource::HostPcie, "weight_stage", weight,
                   loaded_weight)
            .stageTag("load_weight")
            .busyTag(kBusyDram)
            .share(TrafficField::HostRead, loaded_weight)
            .asPrefetch());
    const std::size_t op_kv = plan.addOp(
        transferOp(PlanResource::HostPcie, "kv_uvm_stream", kv_stream,
                   kv_bytes)
            .stageTag("kv_stream")
            .busyTag(kBusyDram)
            .share(TrafficField::HostRead, kv_bytes)
            .share(TrafficField::AttnHostRead, kv_bytes)
            // The new token's KV entries migrate back through UVM: a
            // host write, of which the attention share is a subset
            // (plan-analyzer PA005 conservation).
            .share(TrafficField::HostWrite, kvStepBytes(m, b))
            .share(TrafficField::AttnHostWrite, kvStepBytes(m, b))
            .asPrefetch());
    const std::size_t op_gpu = plan.addOp(
        computeOp(ComputeUnit::Gpu, "gpu_compute", gpu_compute)
            .stageTag("gpu_compute")
            .busyTag(kBusyGpu));
    plan.addOp(
        transferOp(PlanResource::HostPcie, "uvm_activation_spill",
                   act_uvm, act_bytes)
            .stageTag("uvm_activations")
            .share(TrafficField::HostRead, act_bytes / 2.0)
            .share(TrafficField::HostWrite, act_bytes / 2.0)
            .dep(op_weight)
            .dep(op_kv)
            .dep(op_gpu));
    // UVM fault servicing keeps a CPU core partially busy all step.
    plan.busy_step_fraction.cpu = 0.05;

    // --- Energy spec ---
    plan.energy.enabled = true;
    plan.energy.power = power_;
}

void
DeepSpeedUvmEngine::buildPrefillPlan(const RunConfig &cfg,
                                    std::uint64_t chunk_index,
                                    std::uint64_t chunk_count,
                                    StepPlan &plan) const
{
    const ModelConfig &m = cfg.model;

    plan.phase = PlanPhase::Prefill;
    plan.chunk_index = chunk_index;
    plan.chunk_count = chunk_count;

    std::string cap_note;
    const std::uint64_t b = effectiveBatch(cfg, &cap_note);
    if (b == 0) {
        plan.feasible = false;
        plan.note = cap_note;
        return;
    }

    const auto [start, end] =
        prefillChunkRange(cfg.context_len, chunk_index, chunk_count);
    plan.chunk_tokens = end - start;

    const Bandwidth uvm_bw = sys_.host_pcie_bw / sys_.uvm_io_penalty;
    const Seconds weight = weightLoadTime(
        m, b, chooseWeightHome(m, sys_.dram.capacity),
        sys_.host_pcie_bw * sys_.baseline_weight_efficiency,
        sys_.dram.bandwidth);
    const Seconds prefill_compute =
        prefillChunkComputeTime(gpu_, m, b, start, end);
    // The activation working set spills through UVM once per layer of
    // every chunk pass, at the decode-step spill size.
    const Bytes act_bytes =
        2.0 * static_cast<double>(b) *
        static_cast<double>(m.hidden + m.intermediate) *
        static_cast<double>(m.dtype_bytes);
    const Seconds act_uvm = act_bytes / uvm_bw;

    plan.layers = m.layers;
    plan.declareStage("load_weight");
    plan.declareStage("prefill_compute");
    plan.declareStage("uvm_activations");
    plan.declareResource(PlanResource::HostPcie, 1);

    const std::size_t op_weight = plan.addOp(
        transferOp(PlanResource::HostPcie, "weight_stage", weight,
                   m.loadedWeightBytesPerLayer(b))
            .stageTag("load_weight"));
    const std::size_t op_compute = plan.addOp(
        computeOp(ComputeUnit::Gpu, "prefill_compute", prefill_compute)
            .stageTag("prefill_compute"));
    plan.addOp(transferOp(PlanResource::HostPcie, "uvm_activation_spill",
                          act_uvm, act_bytes)
                   .stageTag("uvm_activations")
                   .dep(op_weight)
                   .dep(op_compute));

    plan.busy_step_fraction.gpu = kPrefillGpuBusyFraction;
    plan.busy_step_fraction.dram = kPrefillDramBusyFractionOffload;
}

}  // namespace hilos

#include "runtime/flexgen.h"

#include <algorithm>

#include "common/logging.h"
#include "runtime/cost_model.h"
#include "runtime/prefill_constants.h"
#include "storage/ssd.h"

namespace hilos {

FlexGenEngine::FlexGenEngine(const SystemConfig &sys, FlexTier tier)
    : sys_(sys), tier_(tier), gpu_(sys.gpu), cpu_(sys.cpu),
      power_(powerSpecOf(sys))
{
}

std::string
FlexGenEngine::name() const
{
    switch (tier_) {
      case FlexTier::HostDram:
        return "FLEX(DRAM)";
      case FlexTier::BaselineSsds:
        return "FLEX(SSD)";
      case FlexTier::SmartSsdsNoFpga:
        return "FLEX(16 PCIe3.0 SSDs)";
    }
    HILOS_PANIC("unknown tier");
}

Bandwidth
FlexGenEngine::storageReadBw() const
{
    switch (tier_) {
      case FlexTier::HostDram:
        return sys_.dram.bandwidth;
      case FlexTier::BaselineSsds:
        // Dedicated x4 gen4 host links per SSD; the drives bind.
        return static_cast<double>(sys_.num_baseline_ssds) *
               sys_.baseline_ssd.seq_read_bw;
      case FlexTier::SmartSsdsNoFpga: {
        // 16 PCIe 3.0 devices behind one x16 gen4 uplink: the shared
        // chassis uplink saturates below the fleet's aggregate rate.
        const Bandwidth fleet =
            16.0 * sys_.smartssd.nand.seq_read_bw;
        return std::min(fleet, sys_.chassis_uplink_bw);
      }
    }
    HILOS_PANIC("unknown tier");
}

Bandwidth
FlexGenEngine::storageWriteBw() const
{
    switch (tier_) {
      case FlexTier::HostDram:
        return sys_.dram.bandwidth;
      case FlexTier::BaselineSsds:
        return static_cast<double>(sys_.num_baseline_ssds) *
               sys_.baseline_ssd.seq_write_bw;
      case FlexTier::SmartSsdsNoFpga: {
        const Bandwidth fleet =
            16.0 * sys_.smartssd.nand.seq_write_bw;
        return std::min(fleet, sys_.chassis_uplink_bw);
      }
    }
    HILOS_PANIC("unknown tier");
}

std::uint64_t
FlexGenEngine::effectiveBatch(const RunConfig &cfg, std::string *note) const
{
    // Capacity: the DRAM tier must fit the whole KV cache (plus the
    // weights when they are DRAM-resident) in host memory.
    if (tier_ != FlexTier::HostDram)
        return cfg.batch;
    const ModelConfig &m = cfg.model;
    const std::uint64_t total_seq = cfg.context_len + cfg.output_len;
    const WeightHome home = chooseWeightHome(m, sys_.dram.capacity);
    const double weight_bytes =
        static_cast<double>(m.weightBytesTotal());
    const double resident =
        (home == WeightHome::HostDram ? weight_bytes : 0.0) +
        0.08 * static_cast<double>(sys_.dram.capacity);
    // Pinned, double-buffered KV allocations inflate the effective
    // per-sequence footprint (dram_kv_overhead).
    const double budget =
        (static_cast<double>(sys_.dram.capacity) - resident) /
        sys_.dram_kv_overhead;
    const std::uint64_t b =
        maxFittingBatch(m, cfg.batch, total_seq, budget, 0.0);
    if (b == 0)
        *note = "host DRAM exhausted even at batch 1";
    else if (b < cfg.batch)
        *note = "batch shrunk to fit host DRAM";
    return b;
}

void
FlexGenEngine::buildDecodePlan(const RunConfig &cfg, RunResult &res,
                               StepPlan &plan) const
{
    const ModelConfig &m = cfg.model;

    const WeightHome home =
        chooseWeightHome(m, sys_.dram.capacity);

    std::string cap_note;
    res.effective_batch = effectiveBatch(cfg, &cap_note);
    if (res.effective_batch == 0) {
        res.feasible = false;
        res.note = cap_note;
        plan.feasible = false;
        plan.note = res.note;
        return;
    }
    if (!cap_note.empty())
        res.note = cap_note;
    const std::uint64_t b = res.effective_batch;
    // Mid-generation context length drives decode-step costs.
    const std::uint64_t s_mid = midGenerationContext(cfg.context_len, cfg.output_len);

    const bool on_ssd = tier_ != FlexTier::HostDram;
    const Bandwidth read_bw = storageReadBw();
    // Host-managed KV reads run far below raw sequential bandwidth.
    const Bandwidth kv_read_bw =
        on_ssd ? read_bw * sys_.host_kv_io_efficiency : read_bw;
    // Weight streaming (large sequential reads) stays near raw rate;
    // the DRAM tier still owns the baseline SSD fleet for >100B models.
    const Bandwidth weight_storage_bw =
        on_ssd ? read_bw
               : static_cast<double>(sys_.num_baseline_ssds) *
                     sys_.baseline_ssd.seq_read_bw;

    // --- Per-layer decode costs (priced with cost_model primitives) ---
    const Seconds weight = weightLoadTime(
        m, b, home, sys_.host_pcie_bw * sys_.baseline_weight_efficiency,
        weight_storage_bw);
    const Seconds gpu_compute =
        qkvProjTime(gpu_, m, b) + mlpTime(gpu_, m, b);
    const Bytes kv_bytes = kvLayerBytes(m, b, s_mid);
    // For >100B models the weights stream from the same SSD fleet the
    // KV cache lives on: the reads serialise on the shared devices.
    const Seconds fleet_weight =
        (on_ssd && home == WeightHome::Storage)
            ? m.loadedWeightBytesPerLayer(b) / read_bw
            : Seconds(0.0);
    const Seconds kv_io =
        on_ssd ? kv_bytes / kv_read_bw + fleet_weight : Seconds(0.0);
    const Seconds cpu_attn = cpuAttentionTime(cpu_, m, b, s_mid);
    // Activation round trip GPU <-> CPU for the offloaded attention.
    const Seconds act_xfer =
        Bytes(2.0 * static_cast<double>(b * m.hidden * m.dtype_bytes)) /
        sys_.host_pcie_bw;
    // New KV entries commit each step; on SSD tiers every (batch, head)
    // entry is a 256 B sub-page write.
    Seconds kv_write = 0.0;
    if (on_ssd) {
        const bool baseline = tier_ == FlexTier::BaselineSsds;
        const SsdConfig &kv_ssd =
            baseline ? sys_.baseline_ssd : sys_.smartssd.nand;
        const std::uint64_t devices =
            baseline ? sys_.num_baseline_ssds : 16;
        const std::uint64_t slices = b * m.kv_heads;
        kv_write = kv_ssd.randomWriteTime(ceilDiv(slices, devices),
                                          2 * m.headDim() * m.dtype_bytes);
    }

    // --- The decode-step plan ---
    // FlexGen overlaps weight staging, KV I/O, CPU attention, and GPU
    // compute across layers (four root ops racing); the commit of new
    // KV entries and the activation hop are serial behind all four.
    plan.layers = m.layers;
    plan.declareStage("load_weight");
    plan.declareStage("kv_io");
    plan.declareStage("cpu_attention");
    plan.declareStage("gpu_compute");
    plan.declareStage("kv_writeback");
    plan.declareStage("activations");
    plan.declareResource(PlanResource::HostPcie, 1);
    plan.declareResource(PlanResource::Storage, 1);

    const double hidden_bytes =
        static_cast<double>(m.hidden * m.dtype_bytes);
    const double loaded_weight = m.loadedWeightBytesPerLayer(b);
    const double kv_step = kvStepBytes(m, b);

    const std::size_t op_weight = plan.addOp(
        transferOp(PlanResource::HostPcie, "weight_stage", weight,
                   loaded_weight)
            .stageTag("load_weight")
            .busyTag(kBusyDram)
            .share(TrafficField::HostRead, loaded_weight)
            .asPrefetch());
    StepOp kv_io_op =
        transferOp(PlanResource::Storage, "kv_fetch", kv_io, kv_bytes)
            .stageTag("kv_io")
            .busyTag(kBusyDram | kBusyStorage)
            .asPrefetch();
    if (on_ssd) {
        kv_io_op.share(TrafficField::HostRead, kv_bytes)
            .share(TrafficField::AttnHostRead, kv_bytes);
    }
    const std::size_t op_kv_io = plan.addOp(kv_io_op);
    const std::size_t op_attn = plan.addOp(
        computeOp(ComputeUnit::Cpu, "cpu_attention", cpu_attn)
            .stageTag("cpu_attention")
            .busyTag(kBusyCpu | kBusyDram));
    const std::size_t op_gpu = plan.addOp(
        computeOp(ComputeUnit::Gpu, "gpu_compute", gpu_compute)
            .stageTag("gpu_compute")
            .busyTag(kBusyGpu));
    StepOp kv_write_op =
        transferOp(PlanResource::Storage, "kv_commit", kv_write, kv_step)
            .stageTag("kv_writeback")
            .busyTag(kBusyStorage)
            .share(TrafficField::HostWrite, kv_step)
            .share(TrafficField::AttnHostWrite, kv_step)
            .dep(op_weight)
            .dep(op_kv_io)
            .dep(op_attn)
            .dep(op_gpu);
    if (on_ssd)
        kv_write_op.share(TrafficField::StorageWrite, kv_step);
    const std::size_t op_kv_write = plan.addOp(kv_write_op);
    plan.addOp(
        transferOp(PlanResource::HostPcie, "activation_hop", act_xfer,
                   2.0 * static_cast<double>(b) * hidden_bytes)
            .stageTag("activations")
            .share(TrafficField::HostRead,
                   static_cast<double>(b) * hidden_bytes)
            .share(TrafficField::HostWrite,
                   static_cast<double>(b) * hidden_bytes)
            .dep(op_kv_write));
    // The CPU also drives the synchronous direct-I/O path (submission,
    // memcpy staging) while the fetch is in flight: occupancy only.
    plan.addOp(computeOp(ComputeUnit::Cpu, "kv_io_drive", 0.6 * kv_io)
                   .busyTag(kBusyCpu)
                   .asOffline());

    // --- Energy spec over the whole run ---
    plan.energy.enabled = true;
    plan.energy.power = power_;
    if (tier_ == FlexTier::BaselineSsds) {
        plan.energy.kind = StorageKind::BaselineSsds;
        plan.energy.devices = sys_.num_baseline_ssds;
    } else if (tier_ == FlexTier::SmartSsdsNoFpga) {
        plan.energy.kind = StorageKind::SmartSsds;  // powered, FPGAs idle
        plan.energy.devices = 16;
    }
}

void
FlexGenEngine::buildPrefillPlan(const RunConfig &cfg,
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

    const bool on_ssd = tier_ != FlexTier::HostDram;
    const WeightHome home = chooseWeightHome(m, sys_.dram.capacity);
    const Bandwidth weight_storage_bw =
        on_ssd ? storageReadBw()
               : static_cast<double>(sys_.num_baseline_ssds) *
                     sys_.baseline_ssd.seq_read_bw;

    // Every chunk makes its own pass over the layers: weight staging is
    // re-paid per chunk, the prompt GEMMs price incrementally, and the
    // chunk's KV entries stream out to their tier.
    const Seconds weight = weightLoadTime(
        m, b, home, sys_.host_pcie_bw * sys_.baseline_weight_efficiency,
        weight_storage_bw);
    const Seconds prefill_compute =
        prefillChunkComputeTime(gpu_, m, b, start, end);
    const Bytes chunk_kv_bytes = kvLayerBytes(m, b, end - start);
    const Seconds prefill_kv_write =
        on_ssd ? chunk_kv_bytes / storageWriteBw()
               : chunk_kv_bytes / sys_.dram.bandwidth;

    plan.layers = m.layers;
    plan.declareStage("load_weight");
    plan.declareStage("prefill_compute");
    plan.declareStage("kv_writeback");
    plan.declareResource(PlanResource::HostPcie, 1);
    plan.declareResource(PlanResource::Storage, 1);

    const std::size_t op_weight = plan.addOp(
        transferOp(PlanResource::HostPcie, "weight_stage", weight,
                   m.loadedWeightBytesPerLayer(b))
            .stageTag("load_weight"));
    const std::size_t op_compute = plan.addOp(
        computeOp(ComputeUnit::Gpu, "prefill_compute", prefill_compute)
            .stageTag("prefill_compute"));
    StepOp kv_commit =
        transferOp(on_ssd ? PlanResource::Storage : PlanResource::DramBus,
                   "prefill_kv_write", prefill_kv_write, chunk_kv_bytes)
            .stageTag("kv_writeback")
            .dep(op_weight)
            .dep(op_compute);
    // Only SSD tiers charge the NAND-write occupancy; the DRAM tier's
    // writeback rides the memory bus already covered by the DRAM busy
    // fraction below.
    if (on_ssd)
        kv_commit.busyTag(kBusyStorage);
    plan.addOp(kv_commit);

    plan.busy_step_fraction.gpu = kPrefillGpuBusyFraction;
    plan.busy_step_fraction.dram = kPrefillDramBusyFractionOffload;
}

}  // namespace hilos

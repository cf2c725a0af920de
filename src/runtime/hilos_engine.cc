#include "runtime/hilos_engine.h"

#include <algorithm>
#include <cmath>

#include "accel/cycle_model.h"
#include "accel/resource_model.h"
#include "common/logging.h"
#include "runtime/cost_model.h"
#include "runtime/prefill_constants.h"
#include "runtime/writeback.h"

namespace hilos {

HilosEngine::HilosEngine(const SystemConfig &sys, const HilosOptions &opts)
    : sys_(sys), opts_(opts),
      timeline_(opts.fault_plan, opts.num_devices), gpu_(sys.gpu),
      cpu_(sys.cpu), power_(powerSpecOf(sys))
{
    HILOS_ASSERT(opts_.num_devices >= 1 && opts_.num_devices <= 16,
                 "HILOS supports 1..16 SmartSSDs");
    HILOS_ASSERT(opts_.spill_interval >= 1, "invalid spill interval");
}

std::string
HilosEngine::name() const
{
    if (!opts_.xcache && !opts_.delayed_writeback)
        return "ANS(" + std::to_string(opts_.num_devices) + ")";
    if (!opts_.xcache)
        return "ANS+WB(" + std::to_string(opts_.num_devices) + ")";
    if (!opts_.delayed_writeback)
        return "ANS+X(" + std::to_string(opts_.num_devices) + ")";
    return "HILOS(" + std::to_string(opts_.num_devices) + " SmartSSDs)";
}

Bandwidth
HilosEngine::internalReadBw() const
{
    return static_cast<double>(opts_.num_devices) *
           sys_.smartssd.p2p_read_bw;
}

Bandwidth
HilosEngine::gdsBw() const
{
    // GDS loads are software-limited well below the uplink; with few
    // devices the source NAND read rate can bind instead.
    return std::min(sys_.gds_effective_bw, internalReadBw());
}

double
HilosEngine::alphaFor(const RunConfig &cfg, Bandwidth fleet_read,
                      Bandwidth gds) const
{
    if (!opts_.xcache)
        return 0.0;
    if (opts_.alpha_override >= 0.0)
        return opts_.alpha_override;
    const XCacheScheduler sched(fleet_read, gds,
                                sys_.gpu.fp16_peak *
                                    sys_.gpu.gemm_efficiency);
    return sched.bestAlpha(cfg.batch,
                           midGenerationContext(cfg.context_len, cfg.output_len),
                           cfg.model.hidden,
                           cfg.model.kv_heads * cfg.model.headDim());
}

double
HilosEngine::alphaUnder(const RunConfig &cfg,
                        const FleetConditions &cond) const
{
    const Bandwidth p2p_read = sys_.smartssd.p2p_read_bw * cond.p2p_derate;
    const Bandwidth fleet_read = static_cast<double>(cond.devices) * p2p_read;
    return alphaFor(cfg, fleet_read,
                    std::min(sys_.gds_effective_bw, fleet_read));
}

Seconds
HilosEngine::retryPerLayer(const RunConfig &cfg, const FleetConditions &cond,
                           double alpha) const
{
    const double slices_per_dev =
        (1.0 - alpha) *
        static_cast<double>(cfg.batch * cfg.model.kv_heads) /
        static_cast<double>(cond.devices);
    const Seconds retry_per_slice =
        cond.retry.expectedEccPenalty(cond.nand_error_prob) +
        cond.retry.expectedNvmePenalty(cond.nvme_timeout_prob);
    return slices_per_dev * retry_per_slice;
}

double
HilosEngine::selectedAlpha(const RunConfig &cfg) const
{
    return alphaFor(cfg, internalReadBw(), gdsBw());
}

HilosEngine::FleetConditions
HilosEngine::idealConditions() const
{
    FleetConditions cond;
    cond.devices = opts_.num_devices;
    cond.retry = opts_.fault_plan.retry;
    return cond;
}

void
HilosEngine::buildDecodePlan(const RunConfig &cfg, RunResult &res,
                             StepPlan &plan) const
{
    makePlan(cfg, idealConditions(), res, plan);
}

void
HilosEngine::buildPrefillPlan(const RunConfig &cfg,
                              std::uint64_t chunk_index,
                              std::uint64_t chunk_count,
                              StepPlan &plan) const
{
    makePrefillPlan(cfg, idealConditions(), chunk_index, chunk_count,
                    plan);
}

HilosEngine::FleetConditions
HilosEngine::conditionsAt(Seconds now) const
{
    const unsigned N = opts_.num_devices;
    FleetConditions c;
    c.retry = opts_.fault_plan.retry;
    c.devices = timeline_.survivingDevices(now);
    c.failed_devices = N - c.devices;
    // The slice pipeline is statically partitioned, so the slowest
    // surviving device binds each epoch: take the worst derate and the
    // worst fault probabilities across survivors.
    double derate = 1.0;
    double nand_p = 0.0;
    double nvme_p = 0.0;
    for (unsigned dev = 0; dev < N; ++dev) {
        if (timeline_.deviceFailed(dev, now))
            continue;
        derate = std::min(derate, timeline_.linkDerate(dev, now));
        nand_p = std::max(nand_p, timeline_.nandErrorProbability(dev));
        nvme_p = std::max(nvme_p, timeline_.nvmeTimeoutProbability(dev));
    }
    c.p2p_derate = derate;
    c.uplink_derate = timeline_.uplinkDerate(now);
    c.nand_error_prob = nand_p;
    c.nvme_timeout_prob = nvme_p;
    return c;
}

namespace {

/** Why no plan exists once every SmartSSD has failed by `now`. */
std::string
noSurvivorNote(Seconds now)
{
    return now > 0.0 ? "all SmartSSDs failed mid-run; no surviving fleet "
                       "to re-dispatch attention shards"
                     : "fault plan fails every SmartSSD at run start; no "
                       "surviving fleet to serve attention shards";
}

}  // namespace

void
HilosEngine::buildDecodePlanAt(const RunConfig &cfg, Seconds now,
                               RunResult &res, StepPlan &plan) const
{
    const FleetConditions cond = conditionsAt(now);
    if (cond.devices == 0) {
        plan.feasible = false;
        plan.note = noSurvivorNote(now);
        res.feasible = false;
        res.note = plan.note;
        return;
    }
    makePlan(cfg, cond, res, plan);
}

void
HilosEngine::buildPrefillPlanAt(const RunConfig &cfg, Seconds now,
                                std::uint64_t chunk_index,
                                std::uint64_t chunk_count,
                                StepPlan &plan) const
{
    const FleetConditions cond = conditionsAt(now);
    if (cond.devices == 0) {
        plan.phase = PlanPhase::Prefill;
        plan.chunk_index = chunk_index;
        plan.chunk_count = chunk_count;
        plan.feasible = false;
        plan.note = noSurvivorNote(now);
        return;
    }
    makePrefillPlan(cfg, cond, chunk_index, chunk_count, plan);
}

StepPlan
HilosEngine::rebuildPlanAt(const RunConfig &cfg, Seconds since, Seconds now,
                           std::uint64_t done) const
{
    StepPlan plan;
    const unsigned before = timeline_.survivingDevices(since);
    const FleetConditions c = conditionsAt(now);
    if (c.devices == 0 || c.devices >= before)
        return plan;
    // The KV/X shards of the newly failed devices re-shard onto the
    // survivors (slices re-dispatched) before decoding resumes.
    const ModelConfig &m = cfg.model;
    const double alpha = alphaUnder(cfg, c);
    std::uint64_t seq_now = cfg.context_len + done;
    if (opts_.attention_window > 0)
        seq_now = std::min(seq_now, opts_.attention_window);
    const double kv_dim_bytes =
        static_cast<double>(m.kv_heads * m.headDim() * m.dtype_bytes);
    const double cache_per_tok_layer =
        alpha * static_cast<double>(m.xBytesPerTokenPerLayer()) +
        (1.0 - alpha) * 2.0 * kv_dim_bytes;
    const double cache_now = cache_per_tok_layer *
                             static_cast<double>(m.layers) *
                             static_cast<double>(cfg.batch) *
                             static_cast<double>(seq_now);
    const double lost_bytes = cache_now *
                              static_cast<double>(before - c.devices) /
                              static_cast<double>(before);
    const Bandwidth rebuild_bw =
        std::min(sys_.chassis_uplink_bw * c.uplink_derate,
                 static_cast<double>(c.devices) *
                     sys_.smartssd.p2p_write_bw * c.p2p_derate);
    plan.declareStage("shard_rebuild");
    plan.declareResource(PlanResource::Uplink, 1);
    plan.addTailOp(transferOp(PlanResource::Uplink, "shard_rebuild",
                              Bytes(lost_bytes) / rebuild_bw, lost_bytes)
                       .stageTag("shard_rebuild"));
    return plan;
}

void
HilosEngine::summarize(const RunConfig &cfg, const EpochLog &log,
                       RunResult &res) const
{
    if (timeline_.empty())
        return;
    const ModelConfig &m = cfg.model;
    const unsigned N = opts_.num_devices;
    const double L = static_cast<double>(m.layers);
    const double out_tokens = static_cast<double>(cfg.output_len);
    const double slices = static_cast<double>(cfg.batch * m.kv_heads);

    FaultSummary fs;
    fs.rebuild_time = log.rebuild_time;
    double weighted_devices = 0.0;
    double exp_nand_errors = 0.0;
    double exp_nand_steps = 0.0;
    double exp_nvme_timeouts = 0.0;
    double exp_redispatch = 0.0;
    unsigned prev_devices = timeline_.survivingDevices(0.0);
    for (const DecodeEpoch &ep : log.epochs) {
        if (ep.tokens == 0)
            continue;  // no decode: nothing read or re-dispatched
        const FleetConditions c = conditionsAt(ep.start);
        const double alpha = alphaUnder(cfg, c);
        if (c.devices < prev_devices) {
            exp_redispatch += (1.0 - alpha) * slices *
                              static_cast<double>(prev_devices - c.devices) /
                              static_cast<double>(prev_devices);
        }
        const double tokens = static_cast<double>(ep.tokens);
        fs.retry_time += tokens * (L * retryPerLayer(cfg, c, alpha));
        // Expected discrete fault counts: one KV-slice read per slice
        // per layer per step.
        const double reads = tokens * (1.0 - alpha) * slices * L;
        exp_nand_errors += reads * c.nand_error_prob;
        exp_nand_steps +=
            reads * c.nand_error_prob *
            (1.0 + static_cast<double>(c.retry.ecc_max_steps)) / 2.0;
        exp_nvme_timeouts += reads * c.nvme_timeout_prob;
        weighted_devices += tokens * static_cast<double>(c.devices);
        prev_devices = c.devices;
    }

    // The fleet in force at the end: after the last epoch, or where
    // the run stopped. A run without decode keeps its t = 0 fleet.
    const Seconds last = !res.feasible || log.epochs.empty() ? log.end
                         : cfg.output_len == 0 ? Seconds(0.0)
                                               : log.epochs.back().start;
    fs.devices_surviving = timeline_.survivingDevices(last);
    fs.devices_failed = N - fs.devices_surviving;
    fs.availability =
        cfg.output_len > 0
            ? weighted_devices / (out_tokens * static_cast<double>(N))
            : static_cast<double>(fs.devices_surviving) /
                  static_cast<double>(N);
    if (!res.feasible) {
        fs.requests_failed = cfg.batch;
        res.faults = fs;
        return;
    }
    fs.degraded_step_time = log.epochs.back().step;
    fs.slowdown = log.healthy_step > 0.0
                      ? res.decode_step_time / log.healthy_step
                      : 1.0;
    fs.nand_read_errors =
        static_cast<std::uint64_t>(std::llround(exp_nand_errors));
    fs.nand_retry_steps =
        static_cast<std::uint64_t>(std::llround(exp_nand_steps));
    fs.nvme_timeouts =
        static_cast<std::uint64_t>(std::llround(exp_nvme_timeouts));
    fs.nvme_retries = fs.nvme_timeouts;
    fs.redispatched_slices =
        static_cast<std::uint64_t>(std::llround(exp_redispatch));
    // Every in-flight request that a rebuild or retry delayed still
    // completed: degraded, never failed, on a feasible run.
    if (fs.rebuild_time > 0.0 || fs.retry_time > 0.0)
        fs.requests_degraded = res.effective_batch;
    res.faults = fs;
}

void
HilosEngine::makePlan(const RunConfig &cfg, const FleetConditions &cond,
                      RunResult &res, StepPlan &plan) const
{
    HILOS_ASSERT(cond.devices >= 1, "fleet conditions need >= 1 device");
    const ModelConfig &m = cfg.model;
    const unsigned N = cond.devices;
    const double L = static_cast<double>(m.layers);
    const std::uint64_t total_seq = cfg.context_len + cfg.output_len;
    const std::uint64_t d = m.headDim();
    const std::uint64_t d_group = m.dGroup();

    // Fault-conditioned bandwidths. With identity derates every product
    // below multiplies by exactly 1.0, so the zero-fault path stays
    // bit-identical to the unconditioned engine.
    const Bandwidth p2p_read = sys_.smartssd.p2p_read_bw * cond.p2p_derate;
    const Bandwidth p2p_write =
        sys_.smartssd.p2p_write_bw * cond.p2p_derate;
    const Bandwidth uplink_bw =
        sys_.chassis_uplink_bw * cond.uplink_derate;
    const Bandwidth fleet_read = static_cast<double>(N) * p2p_read;
    const Bandwidth gds = std::min(sys_.gds_effective_bw, fleet_read);

    res.effective_batch = cfg.batch;
    const std::uint64_t b = cfg.batch;
    std::uint64_t s_mid = midGenerationContext(cfg.context_len, cfg.output_len);
    // Sliding-window variants attend (and keep) only the window.
    if (opts_.attention_window > 0)
        s_mid = std::min(s_mid, opts_.attention_window);

    // Capacity: fleet NAND must hold weights (if storage-resident) plus
    // the full KV/X cache; always generous at <=16 x 3.84 TB but check.
    const WeightHome home = chooseWeightHome(m, sys_.dram.capacity);
    const double alpha = alphaFor(cfg, fleet_read, gds);
    const double kv_dim_bytes = static_cast<double>(
        m.kv_heads * d * m.dtype_bytes);  // one K or V row per token
    const double cache_bytes_per_tok_layer =
        alpha * static_cast<double>(m.xBytesPerTokenPerLayer()) +
        (1.0 - alpha) * 2.0 * kv_dim_bytes;
    const double fleet_capacity =
        static_cast<double>(N) *
        static_cast<double>(sys_.smartssd.nand.capacity);
    const std::uint64_t kept_seq =
        opts_.attention_window > 0
            ? std::min(total_seq, opts_.attention_window)
            : total_seq;
    const double cache_total = cache_bytes_per_tok_layer * L *
                               static_cast<double>(b) *
                               static_cast<double>(kept_seq);
    const double weights_on_fleet =
        home == WeightHome::Storage
            ? static_cast<double>(m.weightBytesTotal())
            : 0.0;
    if (cache_total + weights_on_fleet > fleet_capacity) {
        res.feasible = false;
        res.note = "SmartSSD fleet capacity exceeded";
        plan.feasible = false;
        plan.note = res.note;
        return;
    }

    // --- Per-layer decode stages ---
    // Weights stripe across all installed SmartSSDs (16 in the chassis)
    // even when only N of them run attention kernels; failed devices
    // drop out of the stripe.
    const unsigned installed =
        std::max(sys_.installed_smartssds - cond.failed_devices, N);
    const Seconds weight = weightLoadTime(
        m, b, home, sys_.host_pcie_bw,
        std::min(uplink_bw,
                 static_cast<double>(installed) *
                     sys_.smartssd.nand.seq_read_bw));

    // Host GPU work: projections and MLP (always), plus the X-cache
    // portion's K/V regeneration and attention.
    const Seconds gpu_base = qkvProjTime(gpu_, m, b) + mlpTime(gpu_, m, b);
    const XCacheScheduler sched(fleet_read, gds,
                                sys_.gpu.fp16_peak *
                                    sys_.gpu.gemm_efficiency);
    const XCacheTimes xt =
        sched.times(alpha, b, s_mid, m.hidden, m.kv_heads * d);
    const Seconds gpu_xattn =
        alpha * gpuAttentionTime(gpu_, m, b, s_mid);
    const Seconds gpu_stage = gpu_base + xt.t_gpu + gpu_xattn;

    // Query/key/value upload to the devices (the 6h-byte write of §4.1)
    // and the attention-output return (the 2h-byte read).
    const Bytes qkv_up_bytes =
        static_cast<double>(b) *
        (static_cast<double>(m.hidden) + 2.0 * kv_dim_bytes /
                                             m.dtype_bytes) *
        static_cast<double>(m.dtype_bytes);
    const Bytes out_ret_bytes =
        static_cast<double>(b * m.hidden * m.dtype_bytes);
    const Seconds qkv_up = qkv_up_bytes / uplink_bw;
    const Seconds out_ret = out_ret_bytes / uplink_bw;

    // For >100B models the weights live on the SmartSSD NAND and their
    // reads steal NAND bandwidth from the internal P2P feed.
    const Seconds weight_nand =
        home == WeightHome::Storage
            ? m.loadedWeightBytesPerLayer(b) /
                  (static_cast<double>(installed) *
                   sys_.smartssd.nand.seq_read_bw)
            : Seconds(0.0);

    // NSP attention: internal NAND reads (the xt.t_ssd term) race the
    // accelerator kernels; kernels consume from on-board DRAM far
    // faster than the 3 GB/s P2P feed, so storage I/O binds (§4.1).
    const CycleModelConfig cm_cfg;
    const CycleModel cm(cm_cfg);
    const double slices_total =
        (1.0 - alpha) * static_cast<double>(b * m.kv_heads);
    const double slices_per_dev =
        slices_total / static_cast<double>(N);
    const Seconds kernel_per_dev =
        slices_per_dev * cm.kernelTime(s_mid, d, d_group);

    const Seconds retry_extra = retryPerLayer(cfg, cond, alpha);

    // Delayed writeback / naive commit costs.
    Seconds wb_critical = 0.0;
    Seconds wb_spill = 0.0;
    double wb_wa = 1.0;
    double spill_bytes_step = 0.0;
    if (opts_.delayed_writeback) {
        WritebackCostInputs win;
        win.slices = b * m.kv_heads;
        win.head_dim = d;
        win.d_group = d_group;
        win.spill_interval = opts_.spill_interval;
        win.devices = N;
        win.host_link_bw = uplink_bw;
        win.device_write_bw = p2p_write;
        win.xrt_sync_base = sys_.xrt_sync_base;
        win.cxl_coherent = opts_.cxl_mode;
        const WritebackCosts wc = writebackCosts(win);
        wb_critical = wc.criticalPath();
        wb_spill = wc.spill_time;
        wb_wa = wc.write_amplification;
        spill_bytes_step = static_cast<double>(b * m.kv_heads) * 2.0 *
                           static_cast<double>(d * m.dtype_bytes) * wb_wa;
    } else {
        // Naive: every 256 B KV entry commits via direct I/O before the
        // attention can read it (Fig. 6(a)).
        wb_critical = naiveWritebackTime(
            b * m.kv_heads, N, 2 * d * m.dtype_bytes,
            sys_.smartssd.nand.write_latency, usec(230));
        wb_wa = static_cast<double>(sys_.smartssd.nand.page_bytes) /
                static_cast<double>(2 * d * m.dtype_bytes);
        spill_bytes_step = static_cast<double>(b * m.kv_heads) *
                           static_cast<double>(
                               sys_.smartssd.nand.page_bytes);
    }

    // Shared-uplink occupancy check: weights (when storage-resident),
    // X loads, QKV uploads and returns all cross the chassis uplink.
    const Bytes uplink_bytes =
        (home == WeightHome::Storage ? m.loadedWeightBytesPerLayer(b)
                                     : Bytes(0.0)) +
        Bytes(alpha * static_cast<double>(b) *
              static_cast<double>(s_mid) * static_cast<double>(m.hidden) *
              2.0) +
        qkv_up_bytes + out_ret_bytes;
    const Seconds uplink_time = uplink_bytes / uplink_bw;

    // --- The decode-step plan ---
    // Weight staging, the NSP attention branch (internal reads, spills,
    // NAND weight reads, retry recovery in series; kernels, X loads and
    // the racing GPU portion in parallel), host GPU work and the shared
    // uplink all pipeline; the slowest binds. The QKV upload, the
    // attention-output return and the writeback commit then serialise.
    plan.layers = m.layers;
    plan.declareStage("load_weight");
    plan.declareStage("gpu_compute");
    plan.declareStage("internal_storage_io");
    plan.declareStage("nsp_kernel");
    plan.declareStage("xcache_pci");
    plan.declareStage("qkv_upload");
    plan.declareStage("output_return");
    plan.declareStage("writeback");
    const bool has_retry = retry_extra > 0.0;
    if (has_retry)
        plan.declareStage("fault_retry");
    plan.declareResource(PlanResource::Uplink, 1);
    plan.declareResource(PlanResource::Gds, 1);
    plan.declareResource(PlanResource::P2p, N);
    plan.declareResource(PlanResource::Storage, N);

    const double h_bytes =
        static_cast<double>(m.hidden * m.dtype_bytes);
    const double x_load_bytes = alpha * static_cast<double>(b) *
                                static_cast<double>(s_mid) * h_bytes;
    const double internal_layer_bytes =
        (1.0 - alpha) * 2.0 * static_cast<double>(b) *
        static_cast<double>(s_mid) * kv_dim_bytes;
    const double loaded_weight = m.loadedWeightBytesPerLayer(b);

    const std::size_t op_weight = plan.addOp(
        transferOp(PlanResource::Uplink, "weight_stage", weight,
                   loaded_weight)
            .stageTag("load_weight")
            .busyTag(kBusyDram)
            .share(TrafficField::HostRead, loaded_weight)
            .asPrefetch());
    const std::size_t op_ssd = plan.addOp(
        transferOp(PlanResource::Storage, "internal_kv_read", xt.t_ssd,
                   internal_layer_bytes)
            .withFanout(N)
            .stageTag("internal_storage_io")
            .busyTag(kBusyStorage | kBusyFpga)
            .share(TrafficField::Internal, internal_layer_bytes));
    const std::size_t op_spill = plan.addOp(
        transferOp(PlanResource::Storage, "writeback_spill", wb_spill,
                   spill_bytes_step)
            .withFanout(N)
            .stageTag("internal_storage_io")
            .busyTag(kBusyStorage)
            .share(TrafficField::StorageWrite, spill_bytes_step)
            .dep(op_ssd));
    const std::size_t op_wnand = plan.addOp(
        transferOp(PlanResource::Storage, "weight_nand_read", weight_nand,
                   home == WeightHome::Storage ? loaded_weight : 0.0)
            .withFanout(N)
            .dep(op_spill));
    StepOp retry_op =
        transferOp(PlanResource::Storage, "fault_retry", retry_extra, 0.0)
            .busyTag(kBusyStorage)
            .dep(op_wnand);
    if (has_retry)
        retry_op.stageTag("fault_retry");
    const std::size_t op_retry = plan.addOp(retry_op);
    const std::size_t op_kernel = plan.addOp(
        computeOp(ComputeUnit::Fpga, "nsp_kernel", kernel_per_dev)
            .stageTag("nsp_kernel")
            .busyTag(kBusyFpga));
    const std::size_t op_xload = plan.addOp(
        transferOp(PlanResource::Gds, "xcache_load", xt.t_pci,
                   x_load_bytes)
            .stageTag("xcache_pci")
            .busyTag(kBusyDram)
            .asPrefetch());
    const std::size_t op_gpu = plan.addOp(
        computeOp(ComputeUnit::Gpu, "gpu_compute", gpu_stage)
            .stageTag("gpu_compute")
            .busyTag(kBusyGpu));
    // The attention stage races the same GPU X-cache portion that
    // gpu_compute already times and accounts: shadow (timed only).
    const std::size_t op_xrace = plan.addOp(
        computeOp(ComputeUnit::Gpu, "xattn_race", gpu_xattn + xt.t_gpu)
            .asShadow());
    const std::size_t op_uplink = plan.addOp(
        transferOp(PlanResource::Uplink, "uplink_occupancy", uplink_time,
                   uplink_bytes)
            .asShadow());
    const std::size_t op_qkv = plan.addOp(
        transferOp(PlanResource::Uplink, "qkv_upload", qkv_up,
                   qkv_up_bytes)
            .stageTag("qkv_upload")
            .share(TrafficField::HostWrite, qkv_up_bytes)
            .share(TrafficField::AttnHostWrite, qkv_up_bytes)
            .dep(op_weight)
            .dep(op_retry)
            .dep(op_kernel)
            .dep(op_xload)
            .dep(op_gpu)
            .dep(op_xrace)
            .dep(op_uplink));
    const std::size_t op_out = plan.addOp(
        transferOp(PlanResource::Uplink, "output_return", out_ret,
                   out_ret_bytes)
            .stageTag("output_return")
            .share(TrafficField::AttnHostRead, out_ret_bytes)
            .share(TrafficField::AttnHostRead, x_load_bytes)
            .share(TrafficField::HostRead, out_ret_bytes)
            .share(TrafficField::HostRead, x_load_bytes)
            .dep(op_qkv));
    plan.addOp(
        transferOp(PlanResource::Uplink, "writeback_commit", wb_critical,
                   spill_bytes_step)
            .stageTag("writeback")
            .dep(op_out));
    // CPU: partial-score precompute for buffered entries (tiny GEMV);
    // occupancy only, never on the critical path.
    const double partial_flops =
        static_cast<double>(b * m.heads) *
        (static_cast<double>(opts_.spill_interval) / 2.0) *
        static_cast<double>(d) * 2.0;
    plan.addOp(computeOp(ComputeUnit::Cpu, "cpu_partial_scores",
                         cpu_.computeTime(partial_flops))
                   .busyTag(kBusyCpu)
                   .asOffline());
    plan.busy_step_fraction.cpu = 0.02;  // orchestration

    res.faults.retry_time = L * retry_extra;  // per decode step

    const ResourceModel rm;
    res.fpga_power_watts = rm.powerWatts(d_group);

    // --- Energy spec over the whole run ---
    plan.energy.enabled = true;
    plan.energy.power = power_;
    plan.energy.kind = StorageKind::SmartSsds;
    plan.energy.devices = N;
    plan.energy.fpga_power = res.fpga_power_watts;
}

void
HilosEngine::makePrefillPlan(const RunConfig &cfg,
                             const FleetConditions &cond,
                             std::uint64_t chunk_index,
                             std::uint64_t chunk_count,
                             StepPlan &plan) const
{
    HILOS_ASSERT(cond.devices >= 1, "fleet conditions need >= 1 device");
    const ModelConfig &m = cfg.model;
    const unsigned N = cond.devices;
    const std::uint64_t total_seq = cfg.context_len + cfg.output_len;
    const std::uint64_t d = m.headDim();
    const std::uint64_t b = cfg.batch;

    plan.phase = PlanPhase::Prefill;
    plan.chunk_index = chunk_index;
    plan.chunk_count = chunk_count;

    const Bandwidth p2p_read = sys_.smartssd.p2p_read_bw * cond.p2p_derate;
    const Bandwidth p2p_write =
        sys_.smartssd.p2p_write_bw * cond.p2p_derate;
    const Bandwidth uplink_bw =
        sys_.chassis_uplink_bw * cond.uplink_derate;
    const Bandwidth fleet_read = static_cast<double>(N) * p2p_read;
    const Bandwidth gds = std::min(sys_.gds_effective_bw, fleet_read);

    // Same fleet capacity check as the decode plan, so a standalone
    // prefill plan reports infeasibility in exactly the same configs.
    const WeightHome home = chooseWeightHome(m, sys_.dram.capacity);
    const double alpha = alphaFor(cfg, fleet_read, gds);
    const double kv_dim_bytes = static_cast<double>(
        m.kv_heads * d * m.dtype_bytes);
    const double cache_bytes_per_tok_layer =
        alpha * static_cast<double>(m.xBytesPerTokenPerLayer()) +
        (1.0 - alpha) * 2.0 * kv_dim_bytes;
    const double fleet_capacity =
        static_cast<double>(N) *
        static_cast<double>(sys_.smartssd.nand.capacity);
    const std::uint64_t kept_seq =
        opts_.attention_window > 0
            ? std::min(total_seq, opts_.attention_window)
            : total_seq;
    const double cache_total = cache_bytes_per_tok_layer *
                               static_cast<double>(m.layers) *
                               static_cast<double>(b) *
                               static_cast<double>(kept_seq);
    const double weights_on_fleet =
        home == WeightHome::Storage
            ? static_cast<double>(m.weightBytesTotal())
            : 0.0;
    if (cache_total + weights_on_fleet > fleet_capacity) {
        plan.feasible = false;
        plan.note = "SmartSSD fleet capacity exceeded";
        return;
    }

    const auto [start, end] =
        prefillChunkRange(cfg.context_len, chunk_index, chunk_count);
    plan.chunk_tokens = end - start;

    // Weights stripe over the installed fleet exactly as in decode.
    const unsigned installed =
        std::max(sys_.installed_smartssds - cond.failed_devices, N);
    const Seconds weight = weightLoadTime(
        m, b, home, sys_.host_pcie_bw,
        std::min(uplink_bw,
                 static_cast<double>(installed) *
                     sys_.smartssd.nand.seq_read_bw));
    const Seconds prefill_compute =
        prefillChunkComputeTime(gpu_, m, b, start, end);
    // The chunk's share of the KV/X cache commits to the fleet over the
    // narrower of the chassis uplink and the aggregate P2P write path.
    const double chunk_cache_bytes =
        cache_bytes_per_tok_layer * static_cast<double>(b) *
        static_cast<double>(end - start);
    const Bandwidth prefill_write_bw =
        std::min(uplink_bw, static_cast<double>(N) * p2p_write);
    const Seconds prefill_write =
        Bytes(chunk_cache_bytes) / prefill_write_bw;

    // Per layer: the weight stream races the GPU prefill compute, then
    // the produced KV/X rows commit before the next layer starts.
    plan.layers = m.layers;
    plan.declareStage("load_weight");
    plan.declareStage("prefill_compute");
    plan.declareStage("kv_writeback");
    plan.declareResource(PlanResource::Uplink, 1);
    plan.declareResource(PlanResource::Storage, N);

    const std::size_t op_weight = plan.addOp(
        transferOp(PlanResource::Uplink, "weight_stage", weight,
                   m.loadedWeightBytesPerLayer(b))
            .stageTag("load_weight"));
    const std::size_t op_compute = plan.addOp(
        computeOp(ComputeUnit::Gpu, "prefill_compute", prefill_compute)
            .stageTag("prefill_compute"));
    plan.addOp(transferOp(PlanResource::Storage, "prefill_kv_write",
                          prefill_write, chunk_cache_bytes)
                   .stageTag("kv_writeback")
                   .busyTag(kBusyStorage)
                   .dep(op_weight)
                   .dep(op_compute));

    plan.busy_step_fraction.gpu = kPrefillGpuBusyFraction;
    plan.busy_step_fraction.dram = kPrefillDramBusyFractionNsp;
}

}  // namespace hilos

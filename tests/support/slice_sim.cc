#include "support/slice_sim.h"

#include <algorithm>

#include "accel/cycle_model.h"
#include "runtime/cost_model.h"
#include "runtime/writeback.h"
#include "sim/bandwidth.h"
#include "support/fault_sampler.h"

namespace hilos {
namespace test {

HilosEventSimulator::HilosEventSimulator(const SystemConfig &sys,
                                         const HilosOptions &opts)
    : sys_(sys), opts_(opts)
{
}

EventSimResult
HilosEventSimulator::simulateDecodeStep(const RunConfig &cfg,
                                        TraceRecorder *trace,
                                        Seconds start_time) const
{
    auto note = [&](const std::string &track, const std::string &name,
                    Seconds begin, Seconds end) {
        if (trace != nullptr)
            trace->record(track, name, begin, end);
    };
    const ModelConfig &m = cfg.model;
    const Gpu gpu(sys_.gpu);
    const unsigned N = opts_.num_devices;
    const std::uint64_t b = cfg.batch;
    // Sliding-window variants attend (and keep) only the window — the
    // same cap the analytic engine applies to its mid-generation
    // context, so every slice/X-load size below stays comparable.
    std::uint64_t s = midGenerationContext(cfg.context_len, cfg.output_len);
    if (opts_.attention_window > 0)
        s = std::min(s, opts_.attention_window);
    const std::uint64_t d = m.headDim();
    const std::uint64_t d_group = m.dGroup();
    const std::uint64_t L = m.layers;

    // Fault conditions freeze at the step's start time: failed devices
    // drop out of the slice rotation, link derates scale the resource
    // rates, and per-slice recovery penalties are drawn from the
    // plan's seeded per-device streams in deterministic loop order.
    // An empty plan allocates no RNG state and all derates are exactly
    // 1.0, keeping this path bit-identical to the fault-free build.
    const ConditionTimeline conditions(opts_.fault_plan, N);
    FaultInjector inj(opts_.fault_plan, N);
    std::vector<unsigned> alive;
    std::vector<std::size_t> alive_idx(N, 0);
    double min_derate = 1.0;
    for (unsigned i = 0; i < N; i++) {
        if (conditions.deviceFailed(i, start_time))
            continue;
        alive_idx[i] = alive.size();
        alive.push_back(i);
        min_derate =
            std::min(min_derate, conditions.linkDerate(i, start_time));
    }
    EventSimResult res;
    if (alive.empty()) {
        res.completed = false;
        res.note = "all SmartSSDs failed; no surviving device to serve "
                   "attention slices";
        res.devices_failed = N;
        return res;
    }
    const auto n_alive = static_cast<unsigned>(alive.size());
    const double up_derate = conditions.uplinkDerate(start_time);

    // Alpha re-selects for the surviving fleet.
    HilosOptions eff = opts_;
    eff.fault_plan = FaultPlan{};
    eff.num_devices = n_alive;
    const HilosEngine analytic(sys_, eff);
    const double alpha = analytic.selectedAlpha(cfg);
    const WeightHome home = chooseWeightHome(m, sys_.dram.capacity);

    // --- Resources ---
    BandwidthResource uplink("uplink",
                             sys_.chassis_uplink_bw * up_derate, usec(1));
    BandwidthResource gds("gds", analytic.gdsBw() * min_derate, usec(5));
    BandwidthResource host_link("host-pcie", sys_.host_pcie_bw, usec(1));
    std::vector<BandwidthResource> internal;
    std::vector<BandwidthResource> fpga;
    const CycleModel cm{CycleModelConfig{}};
    const Bandwidth kernel_rate = cm.kvBytesPerSec(s, d, d_group);
    for (unsigned i = 0; i < N; i++) {
        const double derate = conditions.linkDerate(i, start_time);
        internal.emplace_back("p2p" + std::to_string(i),
                              sys_.smartssd.p2p_read_bw * derate,
                              usec(80));
        fpga.emplace_back("fpga" + std::to_string(i), kernel_rate,
                          usec(10));
    }

    // --- Static per-layer quantities ---
    const double weight_bytes = m.loadedWeightBytesPerLayer(b);
    const std::uint64_t slice_bytes = 2ull * s * d * m.dtype_bytes;
    const std::uint64_t nsp_batches = static_cast<std::uint64_t>(
        (1.0 - alpha) * static_cast<double>(b) + 0.5);
    const std::uint64_t x_batches = b - nsp_batches;
    const std::uint64_t slices = nsp_batches * m.kv_heads;
    const std::uint64_t x_bytes =
        s * m.hidden * m.dtype_bytes;  // per sequence per layer
    const Seconds gpu_base =
        qkvProjTime(gpu, m, b) + mlpTime(gpu, m, b);
    const Seconds regen_per_seq =
        Flops(2.0 * static_cast<double>(s) *
              static_cast<double>(m.hidden) *
              static_cast<double>(m.kv_heads * d)) /
        (sys_.gpu.fp16_peak * sys_.gpu.gemm_efficiency);
    const Seconds gpu_xattn_per_seq =
        gpuAttentionTime(gpu, m, 1, s);
    const double qkv_up_bytes =
        static_cast<double>(b) *
        (static_cast<double>(m.hidden) +
         2.0 * static_cast<double>(m.kv_heads * d)) *
        static_cast<double>(m.dtype_bytes);
    const double out_ret_bytes =
        static_cast<double>(b * m.hidden * m.dtype_bytes);

    Seconds wb_crit = 0.0;
    if (opts_.delayed_writeback) {
        WritebackCostInputs win;
        win.slices = b * m.kv_heads;
        win.head_dim = d;
        win.d_group = d_group;
        win.spill_interval = opts_.spill_interval;
        win.devices = n_alive;
        win.host_link_bw = sys_.chassis_uplink_bw * up_derate;
        win.device_write_bw = sys_.smartssd.p2p_write_bw * min_derate;
        win.xrt_sync_base = sys_.xrt_sync_base;
        wb_crit = writebackCosts(win).criticalPath();
    } else {
        wb_crit = naiveWritebackTime(b * m.kv_heads, n_alive,
                                     2 * d * m.dtype_bytes,
                                     sys_.smartssd.nand.write_latency,
                                     usec(230));
    }

    // --- Simulate the layer pipeline ---
    res.layer_times.reserve(L);
    Seconds prev_done = 0.0;
    Seconds gpu_free = 0.0;
    Seconds gpu_busy = 0.0;
    std::vector<Seconds> weight_ready(L, 0.0);

    // Layer 0's weights stage before the step begins (steady state).
    weight_ready[0] = 0.0;

    for (std::uint64_t l = 0; l < L; l++) {
        const Seconds layer_start =
            std::max(prev_done, weight_ready[l]);

        // Prefetch the next layer's weights as soon as this layer
        // starts (the Weights Prefetcher's double buffering).
        if (l + 1 < L) {
            BandwidthResource &wres =
                home == WeightHome::Storage ? uplink : host_link;
            weight_ready[l + 1] = wres.transfer(
                layer_start, static_cast<std::uint64_t>(weight_bytes));
            note(wres.name(), "weights/L" + std::to_string(l + 1),
                 weight_ready[l + 1] -
                     wres.serviceTime(
                         static_cast<std::uint64_t>(weight_bytes)),
                 weight_ready[l + 1]);
        }

        // QKV upload to the devices.
        const Seconds qkv_done = uplink.transfer(
            layer_start, static_cast<std::uint64_t>(qkv_up_bytes));
        note("uplink", "qkv/L" + std::to_string(l),
             qkv_done - uplink.serviceTime(
                            static_cast<std::uint64_t>(qkv_up_bytes)),
             qkv_done);

        // NSP portion: slices stream through each device's internal
        // path into its accelerator. Slices homed on a failed device
        // re-dispatch round-robin onto the survivors.
        Seconds nsp_done = layer_start;
        for (std::uint64_t sl = 0; sl < slices; sl++) {
            const auto orig = static_cast<unsigned>(sl % N);
            unsigned dev = orig;
            if (conditions.deviceFailed(orig, start_time)) {
                dev = alive[sl % n_alive];
                inj.noteRedispatch();
            }
            Seconds read_done =
                internal[dev].transfer(std::max(layer_start, qkv_done),
                                       slice_bytes);
            if (inj.active()) {
                // ECC read-retry ladder on the NAND read, then the
                // NVMe command's timeout/backoff outcome; an exhausted
                // command re-issues the read on the next survivor.
                const Seconds nand_pen = inj.nandReadPenalty(dev);
                if (nand_pen > 0.0)
                    read_done = internal[dev].occupy(read_done, nand_pen);
                const FaultInjector::NvmeOutcome nvme =
                    inj.nvmeCommand(dev);
                if (nvme.extra_latency > 0.0)
                    read_done =
                        internal[dev].occupy(read_done,
                                             nvme.extra_latency);
                if (nvme.failed) {
                    const unsigned alt =
                        alive[(alive_idx[dev] + 1) % n_alive];
                    inj.noteRedispatch();
                    read_done =
                        internal[alt].transfer(read_done, slice_bytes);
                    dev = alt;
                }
            }
            const Seconds kernel_done =
                fpga[dev].transfer(read_done, slice_bytes);
            note(internal[dev].name(),
                 "read/L" + std::to_string(l) + "/s" +
                     std::to_string(sl),
                 read_done - internal[dev].serviceTime(slice_bytes),
                 read_done);
            note(fpga[dev].name(),
                 "attn/L" + std::to_string(l) + "/s" +
                     std::to_string(sl),
                 kernel_done - fpga[dev].serviceTime(slice_bytes),
                 kernel_done);
            nsp_done = std::max(nsp_done, kernel_done);
        }

        // X-cache portion: per-sequence GDS load (also occupying the
        // shared uplink), then GPU regeneration + attention.
        Seconds x_done = layer_start;
        for (std::uint64_t seq = 0; seq < x_batches; seq++) {
            const Seconds loaded = gds.transfer(layer_start, x_bytes);
            uplink.transfer(layer_start, x_bytes);
            note("gds", "xload/L" + std::to_string(l),
                 loaded - gds.serviceTime(x_bytes), loaded);
            const Seconds gpu_begin = std::max(gpu_free, loaded);
            gpu_free = gpu_begin + regen_per_seq + gpu_xattn_per_seq;
            note("gpu", "regen/L" + std::to_string(l), gpu_begin,
                 gpu_free);
            gpu_busy += regen_per_seq + gpu_xattn_per_seq;
            x_done = std::max(x_done, gpu_free);
        }

        // Host-side projections and MLP on the GPU.
        const Seconds base_begin = std::max(gpu_free, layer_start);
        gpu_free = base_begin + gpu_base;
        note("gpu", "proj+mlp/L" + std::to_string(l), base_begin,
             gpu_free);
        gpu_busy += gpu_base;

        const Seconds out_done = uplink.transfer(
            std::max(nsp_done, x_done),
            static_cast<std::uint64_t>(out_ret_bytes));
        const Seconds layer_done =
            std::max({out_done, gpu_free, qkv_done}) + wb_crit;

        note("layers", "L" + std::to_string(l), layer_start,
             layer_done);
        res.layer_times.push_back(layer_done - layer_start);
        prev_done = layer_done;
    }

    res.decode_step_time = prev_done;
    res.mean_layer_time = prev_done / static_cast<double>(L);
    res.uplink_utilization = uplink.utilization(prev_done);
    res.gds_utilization = gds.utilization(prev_done);
    // GPU busy spans all lie within [0, prev_done]; report the true
    // ratio (utilization() would assert if accounting ever drifted).
    res.gpu_utilization = gpu_busy / prev_done;
    double internal_busy = 0.0;
    for (const auto &r : internal)
        internal_busy += r.utilization(prev_done);
    res.internal_utilization = internal_busy / static_cast<double>(N);
    if (inj.active()) {
        const FaultStats &st = inj.stats();
        res.devices_failed = N - n_alive;
        res.redispatched_slices = st.redispatched_slices;
        res.nand_read_errors = st.nand_read_errors;
        res.nvme_timeouts = st.nvme_timeouts;
        res.nvme_retries = st.nvme_retries;
        res.retry_time = st.retry_time;
    }
    return res;
}

}  // namespace test
}  // namespace hilos

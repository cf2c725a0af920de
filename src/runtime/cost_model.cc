#include "runtime/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace hilos {

std::uint64_t
midGenerationContext(std::uint64_t context_len, std::uint64_t output_len)
{
    return context_len + output_len / 2;
}

WeightHome
chooseWeightHome(const ModelConfig &model, std::uint64_t dram_capacity)
{
    // §6.1: weights reside in CPU memory when capacity permits; models
    // exceeding 100B parameters are offloaded to storage.
    if (model.paramCount() > 100ull * 1000 * 1000 * 1000)
        return WeightHome::Storage;
    const double margin = 0.75;  // leave room for KV/buffers
    if (static_cast<double>(model.weightBytesTotal()) >
        margin * static_cast<double>(dram_capacity)) {
        return WeightHome::Storage;
    }
    return WeightHome::HostDram;
}

Seconds
weightLoadTime(const ModelConfig &model, std::uint64_t batch,
               WeightHome home, Bandwidth pci_bw, Bandwidth storage_bw)
{
    HILOS_ASSERT(pci_bw > 0.0, "invalid PCIe bandwidth");
    const Bytes bytes = model.loadedWeightBytesPerLayer(batch);
    if (home == WeightHome::HostDram)
        return bytes / pci_bw;
    HILOS_ASSERT(storage_bw > 0.0, "invalid storage bandwidth");
    // Storage -> host -> GPU: hops pipeline, the slower one binds.
    return bytes / std::min(pci_bw, storage_bw);
}

Seconds
qkvProjTime(const Gpu &gpu, const ModelConfig &model, std::uint64_t batch)
{
    const double params = static_cast<double>(
        model.attnWeightBytesPerLayer() / model.dtype_bytes);
    const double flops = 2.0 * static_cast<double>(batch) * params;
    // The projection streams the attention weights from HBM once.
    const double bytes = static_cast<double>(model.attnWeightBytesPerLayer());
    return gpu.kernelTime(flops, bytes);
}

Seconds
mlpTime(const Gpu &gpu, const ModelConfig &model, std::uint64_t batch)
{
    const double loaded =
        model.loadedWeightBytesPerLayer(batch) -
        static_cast<double>(model.attnWeightBytesPerLayer());
    const double flops = static_cast<double>(batch) *
                         (model.denseFlopsPerTokenPerLayer() -
                          2.0 * static_cast<double>(
                                    model.attnWeightBytesPerLayer() /
                                    model.dtype_bytes));
    return gpu.kernelTime(std::max(flops, 0.0), std::max(loaded, 0.0));
}

Seconds
cpuAttentionTime(const Cpu &cpu, const ModelConfig &model,
                 std::uint64_t batch, std::uint64_t context)
{
    const double kv_bytes = kvLayerBytes(model, batch, context);
    const double flops = static_cast<double>(batch) *
                         model.attentionFlopsPerToken(context);
    // CPU attention parallelises over (batch, kv-head) slices; with few
    // slices (small batches, GQA's few KV heads) the cores starve and
    // the achieved bandwidth drops further below peak.
    const double slices =
        static_cast<double>(batch) * static_cast<double>(model.kv_heads);
    const double parallel_scale =
        std::min(1.0, std::sqrt(slices / 512.0));
    return cpu.kernelTime(flops, kv_bytes) / std::max(parallel_scale,
                                                      0.05);
}

Seconds
gpuAttentionTime(const Gpu &gpu, const ModelConfig &model,
                 std::uint64_t batch, std::uint64_t context)
{
    const double kv_bytes = kvLayerBytes(model, batch, context);
    const double flops = static_cast<double>(batch) *
                         model.attentionFlopsPerToken(context);
    return gpu.kernelTime(flops, kv_bytes);
}

namespace {

/** Total prefill flops of one layer over a `context`-token prefix. */
double
prefillFlopsAt(const ModelConfig &model, std::uint64_t batch,
               std::uint64_t context)
{
    const double tokens =
        static_cast<double>(batch) * static_cast<double>(context);
    const double gemm_flops = tokens * model.denseFlopsPerTokenPerLayer();
    // FlashAttention over the prompt: O(s^2) score/value work per head.
    const double attn_flops =
        static_cast<double>(batch) *
        model.attentionFlopsPerToken(context) *
        static_cast<double>(context) / 2.0;  // causal: half the pairs
    return gemm_flops + attn_flops;
}

}  // namespace

Seconds
prefillComputeTime(const Gpu &gpu, const ModelConfig &model,
                   std::uint64_t batch, std::uint64_t context)
{
    const double weight_bytes =
        static_cast<double>(model.weightBytesPerLayer());
    return gpu.kernelTime(prefillFlopsAt(model, batch, context),
                          weight_bytes);
}

Seconds
prefillChunkComputeTime(const Gpu &gpu, const ModelConfig &model,
                        std::uint64_t batch, std::uint64_t start,
                        std::uint64_t end)
{
    HILOS_ASSERT(start <= end, "prefill chunk range inverted");
    // Causal attention means the [start, end) tokens attend to the whole
    // 0..end prefix, so the chunk's work is the prefix difference; the
    // layer weights stream again for every chunk's pass.
    const double flops = prefillFlopsAt(model, batch, end) -
                         prefillFlopsAt(model, batch, start);
    const double weight_bytes =
        static_cast<double>(model.weightBytesPerLayer());
    return gpu.kernelTime(flops, weight_bytes);
}

Bytes
kvLayerBytes(const ModelConfig &model, std::uint64_t batch,
             std::uint64_t context)
{
    return static_cast<double>(model.kvBytesPerTokenPerLayer()) *
           static_cast<double>(batch) * static_cast<double>(context);
}

Bytes
kvStepBytes(const ModelConfig &model, std::uint64_t batch)
{
    return static_cast<double>(model.kvBytesPerTokenPerLayer()) *
           static_cast<double>(batch);
}

MemoryFootprint
memoryFootprint(const ModelConfig &model, std::uint64_t batch,
                std::uint64_t total_seq)
{
    MemoryFootprint fp;
    fp.weights_bytes = static_cast<double>(model.weightBytesTotal());
    fp.kv_bytes = model.kvBytesTotal(batch, total_seq);
    // Peak activations: a few hidden-state buffers per sequence plus
    // the intermediate FFN expansion for the active chunk.
    fp.activation_bytes =
        static_cast<double>(batch) *
        static_cast<double>(model.hidden + model.intermediate) *
        static_cast<double>(model.dtype_bytes) * 4.0;
    return fp;
}

}  // namespace hilos

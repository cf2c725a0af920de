/**
 * @file
 * Cooperative X-cache scheduler (§4.2).
 *
 * The Cache Scheduler picks the fraction alpha of the batch whose
 * attention runs on the host: their pre-projection activations X are
 * read via GDS, K/V are regenerated on the GPU, and host attention runs
 * concurrently with the NSP devices handling the remaining 1 - alpha.
 *
 * The analytic optimum balances the host-path and internal-path times:
 *     alpha* = 2 B_PCI / (B_SSD + B_PCI),
 * then snaps to the nearest power-of-two fraction for even batch/head
 * partitioning.
 */

#ifndef HILOS_RUNTIME_XCACHE_H_
#define HILOS_RUNTIME_XCACHE_H_

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace hilos {

/** The first-order per-layer timing terms of §4.2's I/O analysis. */
struct XCacheTimes {
    Seconds t_pci = 0;  ///< X transfer over the host interconnect
    Seconds t_gpu = 0;  ///< K/V regeneration on the GPU
    Seconds t_ssd = 0;  ///< internal storage reads (X + KV portions)

    /** Pipelined effective time: max of the three. */
    Seconds effective() const;
};

/**
 * Analytic alpha selection and timing for the cooperative schedule.
 */
class XCacheScheduler
{
  public:
    /**
     * @param ssd_bw aggregate internal storage read bandwidth (scales
     *        with the number of NSP devices)
     * @param pci_bw achieved host-interconnect bandwidth for GDS loads
     * @param gpu_flops GPU compute capability for the regeneration GEMM
     */
    XCacheScheduler(Bandwidth ssd_bw, Bandwidth pci_bw, FlopRate gpu_flops);

    /** Continuous optimum alpha* = 2 B_PCI / (B_SSD + B_PCI). */
    double analyticAlpha() const;

    /**
     * alpha* snapped to the nearest candidate fraction
     * {0, 1/8, 1/4, 1/2, 1}; ties resolve to the larger fraction.
     */
    double selectAlpha() const;

    /**
     * Workload-aware selection: the candidate fraction minimising the
     * pipelined effective time for the given shapes (what the Cache
     * Scheduler actually deploys; robust when the analytic optimum
     * falls between candidates or T_GPU is not negligible).
     */
    double bestAlpha(std::uint64_t batch, std::uint64_t s,
                     std::uint64_t h, std::uint64_t kv) const;

    /**
     * Per-layer timing terms at a given alpha for a workload with
     * context s, hidden width h, KV width kv (bytes are FP16).
     *
     * @param batch sequences in the batch
     */
    XCacheTimes times(double alpha, std::uint64_t batch, std::uint64_t s,
                      std::uint64_t h, std::uint64_t kv) const;

    /** Candidate fractions considered by selectAlpha. */
    static const std::vector<double> &candidateAlphas();

  private:
    Bandwidth ssd_bw_;
    Bandwidth pci_bw_;
    FlopRate gpu_flops_;
};

}  // namespace hilos

#endif  // HILOS_RUNTIME_XCACHE_H_

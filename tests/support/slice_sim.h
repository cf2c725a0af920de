/**
 * @file
 * Transfer-granularity simulation of a HILOS decoding step: the
 * independent oracle the production backends are checked against.
 *
 * The analytic engine composes closed-form stage times with max/sum
 * rules, and the plan replay (simulatePlan in runtime/event_sim.h)
 * queues that same StepPlan on contended pools. This simulator derives
 * the HILOS schedule by hand instead: it replays the decoding step as
 * individual slice-sized transfers over contended resources — the
 * chassis uplink, the GDS path, each SmartSSD's internal P2P link and
 * accelerator, and the GPU — with cross-layer weight prefetching. It
 * plays the "measured" side of the paper's estimator check (§5.1):
 * the engine and fleet oracles, bench_crossval_eventsim and the tests
 * hold both production backends within an agreement band of it.
 */

#ifndef HILOS_TESTS_SUPPORT_SLICE_SIM_H_
#define HILOS_TESTS_SUPPORT_SLICE_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "runtime/hilos_engine.h"
#include "runtime/system_config.h"
#include "sim/trace.h"

namespace hilos {
namespace test {

/** Per-resource outcome of one simulated decoding step. */
struct EventSimResult {
    Seconds decode_step_time = 0;
    double uplink_utilization = 0;
    double gds_utilization = 0;
    double internal_utilization = 0;  ///< mean over devices
    double gpu_utilization = 0;
    Seconds mean_layer_time = 0;
    std::vector<Seconds> layer_times;

    // Fault-injection outcome (all zero / true without a FaultPlan).
    bool completed = true;  ///< false: no surviving device could serve
    std::string note;       ///< failure reason when !completed
    unsigned devices_failed = 0;
    std::uint64_t redispatched_slices = 0;
    std::uint64_t nand_read_errors = 0;
    std::uint64_t nvme_timeouts = 0;
    std::uint64_t nvme_retries = 0;
    Seconds retry_time = 0;  ///< latency added by retry recovery
};

/**
 * Slice-level simulator of the HILOS decode pipeline.
 */
class HilosEventSimulator
{
  public:
    HilosEventSimulator(const SystemConfig &sys, const HilosOptions &opts);

    /**
     * Simulate one full decoding step (all layers).
     *
     * When the options carry a FaultPlan, fault conditions (failed
     * devices, link derates) are sampled at `start_time`; slices homed
     * on failed devices re-dispatch round-robin onto survivors, and
     * per-slice NAND/NVMe recovery penalties are drawn from the plan's
     * seeded per-device RNG streams, so the same (seed, plan,
     * start_time) always reproduces an identical result.
     *
     * @param trace optional recorder; when supplied every transfer and
     *        compute interval lands on its own track (exportable to
     *        chrome://tracing via TraceRecorder::writeChromeTrace)
     * @param start_time absolute run time at which this step begins
     *        (used to evaluate timed fault events)
     */
    EventSimResult simulateDecodeStep(const RunConfig &cfg,
                                      TraceRecorder *trace = nullptr,
                                      Seconds start_time = 0.0) const;

  private:
    SystemConfig sys_;
    HilosOptions opts_;
};

}  // namespace test
}  // namespace hilos

#endif  // HILOS_TESTS_SUPPORT_SLICE_SIM_H_

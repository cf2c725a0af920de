/**
 * @file
 * Golden snapshots of the user-visible result surfaces: an analytic
 * HILOS run (fault-free and faulted), an event-sim decode step with its
 * trace summary, and the markdown evaluation report. Any behavioural
 * change to the models shows up as a unified diff against the
 * checked-in files under tests/golden/; intentional changes are
 * re-recorded with HILOS_UPDATE_GOLDENS=1.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "runtime/batcher.h"
#include "runtime/deepspeed_uvm.h"
#include "runtime/fleet_engine.h"
#include "runtime/flexgen.h"
#include "runtime/hilos_engine.h"
#include "runtime/report.h"
#include "runtime/serving.h"
#include "runtime/serving_workload.h"
#include "runtime/step_plan.h"
#include "runtime/vllm_multigpu.h"
#include "runtime/system_config.h"
#include "sim/fault.h"
#include "sim/trace.h"
#include "support/golden.h"
#include "support/serialize.h"
#include "support/slice_sim.h"

namespace hilos {
namespace test {
namespace {

RunConfig
headlineRun()
{
    RunConfig run;
    run.model = modelByName("OPT-66B");
    run.batch = 16;
    run.context_len = 32768;
    run.output_len = 64;
    return run;
}

void
expectGolden(const std::string &name, const std::string &actual)
{
    const GoldenOutcome out = compareGolden(name, actual);
    EXPECT_TRUE(out.ok) << out.message;
}

TEST(GoldenSnapshots, HilosEngineHeadlineRun)
{
    const HilosEngine engine(defaultSystem(), HilosOptions{});
    expectGolden("engine_run_opt66b.txt",
                 serialize(engine.run(headlineRun())));
}

TEST(GoldenSnapshots, HilosEngineFaultedRun)
{
    // The degraded-mode path: one device failure mid-run plus
    // probabilistic NAND errors. Pins the whole FaultSummary.
    HilosOptions opts;
    opts.fault_plan =
        parseFaultPlan("seed=7;nand-err=1e-3;fail@2.5=3;uplink@4.0=0.8");
    const HilosEngine engine(defaultSystem(), opts);
    expectGolden("engine_run_opt66b_faulted.txt",
                 serialize(engine.run(headlineRun())));
}

TEST(GoldenSnapshots, FleetRunWithNodeLoss)
{
    // The fleet surface end to end: a 4-host fleet losing host 1
    // mid-decode, with a transient stall and a degraded inter-host
    // link in the same plan. Pins FleetSummary (epochs, rebuild
    // accounting, availability) and the fleet-scope FaultSummary.
    FleetConfig fleet;
    fleet.hosts = 4;
    fleet.devices_per_host = 8;
    fleet.fault_plan = parseFaultPlan(
        "seed=7;host-fail@400=1;host-stall@350=0.02:2;"
        "host-degrade@300=0.8");
    const FleetEngine engine(defaultSystem(), fleet);
    expectGolden("fleet_run_opt66b.txt",
                 serialize(engine.run(headlineRun())));
}

TEST(GoldenSnapshots, EventSimDecodeStep)
{
    const HilosEventSimulator sim(defaultSystem(), HilosOptions{});
    expectGolden("event_sim_step_opt66b.txt",
                 serialize(sim.simulateDecodeStep(headlineRun())));
}

TEST(GoldenSnapshots, EventSimTraceSummary)
{
    const HilosEventSimulator sim(defaultSystem(), HilosOptions{});
    TraceRecorder trace;
    RunConfig run = headlineRun();
    run.batch = 4;  // keep the trace (and its summary) small
    run.context_len = 8192;
    (void)sim.simulateDecodeStep(run, &trace);
    expectGolden("event_sim_trace_opt66b.txt", traceSummary(trace));
}

TEST(GoldenSnapshots, StepPlanAllEnginesOpt66b)
{
    // The canonical StepPlan each engine emits for the headline
    // configuration: any change to op pricing, DAG shape, annotations
    // or the energy spec diffs here, localised to the op that moved.
    const SystemConfig sys = defaultSystem();
    const RunConfig run = headlineRun();
    const HilosEngine hilos(sys, HilosOptions{});
    const FlexGenEngine flex_dram(sys, FlexTier::HostDram);
    const FlexGenEngine flex_ssd(sys, FlexTier::BaselineSsds);
    const DeepSpeedUvmEngine uvm(sys);
    const VllmMultiGpuEngine vllm(sys, VllmClusterConfig{});
    const std::pair<const char *, const InferenceEngine *> engines[] = {
        {"HILOS", &hilos},          {"FlexGen(DRAM)", &flex_dram},
        {"FlexGen(SSD)", &flex_ssd}, {"DeepSpeed-UVM", &uvm},
        {"vLLM", &vllm},
    };
    std::ostringstream os;
    for (const auto &[title, engine] : engines)
        os << "==== " << title << " ====\n"
           << serialize(engine->decodeStepPlan(run));
    expectGolden("step_plan_opt66b.txt", os.str());
}

TEST(GoldenSnapshots, PrefillPhaseOpt66b)
{
    // The Prefill-phase plans behind the chunked-prefill path: each
    // engine's monolithic prefill plus chunk 1-of-4, so
    // chunk-range pricing, phase/chunk tags and the per-op prefill
    // energy accounting all pin here.
    const SystemConfig sys = defaultSystem();
    const RunConfig run = headlineRun();
    const HilosEngine hilos(sys, HilosOptions{});
    const FlexGenEngine flex_dram(sys, FlexTier::HostDram);
    const FlexGenEngine flex_ssd(sys, FlexTier::BaselineSsds);
    const DeepSpeedUvmEngine uvm(sys);
    const VllmMultiGpuEngine vllm(sys, VllmClusterConfig{});
    const std::pair<const char *, const InferenceEngine *> engines[] = {
        {"HILOS", &hilos},          {"FlexGen(DRAM)", &flex_dram},
        {"FlexGen(SSD)", &flex_ssd}, {"DeepSpeed-UVM", &uvm},
        {"vLLM", &vllm},
    };
    std::ostringstream os;
    for (const auto &[title, engine] : engines)
        os << "==== " << title << " (monolithic) ====\n"
           << serialize(engine->prefillStepPlan(run))
           << "==== " << title << " (chunk 1/4) ====\n"
           << serialize(engine->prefillStepPlan(run, 1, 4));
    expectGolden("prefill_phase_opt66b.txt", os.str());
}

TEST(GoldenSnapshots, ServingPoissonStreamOpt66b)
{
    // The whole serving surface: a seeded Poisson stream through the
    // continuous batcher, pinning every lifecycle timestamp, the exact
    // percentiles, and the queue-depth curve.
    const HilosEngine engine(defaultSystem(), HilosOptions{});
    ServingConfig cfg;
    cfg.model = modelByName("OPT-66B");
    cfg.max_batch = 8;
    cfg.slo = Seconds(60.0);
    const ServingSimulator sim(engine, cfg);
    PoissonStreamConfig pc;
    pc.arrival_rate = 2.0;
    pc.count = 24;
    Rng rng;  // fixed default seed
    expectGolden("serving_opt66b.txt",
                 serialize(sim.run(makePoissonArrivals(pc, rng))));
}

TEST(GoldenSnapshots, ServingPoliciesSaturatedOpt66b)
{
    // The non-FCFS admission orders under load: a stream far above
    // what a batch cap of 4 drains keeps the pending queue deep, and
    // every 7th arrival ties the one before it, so each policy's
    // ordering and its (arrival, id) tiebreak decide who is admitted.
    const HilosEngine engine(defaultSystem(), HilosOptions{});
    PoissonStreamConfig pc;
    pc.arrival_rate = 2.0;
    pc.count = 28;
    Rng rng;  // fixed default seed
    std::vector<Request> stream = makePoissonArrivals(pc, rng);
    for (std::size_t i = 7; i < stream.size(); i += 7)
        stream[i].arrival = stream[i - 1].arrival;

    std::ostringstream os;
    for (const ServingPolicy policy :
         {ServingPolicy::Sjf, ServingPolicy::SloAware}) {
        for (const std::uint64_t chunks : {1, 4}) {
            ServingConfig cfg;
            cfg.model = modelByName("OPT-66B");
            cfg.max_batch = 4;
            cfg.policy = policy;
            cfg.slo = Seconds(600.0);
            cfg.prefill_chunks = chunks;
            os << "==== " << servingPolicyName(policy)
               << " prefill_chunks=" << chunks << " ====\n"
               << serialize(ServingSimulator(engine, cfg).run(stream));
        }
    }
    expectGolden("serving_policies_saturated_opt66b.txt", os.str());
}

TEST(GoldenSnapshots, ServingModerateLoadOpt66b)
{
    // The unsaturated regime: at these rates the batch mostly runs
    // below its cap of 16 and arrivals land while an admitted group is
    // still mid-prefill, so every step boundary that could admit one
    // of them shows up in the admitted/first_token/completed times.
    const HilosEngine engine(defaultSystem(), HilosOptions{});
    std::ostringstream os;
    for (const double rate : {0.02, 0.005}) {
        PoissonStreamConfig pc;
        pc.arrival_rate = rate;
        pc.count = 300;
        Rng rng(17);
        const std::vector<Request> stream = makePoissonArrivals(pc, rng);
        for (const ServingPolicy policy :
             {ServingPolicy::Fcfs, ServingPolicy::Sjf}) {
            for (const std::uint64_t chunks : {1, 4}) {
                ServingConfig cfg;
                cfg.model = modelByName("OPT-66B");
                cfg.max_batch = 16;
                cfg.policy = policy;
                cfg.prefill_chunks = chunks;
                os << "==== rate=" << rate << ' '
                   << servingPolicyName(policy)
                   << " prefill_chunks=" << chunks << " ====\n"
                   << serialize(ServingSimulator(engine, cfg).run(stream));
            }
        }
    }
    expectGolden("serving_moderate_load_opt66b.txt", os.str());
}

TEST(GoldenSnapshots, ServingSmallQuantumOpt66b)
{
    // A 64-token bucket quantum: every decode run crosses many bucket
    // edges, so the step-cost hit/miss counts pin how a run is split
    // at edges, and each engine's capacity probes pin the cached-run
    // path. A batch cap of 4 under a 2 req/s stream keeps the batch
    // full, so runs go on until the first completion.
    const HilosEngine hilos(defaultSystem(), HilosOptions{});
    const VllmMultiGpuEngine vllm(defaultSystem(), VllmClusterConfig{});
    FleetConfig fleet;
    fleet.hosts = 2;
    const FleetEngine fleet_engine(defaultSystem(), fleet);
    PoissonStreamConfig pc;
    pc.arrival_rate = 2.0;
    pc.count = 16;
    Rng rng(5);
    const std::vector<Request> stream = makePoissonArrivals(pc, rng);

    std::ostringstream os;
    for (const InferenceEngine *engine :
         {static_cast<const InferenceEngine *>(&hilos),
          static_cast<const InferenceEngine *>(&vllm),
          static_cast<const InferenceEngine *>(&fleet_engine)}) {
        for (const ServingPolicy policy :
             {ServingPolicy::Fcfs, ServingPolicy::Sjf}) {
            for (const std::uint64_t chunks : {1, 3}) {
                ServingConfig cfg;
                cfg.model = modelByName("OPT-66B");
                cfg.max_batch = 4;
                cfg.bucket_quantum = 64;
                cfg.policy = policy;
                cfg.prefill_chunks = chunks;
                os << "==== " << engine->name() << ' '
                   << servingPolicyName(policy)
                   << " prefill_chunks=" << chunks << " ====\n"
                   << serialize(ServingSimulator(*engine, cfg).run(stream));
            }
        }
    }
    expectGolden("serving_small_quantum_opt66b.txt", os.str());
}

TEST(GoldenSnapshots, BatcherTokenAccountingOpt66b)
{
    // Pins the corrected serve() accounting: tokens_per_second counts
    // real generated tokens, with bucket-max decode padding reported
    // separately as output_padding_overhead.
    const HilosEngine engine(defaultSystem(), HilosOptions{});
    std::vector<Request> mix = makeBatch(RequestClass::Medium, 12);
    const auto small = makeBatch(RequestClass::Small, 4);
    mix.insert(mix.end(), small.begin(), small.end());
    mix.push_back(Request{RequestClass::Medium, 1000, 40});
    const OfflineBatcher batcher(16, 1024);
    expectGolden(
        "batcher_token_accounting_opt66b.txt",
        serialize(batcher.serve(engine, modelByName("OPT-66B"), mix)));
}

TEST(GoldenSnapshots, EvaluationReportMarkdown)
{
    // One-cell grid: enough to pin the whole rendering path (headers,
    // row formatting, aggregate lines) without a minutes-long sweep.
    ReportConfig cfg;
    cfg.models = {"OPT-66B"};
    cfg.contexts = {16384};
    cfg.device_counts = {8};
    expectGolden("report_opt66b_16k.md",
                 runEvaluation(defaultSystem(), cfg).toMarkdown());
}

}  // namespace
}  // namespace test
}  // namespace hilos

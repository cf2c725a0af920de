/**
 * @file
 * Integration tests over the inference engines: feasibility and batch
 * shrinking, the paper's qualitative orderings (Fig. 10/11/12/15/17
 * shapes), the Eq. 3 traffic ratio, and ablation monotonicity.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/hilos.h"

namespace hilos {
namespace {

RunConfig
makeRun(const ModelConfig &m, std::uint64_t batch, std::uint64_t context)
{
    RunConfig run;
    run.model = m;
    run.batch = batch;
    run.context_len = context;
    run.output_len = 64;
    return run;
}

class EngineFixture : public ::testing::Test
{
  protected:
    SystemConfig sys = defaultSystem();

    RunResult
    runEngine(EngineKind kind, const RunConfig &run, unsigned devices = 8)
    {
        HilosOptions opts;
        opts.num_devices = devices;
        return makeEngine(kind, sys, opts)->run(run);
    }
};

TEST_F(EngineFixture, FlexDramOomAtLongContext)
{
    const RunResult r = runEngine(EngineKind::FlexDram,
                                  makeRun(opt66b(), 16, 131072));
    EXPECT_FALSE(r.feasible);
    EXPECT_NE(r.note.find("DRAM"), std::string::npos);
}

TEST_F(EngineFixture, FlexDramShrinksBatch)
{
    const RunResult r = runEngine(EngineKind::FlexDram,
                                  makeRun(opt66b(), 16, 32768));
    ASSERT_TRUE(r.feasible);
    EXPECT_LT(r.effective_batch, 16u);
    EXPECT_GE(r.effective_batch, 1u);
}

TEST_F(EngineFixture, FlexSsdKeepsRequestedBatch)
{
    const RunResult r = runEngine(EngineKind::FlexSsd,
                                  makeRun(opt66b(), 16, 32768));
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.effective_batch, 16u);
}

TEST_F(EngineFixture, FlexSsdKvCommitIsPricedFromTheDriveConfig)
{
    // Each step commits one 2 x head_dim entry per (sequence, KV head),
    // striped over the RAID-0 members as sub-page random writes.
    const RunConfig run = makeRun(opt66b(), 16, 16384);
    const ModelConfig &m = run.model;
    const StepPlan plan = decodeStepPlanFor(EngineKind::FlexSsd, sys, run);
    ASSERT_TRUE(plan.feasible);
    const Seconds expected = sys.baseline_ssd.randomWriteTime(
        ceilDiv(run.batch * m.kv_heads, sys.num_baseline_ssds),
        2 * m.headDim() * m.dtype_bytes);
    bool found = false;
    for (const StepOpView op : plan.layer_ops) {
        if (op.label != "kv_commit")
            continue;
        found = true;
        EXPECT_EQ(op.seconds, expected);
    }
    EXPECT_TRUE(found) << "FLEX(SSD) decode plan has no kv_commit op";
}

TEST_F(EngineFixture, KvIoDominatesFlexSsdAtLongContext)
{
    // Fig. 2(b): > 60% of decode time in KV transfers.
    const RunResult r = runEngine(EngineKind::FlexSsd,
                                  makeRun(opt175b(), 16, 65536));
    const double kv_share =
        r.breakdown.get("kv_io") / r.breakdown.sum();
    EXPECT_GT(kv_share, 0.6);
}

TEST_F(EngineFixture, SmartSsdsWithoutFpgasUnderperformFlexSsd)
{
    // Fig. 10: FLEX(16 PCIe3 SSDs) at 0.64-0.94x of FLEX(SSD).
    const RunConfig run = makeRun(opt66b(), 16, 32768);
    const RunResult base = runEngine(EngineKind::FlexSsd, run);
    const RunResult raw = runEngine(EngineKind::FlexSmartSsdRaw, run);
    const double ratio = normalizedThroughput(raw, base);
    EXPECT_GT(ratio, 0.6);
    EXPECT_LT(ratio, 0.95);
}

TEST_F(EngineFixture, DeepSpeedUvmMuchSlowerThanFlexDram)
{
    // Fig. 10: DS+UVM is over 4x slower than FLEX(DRAM).
    const RunConfig run = makeRun(opt66b(), 16, 16384);
    const RunResult dram = runEngine(EngineKind::FlexDram, run);
    const RunResult uvm = runEngine(EngineKind::DeepSpeedUvm, run);
    ASSERT_TRUE(dram.feasible && uvm.feasible);
    EXPECT_GT(dram.decodeThroughput() / uvm.decodeThroughput(), 4.0);
}

TEST_F(EngineFixture, HilosBeatsFlexSsdAndGrowsWithContext)
{
    const RunResult base32 = runEngine(EngineKind::FlexSsd,
                                       makeRun(opt66b(), 16, 32768));
    const RunResult hil32 = runEngine(EngineKind::Hilos,
                                      makeRun(opt66b(), 16, 32768), 16);
    const RunResult base4 = runEngine(EngineKind::FlexSsd,
                                      makeRun(opt66b(), 16, 4096));
    const RunResult hil4 = runEngine(EngineKind::Hilos,
                                     makeRun(opt66b(), 16, 4096), 16);
    const double speed32 = normalizedThroughput(hil32, base32);
    const double speed4 = normalizedThroughput(hil4, base4);
    EXPECT_GT(speed32, 4.0);
    EXPECT_LT(speed32, 9.0);  // paper tops out at 7.86x
    EXPECT_GT(speed32, speed4);  // gap widens with context
}

TEST_F(EngineFixture, HilosScalesWithDeviceCount)
{
    const RunConfig run = makeRun(opt175b(), 16, 65536);
    const double t4 =
        runEngine(EngineKind::Hilos, run, 4).decodeThroughput();
    const double t8 =
        runEngine(EngineKind::Hilos, run, 8).decodeThroughput();
    const double t16 =
        runEngine(EngineKind::Hilos, run, 16).decodeThroughput();
    EXPECT_GT(t8, t4 * 1.2);
    EXPECT_GT(t16, t8 * 1.2);
}

TEST_F(EngineFixture, AblationOrdering)
{
    // Fig. 15: each optimisation adds throughput on long contexts.
    const RunConfig run = makeRun(opt66b(), 16, 65536);
    HilosOptions ans;
    ans.num_devices = 8;
    ans.delayed_writeback = false;
    ans.xcache = false;
    HilosOptions ans_wb = ans;
    ans_wb.delayed_writeback = true;
    HilosOptions ans_x = ans;
    ans_x.xcache = true;
    HilosOptions full = ans_wb;
    full.xcache = true;

    const double t_ans =
        HilosEngine(sys, ans).run(run).decodeThroughput();
    const double t_wb =
        HilosEngine(sys, ans_wb).run(run).decodeThroughput();
    const double t_x =
        HilosEngine(sys, ans_x).run(run).decodeThroughput();
    const double t_full =
        HilosEngine(sys, full).run(run).decodeThroughput();

    EXPECT_GT(t_wb, t_ans);
    EXPECT_GT(t_x, t_ans);
    EXPECT_GT(t_full, t_x);
    EXPECT_GT(t_full, t_wb);
}

TEST_F(EngineFixture, Eq3TrafficRatioTracksContext)
{
    HilosOptions opts;
    opts.num_devices = 8;
    opts.xcache = false;
    opts.delayed_writeback = false;
    const HilosEngine ans(sys, opts);
    const FlexGenEngine flex(sys, FlexTier::BaselineSsds);
    for (std::uint64_t s : {1024ull, 8192ull, 65536ull}) {
        RunConfig run = makeRun(opt175b(), 1, s);
        run.output_len = 2;
        const RunResult base = flex.run(run);
        const RunResult near = ans.run(run);
        const double t_base = base.traffic.attn_host_read_bytes +
                              base.traffic.attn_host_write_bytes;
        const double t_ans = near.traffic.attn_host_read_bytes +
                             near.traffic.attn_host_write_bytes;
        const double expected = (static_cast<double>(s) + 1.0) / 2.0;
        EXPECT_NEAR(t_base / t_ans, expected, expected * 0.05)
            << "s=" << s;
    }
}

TEST_F(EngineFixture, HostUnderutilisedUnderAns)
{
    // Fig. 4(c): host CPU/GPU below 20% with naive ANS.
    HilosOptions opts;
    opts.num_devices = 8;
    opts.xcache = false;
    opts.delayed_writeback = false;
    const RunResult r =
        HilosEngine(sys, opts).run(makeRun(opt175b(), 16, 32768));
    EXPECT_LT(r.busy.gpu / r.decode_step_time, 0.2);
    EXPECT_LT(r.busy.cpu / r.decode_step_time, 0.2);
}

TEST_F(EngineFixture, HilosEnergyBelowFlexSsd)
{
    // Fig. 17(a): large energy reduction at long contexts.
    const RunConfig run = makeRun(opt175b(), 16, 65536);
    const RunResult base = runEngine(EngineKind::FlexSsd, run);
    const RunResult hil = runEngine(EngineKind::Hilos, run, 16);
    EXPECT_LT(hil.energy.total(), 0.6 * base.energy.total());
}

TEST_F(EngineFixture, VllmSwapsAtLongContext)
{
    const VllmMultiGpuEngine vllm(sys, VllmClusterConfig{});
    const RunResult r = vllm.run(makeRun(opt66b(), 16, 131072));
    ASSERT_TRUE(r.feasible);
    EXPECT_NE(r.note.find("swap"), std::string::npos);
    EXPECT_GT(r.breakdown.get("kv_swap"), 0.0);
}

TEST_F(EngineFixture, VllmInfeasibleFor175B)
{
    const VllmMultiGpuEngine vllm(sys, VllmClusterConfig{});
    const RunResult r = vllm.run(makeRun(opt175b(), 16, 32768));
    EXPECT_FALSE(r.feasible);
}

TEST_F(EngineFixture, HilosBeatsVllmAtLongContext)
{
    // Fig. 17(b): 1.64-1.81x at the crossover.
    const RunConfig run = makeRun(opt66b(), 16, 65536);
    const VllmMultiGpuEngine vllm(sys, VllmClusterConfig{});
    const RunResult v = vllm.run(run);
    const RunResult h = runEngine(EngineKind::Hilos, run, 16);
    const double ratio = h.decodeThroughput() / v.decodeThroughput();
    EXPECT_GT(ratio, 1.3);
    EXPECT_LT(ratio, 2.5);
}

TEST_F(EngineFixture, PrefillAmortisationImprovesE2eSpeedup)
{
    // Fig. 14: end-to-end speedup grows with output length.
    const RunResult b16 = runEngine(EngineKind::FlexSsd,
                                    makeRun(opt66b(), 16, 16384));
    const RunResult h16 = runEngine(EngineKind::Hilos,
                                    makeRun(opt66b(), 16, 16384), 16);
    const double short_out = h16.endToEndThroughput(16) /
                             b16.endToEndThroughput(16);
    const double long_out = h16.endToEndThroughput(1024) /
                            b16.endToEndThroughput(1024);
    EXPECT_GT(long_out, short_out);
}

TEST_F(EngineFixture, CompareEnginesProducesAllRows)
{
    const auto rows = compareEngines(sys, makeRun(opt66b(), 16, 16384));
    EXPECT_EQ(rows.size(), 5u);
    EXPECT_EQ(rows[0].engine, "FLEX(SSD)");
    EXPECT_TRUE(rows[0].result.feasible);
}

TEST_F(EngineFixture, NormalizedThroughputHandlesInfeasible)
{
    RunResult bad;
    bad.feasible = false;
    RunResult good;
    good.effective_batch = 16;
    good.decode_step_time = 1.0;
    EXPECT_EQ(normalizedThroughput(bad, good), 0.0);
    EXPECT_EQ(normalizedThroughput(good, bad), 0.0);
}

TEST_F(EngineFixture, EngineNamesAreStable)
{
    EXPECT_EQ(makeEngine(EngineKind::FlexSsd, sys)->name(), "FLEX(SSD)");
    EXPECT_EQ(makeEngine(EngineKind::FlexDram, sys)->name(),
              "FLEX(DRAM)");
    EXPECT_EQ(makeEngine(EngineKind::DeepSpeedUvm, sys)->name(),
              "DS+UVM(DRAM)");
    HilosOptions opts;
    opts.num_devices = 8;
    EXPECT_EQ(makeEngine(EngineKind::Hilos, sys, opts)->name(),
              "HILOS(8 SmartSSDs)");
    opts.xcache = false;
    opts.delayed_writeback = false;
    EXPECT_EQ(makeEngine(EngineKind::Hilos, sys, opts)->name(), "ANS(8)");
}

TEST_F(EngineFixture, H100SwapDoesNotHelpIoBoundBaseline)
{
    // Fig. 16(a): the H100 swap buys little on the I/O-bound baseline,
    // so its cost-effectiveness drops.
    const RunConfig run = makeRun(opt66b(), 16, 32768);
    const RunResult a100 = runEngine(EngineKind::FlexSsd, run);
    SystemConfig h = h100System();
    const RunResult h100 = FlexGenEngine(h, FlexTier::BaselineSsds).run(run);
    EXPECT_LT(h100.decode_step_time, a100.decode_step_time * 1.01);
    EXPECT_GT(h100.decode_step_time, a100.decode_step_time * 0.6);
}

TEST(MaxFittingBatch, RequestedBatchZeroYieldsZero)
{
    // A zero request stays zero even with capacity for thousands of
    // sequences: the helper only ever shrinks.
    const ModelConfig m = opt66b();
    const double per_seq = m.kvBytesTotal(1, 4096);
    EXPECT_EQ(maxFittingBatch(m, 0, 4096, 1e4 * per_seq, 0.0), 0u);
}

TEST(MaxFittingBatch, CapacityBelowResidentYieldsZero)
{
    // Weights alone overflow the tier: the (negative) KV budget must
    // come back as batch 0, not wrap through the unsigned cast.
    const ModelConfig m = opt66b();
    EXPECT_EQ(maxFittingBatch(m, 16, 4096, 1.0 * GB, 2.0 * GB), 0u);
    // Capacity exactly equal to resident leaves no room either.
    EXPECT_EQ(maxFittingBatch(m, 16, 4096, 2.0 * GB, 2.0 * GB), 0u);
}

TEST(MaxFittingBatch, ExactFitBoundary)
{
    const ModelConfig m = opt66b();
    const double resident = 8.0 * GB;
    const double per_seq = m.kvBytesTotal(1, 4096);
    // Budget of exactly k sequences fits k...
    EXPECT_EQ(maxFittingBatch(m, 16, 4096, resident + 3.0 * per_seq,
                              resident),
              3u);
    // ...one byte less fits only k - 1...
    EXPECT_EQ(maxFittingBatch(m, 16, 4096,
                              resident + 3.0 * per_seq - 1.0, resident),
              2u);
    // ...and exactly one sequence is the feasibility edge: one byte
    // below it collapses to 0.
    EXPECT_EQ(maxFittingBatch(m, 16, 4096, resident + per_seq, resident),
              1u);
    EXPECT_EQ(
        maxFittingBatch(m, 16, 4096, resident + per_seq - 1.0, resident),
        0u);
}

}  // namespace
}  // namespace hilos

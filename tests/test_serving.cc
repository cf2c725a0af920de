/**
 * @file
 * Tests for the online serving layer: arrival streams, admission
 * policies, and the continuous-batching simulator.
 *
 * The load-bearing properties are the ones the fuzz oracle leans on:
 * bit-identical determinism (the simulator draws no randomness and the
 * arrival generators are seeded), lifecycle ordering per request, the
 * in-flight cap, FCFS starvation-freedom, SLO accounting, and the
 * all-at-zero equivalence with the offline batcher.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/hilos.h"
#include "runtime/batcher.h"
#include "sim/parallel.h"
#include "support/serialize.h"

namespace hilos {
namespace {

using test::serialize;

/** A small deterministic Poisson stream for simulator tests. */
std::vector<Request>
sampleStream(std::size_t count, double rate)
{
    PoissonStreamConfig pc;
    pc.arrival_rate = rate;
    pc.count = count;
    Rng rng(41);
    return makePoissonArrivals(pc, rng);
}

TEST(ServingWorkload, PoissonStreamIsSeededAndSorted)
{
    PoissonStreamConfig pc;
    pc.count = 100;
    pc.arrival_rate = 2.0;
    Rng a(7), b(7);
    const auto first = makePoissonArrivals(pc, a);
    const auto second = makePoissonArrivals(pc, b);
    ASSERT_EQ(first.size(), 100u);
    for (std::size_t i = 0; i < first.size(); i++) {
        EXPECT_EQ(first[i].arrival, second[i].arrival);
        EXPECT_EQ(first[i].input_tokens, second[i].input_tokens);
        EXPECT_EQ(first[i].output_tokens, second[i].output_tokens);
        EXPECT_GE(first[i].output_tokens, 1u);
        if (i > 0) {
            EXPECT_GE(first[i].arrival, first[i - 1].arrival);
        }
    }
    EXPECT_GT(first.front().arrival, 0.0);
}

TEST(ServingWorkload, MeanGapTracksArrivalRate)
{
    PoissonStreamConfig pc;
    pc.count = 4000;
    pc.arrival_rate = 5.0;
    Rng rng(13);
    const auto reqs = makePoissonArrivals(pc, rng);
    const double mean_gap =
        reqs.back().arrival / static_cast<double>(reqs.size());
    EXPECT_NEAR(mean_gap, 1.0 / pc.arrival_rate, 0.02);
}

TEST(ServingWorkload, ClassifiesByNearestCanonicalLength)
{
    EXPECT_EQ(classifyByInputLength(100), RequestClass::Small);
    EXPECT_EQ(classifyByInputLength(256), RequestClass::Small);
    EXPECT_EQ(classifyByInputLength(1024), RequestClass::Medium);
    EXPECT_EQ(classifyByInputLength(4000), RequestClass::Medium);
    EXPECT_EQ(classifyByInputLength(8192), RequestClass::Long);
    EXPECT_EQ(classifyByInputLength(100000), RequestClass::Long);
}

TEST(ServingWorkload, ClassBoundariesSitAtTheMidpoints)
{
    // The class cut-points are the midpoints of the canonical lengths
    // (256/1024 -> 640, 1024/8192 -> 4608); the boundary token count
    // itself belongs to the longer class.
    EXPECT_EQ(classifyByInputLength(639), RequestClass::Small);
    EXPECT_EQ(classifyByInputLength(640), RequestClass::Medium);
    EXPECT_EQ(classifyByInputLength(4607), RequestClass::Medium);
    EXPECT_EQ(classifyByInputLength(4608), RequestClass::Long);
}

TEST(ServingWorkload, TraceRoundTripsThroughFormat)
{
    // A trace in the canonical form (%.9g arrival times) parses to
    // exactly the values it spells, each request classed by its input.
    const std::string text = "# arrival_seconds input_tokens output_tokens\n"
                             "0 256 32\n"
                             "0.123456789 639 1\n"
                             "3.14159265 640 350\n"
                             "1234.56789 4608 7\n"
                             "1.25e-05 1 4096\n";
    const auto parsed = parseArrivalTrace(text);
    ASSERT_EQ(parsed.size(), 5u);
    const double arrival[] = {0.0, 1.25e-05, 0.123456789, 3.14159265,
                              1234.56789};
    const std::uint64_t input[] = {256, 1, 639, 640, 4608};
    const std::uint64_t output[] = {32, 4096, 1, 350, 7};
    const RequestClass cls[] = {RequestClass::Small, RequestClass::Small,
                                RequestClass::Small, RequestClass::Medium,
                                RequestClass::Long};
    for (std::size_t i = 0; i < parsed.size(); i++) {
        EXPECT_EQ(parsed[i].arrival.value(), arrival[i]);
        EXPECT_EQ(parsed[i].input_tokens, input[i]);
        EXPECT_EQ(parsed[i].output_tokens, output[i]);
        EXPECT_EQ(parsed[i].cls, cls[i]);
    }
}

TEST(ServingWorkload, TraceParserHandlesCommentsAndSorts)
{
    const std::string text = "# scenario: two late, one early\n"
                             "2.5 1024 350\n"
                             "\n"
                             "0.5 256 100  # inline comment\n"
                             "1.5 8192 350\n";
    const auto reqs = parseArrivalTrace(text);
    ASSERT_EQ(reqs.size(), 3u);
    EXPECT_EQ(reqs[0].arrival, 0.5);
    EXPECT_EQ(reqs[0].cls, RequestClass::Small);
    EXPECT_EQ(reqs[1].arrival, 1.5);
    EXPECT_EQ(reqs[1].cls, RequestClass::Long);
    EXPECT_EQ(reqs[2].arrival, 2.5);
}

TEST(ServingWorkload, TraceParserAcceptsMissingTrailingNewline)
{
    // Hand-edited trace files often lose the final newline; the last
    // request must still parse.
    const auto reqs = parseArrivalTrace("0.5 256 100\n1.5 1024 350");
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[1].arrival, 1.5);
    EXPECT_EQ(reqs[1].input_tokens, 1024u);
    EXPECT_EQ(reqs[1].output_tokens, 350u);
    EXPECT_EQ(reqs[1].cls, RequestClass::Medium);
}

/** The user error parseArrivalTrace raises on `text` ("" if none). */
std::string
traceError(const std::string &text)
{
    try {
        (void)parseArrivalTrace(text);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(ServingWorkload, TraceParserRejectsMalformedLines)
{
    // A bad trace line is the user's error, not a library bug: it is
    // a fatal error naming the line, never a panic.
    EXPECT_NE(traceError("0.5 256\n").find("line 1: expected"),
              std::string::npos);
    EXPECT_NE(traceError("ok 256 100\n").find("line 1: expected"),
              std::string::npos);
    EXPECT_NE(traceError("1.0 256 100\n-2 256 100\n")
                  .find("line 2: negative arrival"),
              std::string::npos);
    EXPECT_NE(traceError("1.0 256 0\n").find("line 1: token counts"),
              std::string::npos);
}

TEST(ServingPolicyOrder, ParseAndNameRoundTrip)
{
    for (ServingPolicy p : {ServingPolicy::Fcfs, ServingPolicy::Sjf,
                            ServingPolicy::SloAware}) {
        ServingPolicy parsed = ServingPolicy::Fcfs;
        EXPECT_TRUE(parseServingPolicy(servingPolicyName(p), &parsed));
        EXPECT_EQ(parsed, p);
    }
    ServingPolicy out = ServingPolicy::Sjf;
    EXPECT_FALSE(parseServingPolicy("round-robin", &out));
    EXPECT_EQ(out, ServingPolicy::Sjf);  // untouched on failure
}

/** `pending` sorted front-to-back in the order admission walks it. */
void
sortForAdmission(ServingPolicy policy,
                 std::vector<AdmissionCandidate> &pending)
{
    std::sort(pending.begin(), pending.end(),
              [policy](const AdmissionCandidate &a,
                       const AdmissionCandidate &b) {
                  return admitsBefore(policy, a, b);
              });
}

TEST(ServingPolicyOrder, FcfsOrdersByArrivalThenId)
{
    std::vector<AdmissionCandidate> pending = {
        {2, Seconds(3.0), 256, 100, Seconds(0.0)},
        {1, Seconds(1.0), 256, 100, Seconds(0.0)},
        {0, Seconds(1.0), 256, 100, Seconds(0.0)},
    };
    sortForAdmission(ServingPolicy::Fcfs, pending);
    EXPECT_EQ(pending[0].id, 0u);
    EXPECT_EQ(pending[1].id, 1u);
    EXPECT_EQ(pending[2].id, 2u);
}

TEST(ServingPolicyOrder, SjfPrefersLeastRemainingWork)
{
    std::vector<AdmissionCandidate> pending = {
        {0, Seconds(0.0), 256, 350, Seconds(0.0)},
        {1, Seconds(1.0), 256, 100, Seconds(0.0)},
        {2, Seconds(2.0), 128, 100, Seconds(0.0)},
    };
    sortForAdmission(ServingPolicy::Sjf, pending);
    // Fewest output tokens first; input breaks the tie.
    EXPECT_EQ(pending[0].id, 2u);
    EXPECT_EQ(pending[1].id, 1u);
    EXPECT_EQ(pending[2].id, 0u);
}

TEST(ServingPolicyOrder, SloAwareIsEarliestDeadlineFirst)
{
    std::vector<AdmissionCandidate> pending = {
        {0, Seconds(0.0), 256, 100, Seconds(9.0)},
        {1, Seconds(1.0), 256, 100, Seconds(4.0)},
    };
    sortForAdmission(ServingPolicy::SloAware, pending);
    EXPECT_EQ(pending[0].id, 1u);
    EXPECT_EQ(pending[1].id, 0u);
}

/** Shared fixtures: one engine is enough for the scheduler logic. */
class ServingSim : public ::testing::Test
{
  protected:
    SystemConfig sys_ = defaultSystem();
    HilosOptions opts_;

    HilosEngine
    engine() const
    {
        HilosOptions o = opts_;
        o.num_devices = 8;
        return HilosEngine(sys_, o);
    }

    ServingConfig
    config(ServingPolicy policy = ServingPolicy::Fcfs) const
    {
        ServingConfig cfg;
        cfg.model = opt66b();
        cfg.max_batch = 8;
        cfg.policy = policy;
        return cfg;
    }
};

TEST_F(ServingSim, LifecycleOrderingHoldsPerRequest)
{
    const HilosEngine eng = engine();
    const ServingSimulator sim(eng, config());
    const ServingResult res = sim.run(sampleStream(24, 2.0));
    ASSERT_TRUE(res.feasible) << res.note;
    ASSERT_EQ(res.records.size(), 24u);
    for (const RequestRecord &r : res.records) {
        EXPECT_GE(r.admitted, r.arrival);
        EXPECT_GT(r.first_token, r.admitted);
        EXPECT_GE(r.completed, r.first_token);
        EXPECT_LE(r.completed, res.makespan);
        EXPECT_GE(r.ttft(), 0.0);
        EXPECT_GE(r.latency(), r.ttft());
    }
    EXPECT_GT(res.decode_steps, 0u);
    EXPECT_GT(res.prefill_batches, 0u);
    EXPECT_GT(res.tokens_per_second, 0.0);
}

TEST_F(ServingSim, InFlightNeverExceedsSchedulerCap)
{
    const HilosEngine eng = engine();
    ServingConfig cfg = config();
    cfg.max_batch = 3;
    const ServingSimulator sim(eng, cfg);
    // A heavy burst: everything arrives nearly at once.
    const ServingResult res = sim.run(sampleStream(20, 100.0));
    ASSERT_TRUE(res.feasible) << res.note;
    EXPECT_LE(res.peak_in_flight, 3u);
    EXPECT_GT(res.peak_in_flight, 0u);
    EXPECT_LE(res.mean_in_flight,
              static_cast<double>(res.peak_in_flight));
    EXPECT_GT(res.peak_queue_depth, 0u);
}

TEST_F(ServingSim, FcfsAdmitsInArrivalOrder)
{
    const HilosEngine eng = engine();
    ServingConfig cfg = config(ServingPolicy::Fcfs);
    cfg.max_batch = 2;  // force queueing so admission order matters
    const ServingSimulator sim(eng, cfg);
    const ServingResult res = sim.run(sampleStream(16, 50.0));
    ASSERT_TRUE(res.feasible) << res.note;
    // Records are in submission order == arrival order for a sorted
    // stream; FCFS must admit monotonically.
    for (std::size_t i = 1; i < res.records.size(); i++)
        EXPECT_GE(res.records[i].admitted, res.records[i - 1].admitted);
}

TEST_F(ServingSim, SjfReordersButEveryRequestFinishes)
{
    const HilosEngine eng = engine();
    ServingConfig cfg = config(ServingPolicy::Sjf);
    cfg.max_batch = 2;
    const ServingSimulator sim(eng, cfg);
    // Mixed lengths arriving together: SJF serves Smalls before Longs.
    std::vector<Request> reqs;
    for (auto cls : {RequestClass::Long, RequestClass::Small,
                     RequestClass::Long, RequestClass::Small}) {
        Request r = makeRequest(cls);
        r.arrival = Seconds(0.001);
        reqs.push_back(r);
    }
    const ServingResult res = sim.run(reqs);
    ASSERT_TRUE(res.feasible) << res.note;
    ASSERT_EQ(res.records.size(), 4u);
    // The two Smalls (ids 1, 3) are admitted no later than the Longs.
    const Seconds small_latest =
        std::max(res.records[1].admitted, res.records[3].admitted);
    const Seconds long_earliest =
        std::min(res.records[0].admitted, res.records[2].admitted);
    EXPECT_LE(small_latest, long_earliest);
    for (const RequestRecord &r : res.records)
        EXPECT_GT(r.completed, 0.0);  // nothing starved forever
}

TEST_F(ServingSim, SloAccountingMatchesPerRequestLatency)
{
    const HilosEngine eng = engine();
    ServingConfig cfg = config(ServingPolicy::Fcfs);
    cfg.slo = Seconds(30.0);
    const ServingSimulator sim(eng, cfg);
    const ServingResult res = sim.run(sampleStream(32, 4.0));
    ASSERT_TRUE(res.feasible) << res.note;
    std::uint64_t met = 0;
    for (const RequestRecord &r : res.records) {
        EXPECT_EQ(r.met_slo, r.latency() <= cfg.slo);
        met += r.met_slo ? 1u : 0u;
    }
    EXPECT_EQ(res.slo_met, met);
    EXPECT_DOUBLE_EQ(res.slo_attainment,
                     static_cast<double>(met) / 32.0);
    EXPECT_DOUBLE_EQ(res.goodput_rps,
                     static_cast<double>(met) / res.makespan.value());
}

TEST_F(ServingSim, NoSloMeansEveryRequestCounts)
{
    const HilosEngine eng = engine();
    const ServingSimulator sim(eng, config());
    const ServingResult res = sim.run(sampleStream(8, 2.0));
    ASSERT_TRUE(res.feasible) << res.note;
    EXPECT_EQ(res.slo_met, 8u);
    EXPECT_DOUBLE_EQ(res.slo_attainment, 1.0);
}

TEST_F(ServingSim, PercentilesAreMonotoneAndExact)
{
    const HilosEngine eng = engine();
    const ServingSimulator sim(eng, config());
    const ServingResult res = sim.run(sampleStream(48, 3.0));
    ASSERT_TRUE(res.feasible) << res.note;
    EXPECT_LE(res.ttft_p50, res.ttft_p99);
    EXPECT_LE(res.ttft_p99, res.ttft_p999);
    EXPECT_LE(res.latency_p50, res.latency_p99);
    EXPECT_LE(res.latency_p99, res.latency_p999);
    // Exact percentiles are observed samples, not interpolations.
    std::vector<double> ttft, e2e;
    for (const RequestRecord &r : res.records) {
        ttft.push_back(r.ttft().value());
        e2e.push_back(r.latency().value());
    }
    std::sort(ttft.begin(), ttft.end());
    std::sort(e2e.begin(), e2e.end());
    EXPECT_TRUE(std::binary_search(ttft.begin(), ttft.end(),
                                   res.ttft_p99.value()));
    EXPECT_TRUE(std::binary_search(e2e.begin(), e2e.end(),
                                   res.latency_p999.value()));
}

TEST_F(ServingSim, QueueDepthCurveMatchesPeak)
{
    const HilosEngine eng = engine();
    ServingConfig cfg = config();
    cfg.max_batch = 2;
    const ServingSimulator sim(eng, cfg);
    const ServingResult res = sim.run(sampleStream(16, 50.0));
    ASSERT_TRUE(res.feasible) << res.note;
    ASSERT_FALSE(res.queue_depth.empty());
    std::uint64_t peak = 0;
    for (std::size_t i = 0; i < res.queue_depth.size(); i++) {
        peak = std::max(peak, res.queue_depth[i].depth);
        if (i > 0) {
            EXPECT_GE(res.queue_depth[i].when,
                      res.queue_depth[i - 1].when);
        }
    }
    EXPECT_EQ(peak, res.peak_queue_depth);
    EXPECT_EQ(res.queue_depth.back().depth, 0u);  // queue drains
}

TEST_F(ServingSim, OversizedRequestIsInfeasibleWithNote)
{
    const HilosEngine eng = engine();
    const ServingSimulator sim(eng, config());
    std::vector<Request> reqs = {
        Request{RequestClass::Long, 100u * 1000u * 1000u, 8, 0.0}};
    const ServingResult res = sim.run(reqs);
    EXPECT_FALSE(res.feasible);
    EXPECT_FALSE(res.note.empty());
}

TEST_F(ServingSim, AllAtZeroFcfsTracksOfflineBatcher)
{
    const HilosEngine eng = engine();
    ServingConfig cfg = config(ServingPolicy::Fcfs);
    cfg.max_batch = 16;
    const ServingSimulator sim(eng, cfg);
    std::vector<Request> reqs = makeBatch(RequestClass::Medium, 32);
    const ServingResult online = sim.run(reqs);
    ASSERT_TRUE(online.feasible) << online.note;

    const OfflineBatcher batcher(cfg.max_batch, cfg.bucket_quantum);
    const BatchPlanResult offline =
        batcher.serve(eng, cfg.model, reqs);
    const double ratio = online.makespan / offline.makespan;
    EXPECT_GE(ratio, 0.4) << "online " << online.makespan.value()
                          << " offline " << offline.makespan.value();
    EXPECT_LE(ratio, 2.5) << "online " << online.makespan.value()
                          << " offline " << offline.makespan.value();
}

TEST_F(ServingSim, StepCostCacheIsEffective)
{
    const HilosEngine eng = engine();
    const ServingSimulator sim(eng, config());
    const ServingResult res = sim.run(sampleStream(32, 4.0));
    ASSERT_TRUE(res.feasible) << res.note;
    // Steady-state decode re-uses cached (batch, context) plan costs;
    // misses stay bounded by the distinct shapes, not by step count.
    EXPECT_GT(res.cost_cache_hits, res.cost_cache_misses);
}

TEST_F(ServingSim, WorksAgainstEveryEngineKind)
{
    const std::vector<Request> reqs = sampleStream(6, 1.0);
    ServingConfig cfg = config();
    cfg.model = opt30b();
    cfg.max_batch = 4;
    for (EngineKind kind :
         {EngineKind::FlexDram, EngineKind::FlexSsd,
          EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
          EngineKind::VllmMultiGpu, EngineKind::Hilos}) {
        HilosOptions o;
        o.num_devices = 8;
        const auto eng = makeEngine(kind, sys_, o);
        const ServingSimulator sim(*eng, cfg);
        const ServingResult res = sim.run(reqs);
        if (!res.feasible)
            continue;  // small-memory tiers may reject Long requests
        EXPECT_EQ(res.records.size(), reqs.size());
        EXPECT_GT(res.makespan, 0.0);
    }
}

TEST_F(ServingSim, FleetEngineServesThroughItsPlans)
{
    // A fleet is costed through its own decode and prefill plans, like
    // every engine: one host serves exactly as HilosEngine does, the
    // cost-cache counters and chunked prefill included.
    const HilosEngine host = engine();
    FleetConfig fleet;
    fleet.hosts = 1;
    fleet.devices_per_host = 8;
    const auto one = makeFleetEngine(sys_, fleet, HilosOptions{});
    const std::vector<Request> reqs = sampleStream(24, 2.0);
    for (std::uint64_t chunks : {1ull, 4ull}) {
        ServingConfig cfg = config();
        cfg.prefill_chunks = chunks;
        const ServingResult want = ServingSimulator(host, cfg).run(reqs);
        ASSERT_TRUE(want.feasible) << want.note;
        EXPECT_EQ(serialize(ServingSimulator(*one, cfg).run(reqs)),
                  serialize(want))
            << chunks << " prefill chunks";
    }

    fleet.hosts = 2;
    const auto two = makeFleetEngine(sys_, fleet, HilosOptions{});
    ServingConfig cfg = config();
    cfg.max_batch = 4;
    const ServingResult res =
        ServingSimulator(*two, cfg).run(sampleStream(6, 1.0));
    ASSERT_TRUE(res.feasible) << res.note;
    EXPECT_EQ(res.records.size(), 6u);
    EXPECT_GT(res.makespan, 0.0);
}

TEST_F(ServingSim, BitIdenticalAcrossRunsAndJobCounts)
{
    const HilosEngine eng = engine();
    const ServingSimulator sim(eng, config());
    const std::vector<Request> reqs = sampleStream(24, 2.0);
    const std::string baseline = serialize(sim.run(reqs));
    EXPECT_EQ(serialize(sim.run(reqs)), baseline);

    // The simulator is const and stateless across calls, so fanning the
    // same simulation across sweep threads must not perturb a bit.
    std::vector<std::size_t> runs(8);
    std::iota(runs.begin(), runs.end(), std::size_t{0});
    for (unsigned jobs : {2u, 8u}) {
        SweepDriver driver(jobs);
        const std::vector<std::string> results = driver.map(
            runs, [&](std::size_t) { return serialize(sim.run(reqs)); });
        for (const std::string &r : results)
            EXPECT_EQ(r, baseline);
    }
}

TEST_F(ServingSim, ExplicitSingleChunkIsBitIdenticalToDefault)
{
    // prefill_chunks defaults to 1; asking for 1 explicitly must not
    // move a bit of the timeline or the counters.
    const HilosEngine eng = engine();
    const std::vector<Request> reqs = sampleStream(24, 2.0);
    const std::string base =
        serialize(ServingSimulator(eng, config()).run(reqs));
    ServingConfig cfg = config();
    cfg.prefill_chunks = 1;
    EXPECT_EQ(serialize(ServingSimulator(eng, cfg).run(reqs)), base);
}

TEST_F(ServingSim, ChunkedPrefillCountsChunksAndPreemptions)
{
    const HilosEngine eng = engine();
    const std::vector<Request> reqs = sampleStream(24, 8.0);  // bursty

    const ServingResult mono =
        ServingSimulator(eng, config()).run(reqs);
    ASSERT_TRUE(mono.feasible) << mono.note;
    EXPECT_EQ(mono.prefill_chunks_run, mono.prefill_batches);
    EXPECT_EQ(mono.prefill_preemptions, 0u);

    ServingConfig cfg = config();
    cfg.prefill_chunks = 4;
    const ServingResult chunked = ServingSimulator(eng, cfg).run(reqs);
    ASSERT_TRUE(chunked.feasible) << chunked.note;
    // Same admission groups, four chunks each.
    EXPECT_EQ(chunked.prefill_chunks_run, chunked.prefill_batches * 4);
    // A bursty stream keeps a decode flight alive while later groups
    // are still prefilling, so decode steps preempt chunks.
    EXPECT_GT(chunked.prefill_preemptions, 0u);
    // Every request still completes with an honest (chunked) TTFT.
    ASSERT_EQ(chunked.records.size(), reqs.size());
    for (const RequestRecord &r : chunked.records)
        EXPECT_GT(r.first_token, r.admitted);
}

/**
 * Serve `sorted` submitted in the order `perm` (perm[j] is the sorted
 * index submitted at position j), then map every record back to its
 * sorted index so the result compares with a run of `sorted`.
 */
ServingResult
runPermuted(const ServingSimulator &sim, const std::vector<Request> &sorted,
            const std::vector<std::size_t> &perm)
{
    std::vector<Request> submitted;
    for (const std::size_t i : perm)
        submitted.push_back(sorted[i]);
    ServingResult got = sim.run(submitted);
    std::vector<RequestRecord> mapped(got.records.size());
    for (std::size_t j = 0; j < perm.size() && j < got.records.size();
         j++) {
        mapped[perm[j]] = got.records[j];
        mapped[perm[j]].id = perm[j];
    }
    got.records = std::move(mapped);
    return got;
}

/**
 * The queue-depth curve by its definition, as a reference for the
 * simulator's merge: a +1 edge at every arrival and a -1 edge at every
 * admission, stable-sorted by time with arrivals first at equal times;
 * one sample after the last edge at each time.
 */
void
referenceQueueDepth(const std::vector<RequestRecord> &records,
                    std::vector<QueueDepthSample> *curve,
                    std::uint64_t *peak)
{
    std::vector<std::pair<double, int>> edges;
    for (const RequestRecord &r : records) {
        edges.emplace_back(r.arrival.value(), +1);
        edges.emplace_back(r.admitted.value(), -1);
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const auto &a, const auto &b) {
                         if (a.first != b.first)
                             return a.first < b.first;
                         return a.second > b.second;
                     });
    std::int64_t depth = 0;
    *peak = 0;
    for (std::size_t i = 0; i < edges.size(); i++) {
        depth += edges[i].second;
        *peak = std::max(*peak, static_cast<std::uint64_t>(depth));
        if (i + 1 == edges.size() || edges[i + 1].first != edges[i].first)
            curve->push_back(QueueDepthSample{
                Seconds(edges[i].first), static_cast<std::uint64_t>(depth)});
    }
}

TEST_F(ServingSim, QueueDepthMergeMatchesTheSortedEdgeReference)
{
    // The curve is a merge of the arrival order and the admission
    // order; it must equal the sorted-edge definition sample for
    // sample, under every policy, saturated and moderate, chunked.
    const HilosEngine eng = engine();
    const struct {
        const char *name;
        std::size_t count;
        double rate;
        std::uint64_t max_batch;
    } loads[] = {
        {"saturated", 48, 50.0, 2},
        {"moderate", 24, 0.05, 8},
    };
    for (const auto &load : loads) {
        const std::vector<Request> reqs = sampleStream(load.count, load.rate);
        for (const ServingPolicy policy : {ServingPolicy::Fcfs,
                                           ServingPolicy::Sjf,
                                           ServingPolicy::SloAware}) {
            for (const std::uint64_t chunks : {1, 4}) {
                ServingConfig cfg = config(policy);
                cfg.max_batch = load.max_batch;
                cfg.slo = Seconds(120.0);
                cfg.prefill_chunks = chunks;
                const ServingResult res =
                    ServingSimulator(eng, cfg).run(reqs);
                ASSERT_TRUE(res.feasible) << res.note;
                std::vector<QueueDepthSample> want;
                std::uint64_t peak = 0;
                referenceQueueDepth(res.records, &want, &peak);
                const std::string what =
                    std::string(load.name) + " " +
                    servingPolicyName(policy) + " chunks " +
                    std::to_string(chunks);
                EXPECT_EQ(res.peak_queue_depth, peak) << what;
                ASSERT_EQ(res.queue_depth.size(), want.size()) << what;
                for (std::size_t i = 0; i < want.size(); i++) {
                    EXPECT_EQ(res.queue_depth[i].when, want[i].when)
                        << what << " sample " << i;
                    EXPECT_EQ(res.queue_depth[i].depth, want[i].depth)
                        << what << " sample " << i;
                }
            }
        }
    }
}

TEST_F(ServingSim, AnInstantAdmissionStillCountsTowardThePeak)
{
    // An idle server admits a lone arrival the instant it arrives: one
    // sample at that time, depth back to 0, yet the peak is 1 (the
    // request was pending when the admission decision ran).
    const HilosEngine eng = engine();
    std::vector<Request> reqs = {makeRequest(RequestClass::Small)};
    reqs[0].arrival = Seconds(2.5);
    const ServingResult res = ServingSimulator(eng, config()).run(reqs);
    ASSERT_TRUE(res.feasible) << res.note;
    EXPECT_EQ(res.records[0].admitted, res.records[0].arrival);
    EXPECT_EQ(res.peak_queue_depth, 1u);
    ASSERT_EQ(res.queue_depth.size(), 1u);
    EXPECT_EQ(res.queue_depth[0].when, Seconds(2.5));
    EXPECT_EQ(res.queue_depth[0].depth, 0u);
}

TEST_F(ServingSim, PrefillChunksStopAtThePaddedPrompt)
{
    // With one-token buckets a prompt of p tokens splits into at most p
    // chunks: requests far apart are admitted alone, so the run charges
    // min(8, p) chunks per request. The one-token prompt runs as a
    // single chunk and joins the decode flight at admission.
    const HilosEngine eng = engine();
    ServingConfig cfg = config();
    cfg.bucket_quantum = 1;
    cfg.prefill_chunks = 8;
    std::vector<Request> reqs;
    for (const std::uint64_t prompt : {1, 4, 20}) {
        Request r;
        r.input_tokens = prompt;
        r.output_tokens = 3;
        r.arrival = Seconds(1e6 * static_cast<double>(reqs.size()));
        reqs.push_back(r);
    }
    const ServingResult res = ServingSimulator(eng, cfg).run(reqs);
    ASSERT_TRUE(res.feasible) << res.note;
    EXPECT_EQ(res.prefill_batches, 3u);
    EXPECT_EQ(res.prefill_chunks_run, 1u + 4u + 8u);
    for (const RequestRecord &r : res.records) {
        EXPECT_GT(r.first_token, r.admitted);
        EXPECT_GT(r.completed, 0.0);
    }

    // A one-chunk group admitted while a chunked group is mid-prefill
    // joins the flight at once; the chunked group still holds its
    // batch slot until its last chunk.
    reqs[0].arrival = Seconds(1e-6);
    reqs[1].arrival = Seconds(0.0);
    reqs[2].arrival = Seconds(0.0);
    const ServingResult mixed = ServingSimulator(eng, cfg).run(reqs);
    ASSERT_TRUE(mixed.feasible) << mixed.note;
    EXPECT_EQ(mixed.prefill_batches, 2u);
    EXPECT_EQ(mixed.prefill_chunks_run, 1u + 8u);
    EXPECT_GT(mixed.records[0].admitted, mixed.records[1].admitted);
    EXPECT_LT(mixed.records[0].first_token, mixed.records[1].first_token);
    for (const RequestRecord &r : mixed.records)
        EXPECT_GE(r.completed, r.first_token);
}

TEST_F(ServingSim, ServingIsIndependentOfSubmissionOrder)
{
    // Arrivals reach the pending queue in (arrival, id) order whatever
    // order the stream is submitted in. Shuffle a stream with tied
    // arrivals, keeping each tie group in its relative order (the id
    // tiebreak), and the run must match the sorted one request for
    // request once ids are mapped back.
    const HilosEngine eng = engine();
    std::vector<Request> sorted = sampleStream(48, 2.0);
    for (std::size_t i = 3; i < sorted.size(); i += 4)
        sorted[i].arrival = sorted[i - 1].arrival;

    // perm[j] is the sorted index submitted at position j.
    std::vector<std::size_t> perm(sorted.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    Rng rng(29);
    for (std::size_t j = perm.size() - 1; j > 0; j--)
        std::swap(perm[j], perm[static_cast<std::size_t>(rng.uniformInt(
                               0, static_cast<std::int64_t>(j)))]);
    std::map<double, std::vector<std::size_t>> ties;  // arrival -> slots
    for (std::size_t j = 0; j < perm.size(); j++)
        ties[sorted[perm[j]].arrival.value()].push_back(j);
    for (const auto &[arrival, slots] : ties) {
        std::vector<std::size_t> members;
        for (const std::size_t j : slots)
            members.push_back(perm[j]);
        std::sort(members.begin(), members.end());
        for (std::size_t k = 0; k < slots.size(); k++)
            perm[slots[k]] = members[k];
    }
    ASSERT_GT(sorted.size() - ties.size(), 5u);  // ties were made
    // A stream whose only disorder is one late pair (two untied
    // requests near the end) must be caught and sorted too.
    std::vector<std::size_t> late_pair(sorted.size());
    std::iota(late_pair.begin(), late_pair.end(), std::size_t{0});
    std::size_t j = sorted.size() - 1;
    while (sorted[j - 1].arrival == sorted[j].arrival)
        j--;
    std::swap(late_pair[j - 1], late_pair[j]);

    for (const ServingPolicy policy :
         {ServingPolicy::Fcfs, ServingPolicy::Sjf, ServingPolicy::SloAware}) {
        for (const std::uint64_t chunks : {1, 4}) {
            ServingConfig cfg = config(policy);
            cfg.slo = Seconds(120.0);
            cfg.prefill_chunks = chunks;
            const ServingSimulator sim(eng, cfg);
            const std::string want = serialize(sim.run(sorted));
            EXPECT_EQ(serialize(runPermuted(sim, sorted, perm)), want)
                << servingPolicyName(policy) << " chunks " << chunks;
            EXPECT_EQ(serialize(runPermuted(sim, sorted, late_pair)), want)
                << servingPolicyName(policy) << " chunks " << chunks
                << " late pair";
        }
    }
}

TEST_F(ServingSim, EmptyStreamDies)
{
    const HilosEngine eng = engine();
    const ServingSimulator sim(eng, config());
    EXPECT_DEATH(sim.run({}), "empty");
}

}  // namespace
}  // namespace hilos

/**
 * @file
 * Benchmark harness for the HILOS simulator.
 *
 * Four workloads, each one path a user of the library takes:
 *
 *  - sweep:  a Fig-10 style engine x model x batch x context grid run
 *            through InferenceEngine::runCached with one PlanCache, the
 *            way sweeps and reports evaluate many configurations.
 *  - replay: decode and prefill StepPlans of all six engines built,
 *            evaluated analytically, checked by the semantic plan
 *            analyzer, and replayed over contended resources by the
 *            event-driven backend.
 *  - serve:  a saturated Poisson stream served by continuous batching
 *            on HILOS, so the pending queue grows through the run.
 *  - fleet:  an 8-host HILOS fleet losing a host and stalling another
 *            mid-run, each set-up cross-checking it against the
 *            event-sim fleet step.
 *
 * Each run derives its inputs from --seed and alternates kSetups times
 * between a set-up (input generation, construction, reference outputs
 * and one cold pass) and warm passes, for --seconds of passes in all.
 * Every pass must reproduce the reference outputs bit for bit, and the
 * references are checked against an independent path or the
 * simulator's own invariants, so a wrong answer counts as a failed
 * operation.
 *
 * --trace 0 prints the end-to-end metrics: host time per pass and per
 * set-up (see BestTimes and kReferenceKernelSeconds), peak host memory,
 * and the modeled system's tokens per second and time to first token. --trace 1 wraps
 * every call into a library layer in a span and prints per-layer host
 * time, counts and modeled per-layer figures instead. The last line of
 * stdout is one JSON object with the keys correct, attempted, failed
 * and metrics.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/random.h"
#include "core/hilos.h"
#include "runtime/event_sim.h"
#include "runtime/plan_analyzer.h"
#include "runtime/plan_cache.h"

using namespace hilos;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Set-ups per run. The measured passes are split evenly between them,
 * so the set-ups sample the whole run.
 */
constexpr int kSetups = 40;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Host time of a fixed synthetic kernel shaped like the simulator's own
 * work: a 128-entry event heap popped and re-pushed, a table walk,
 * floating-point arithmetic and an ordered map, all within L2. It calls
 * nothing in the library, so no change to the program moves it; only
 * the machine does. It runs twice and the warm second run is timed, so
 * the cache state a pass leaves behind does not leak into it.
 */
double
machineKernelSeconds()
{
    static const std::vector<double> table = [] {
        std::vector<double> t(4096);
        for (std::size_t i = 0; i < t.size(); i++)
            t[i] = 1.0 + 1e-3 * static_cast<double>((i * 2654435761u) % 1000);
        return t;
    }();
    using Event = std::pair<double, std::uint32_t>;
    double seconds = 0.0;
    for (int run = 0; run < 2; run++) {
        const auto t0 = Clock::now();
        std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
        for (std::uint32_t id = 0; id < 128; id++)
            events.emplace(table[id], id);
        std::map<std::uint32_t, double> busy;
        double acc = 0.0;
        for (std::uint32_t n = 0; n < 3000; n++) {
            const auto [t, id] = events.top();
            events.pop();
            const double dt = table[(id * 31u + n) & 4095u];
            acc += std::sqrt(dt) * 0.5 + dt / (1.0 + t);
            busy[id & 63u] += dt;
            events.emplace(t + dt, id);
        }
        volatile double sink = acc + static_cast<double>(busy.size());
        (void)sink;
        seconds = secondsSince(t0);
    }
    return seconds;
}

/**
 * machineKernelSeconds() at its best on the reference host, a 4-vCPU
 * Xeon VM. host_ms and setup_s are scaled by this over the run's best
 * kernel time, so they read as times on that host. Other tenants of a
 * shared machine slow every core for minutes at a time, moving even
 * BestTimes sums by a quarter between runs of the same code; the kernel
 * slows with them, and the scaled times hold within a few percent.
 */
constexpr double kReferenceKernelSeconds = 150e-6;

/** Linear-interpolated quantile `q` in [0, 1] of a non-empty sample. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * The fastest time seen for each item of a sequence repeated through a
 * run: the grid points, plans or fleet cases of a pass, or the steps of
 * a set-up. Items are numbered in call order from the last restart().
 * host_ms and setup_s are such sums. Other tenants of a shared host
 * only ever add time, and in bursts, so some run of each short item
 * escapes them: the medians of whole passes and set-ups, and even the
 * fast tail of pass times, move by a quarter to a third between runs
 * of the same code, while each item's fastest run repeats.
 */
class BestTimes
{
  public:
    /** Start the next repetition of the sequence. */
    void restart() { next_ = 0; }

    /** Run fn() as the next item and keep its time if it is the best. */
    template <typename Fn>
    auto
    time(Fn &&fn)
    {
        const std::size_t item = next_++;
        if (item == best_s_.size())
            best_s_.push_back(std::numeric_limits<double>::infinity());
        const auto t0 = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            best_s_[item] = std::min(best_s_[item], secondsSince(t0));
        } else {
            auto result = fn();
            best_s_[item] = std::min(best_s_[item], secondsSince(t0));
            return result;
        }
    }

    /** Sum of the items' fastest times: the sequence at its best. */
    double
    total() const
    {
        double sum = 0.0;
        for (const double s : best_s_)
            sum += s;
        return sum;
    }

  private:
    std::vector<double> best_s_;
    std::size_t next_ = 0;
};

/** The library layers the benchmark calls into, one span kind each. */
enum class Layer : std::size_t {
    Pass,          ///< one whole pass; its self time is harness overhead
    EngineRun,     ///< InferenceEngine::runCached
    PlanBuild,     ///< decodeStepPlanFor / prefillStepPlanFor
    PlanEvaluate,  ///< evaluatePlan
    PlanAnalyze,   ///< analyzePlan
    PlanReplay,    ///< simulatePlan
    Serving,       ///< ServingSimulator::run
    FleetRun,      ///< FleetEngine::run
    Count,
};

/**
 * Span accounting kept in memory: per layer the number of calls and the
 * self time (wall time minus the time of spans nested inside).
 */
class Spans
{
  public:
    struct Totals {
        std::uint64_t calls = 0;
        double self_s = 0.0;
    };

    void open() { child_s_.push_back(0.0); }

    void
    close(Layer layer, double elapsed_s)
    {
        const double children = child_s_.back();
        child_s_.pop_back();
        Totals &t = totals_[static_cast<std::size_t>(layer)];
        t.calls++;
        t.self_s += elapsed_s - children;
        if (!child_s_.empty())
            child_s_.back() += elapsed_s;
    }

    const Totals &
    of(Layer layer) const
    {
        return totals_[static_cast<std::size_t>(layer)];
    }

  private:
    std::array<Totals, static_cast<std::size_t>(Layer::Count)> totals_{};
    std::vector<double> child_s_;
};

/** Call fn() inside a span of `layer` when tracing (spans != null). */
template <typename Fn>
auto
traced(Spans *spans, Layer layer, Fn &&fn)
{
    if (spans == nullptr)
        return fn();
    spans->open();
    const auto t0 = Clock::now();
    auto result = fn();
    spans->close(layer, secondsSince(t0));
    return result;
}

/** Self time per unit of work in `scale` units (0 for no work). */
double
selfPer(const Spans &spans, Layer layer, double units, double scale)
{
    return units > 0.0 ? scale * spans.of(layer).self_s / units : 0.0;
}

/** Self time per call of `layer` in `scale` units (0 if never called). */
double
selfPerCall(const Spans &spans, Layer layer, double scale)
{
    return selfPer(spans, layer, static_cast<double>(spans.of(layer).calls),
                   scale);
}

/** A metric's name and unit. */
using MetricDecl = std::pair<const char *, const char *>;

/** Every end-to-end metric. */
const MetricDecl kEndToEndMetrics[] = {
    {"host_ms", "ms"},
    {"peak_rss_mib", "MiB"},
    {"modeled_tok_s", "tok/s"},
    {"modeled_ttft_s", "s"},
    {"setup_s", "s"},
};

/** Every per-layer metric. */
const MetricDecl kLayerMetrics[] = {
    {"traced_pass_ms", "ms"},
    {"machine_kernel_us", "us"},
    {"harness_self_us", "us"},
    {"engine_run_us", "us"},
    {"plan_cache_hit_ratio", "ratio"},
    {"plan_build_ns_per_op", "ns"},
    {"plan_evaluate_ns_per_op", "ns"},
    {"plan_analyze_ns_per_op", "ns"},
    {"plan_replay_ns_per_op", "ns"},
    {"plan_ops", "count"},
    {"plan_findings", "count"},
    {"modeled_replay_over_analytic", "ratio"},
    {"serving_us_per_request", "us"},
    {"serving_us_per_step", "us"},
    {"serving_decode_steps", "count"},
    {"serving_cost_hit_ratio", "ratio"},
    {"modeled_queue_wait_s", "s"},
    {"modeled_batch_per_step", "count"},
    {"fleet_us_per_epoch", "us"},
    {"fleet_epochs", "count"},
    {"modeled_fleet_availability", "ratio"},
    {"modeled_rebuild_s", "s"},
};

using Metrics = std::map<std::string, double>;

/** What one pass did: operations attempted and those that were wrong. */
struct PassOutcome {
    std::uint64_t items = 0;
    std::uint64_t failed = 0;
};

/** Modeled end-to-end figures of the simulated system. */
struct Modeled {
    double tokens_per_s = 0.0;
    double ttft_s = 0.0;
};

/** Exact scalar surface of a RunResult two evaluations must share. */
bool
sameRun(const RunResult &a, const RunResult &b)
{
    return a.feasible == b.feasible &&
           a.effective_batch == b.effective_batch &&
           a.decode_step_time == b.decode_step_time &&
           a.prefill_time == b.prefill_time &&
           a.total_time == b.total_time &&
           a.energy.total() == b.energy.total() &&
           a.fleet.availability == b.fleet.availability &&
           a.fleet.epochs.size() == b.fleet.epochs.size();
}

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Generate the inputs of `seed`, construct the simulator objects,
     * compute and check the reference outputs, and run one cold pass,
     * with each step timed through `best`. Returns the number of checks
     * that failed.
     */
    virtual std::uint64_t setup(std::uint64_t seed, BestTimes &best) = 0;

    /**
     * One warm pass over the inputs, checked against the reference,
     * with each of its items timed through `best`.
     */
    virtual PassOutcome pass(Spans *spans, BestTimes &best) = 0;

    /** Modeled end-to-end figures of the reference outputs. */
    virtual Modeled modeled() const = 0;

    /** Per-layer figures after `passes` traced passes. */
    virtual void layerMetrics(const Spans &spans, double passes,
                              Metrics &out) const = 0;
};

/** The host every workload models: the A100 testbed of Table 1. */
const SystemConfig &
modeledSystem()
{
    static const SystemConfig sys = defaultSystem();
    return sys;
}

/** Every engine kind, in EngineKind order. */
const EngineKind kAllKinds[] = {
    EngineKind::FlexDram,        EngineKind::FlexSsd,
    EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
    EngineKind::VllmMultiGpu,    EngineKind::Hilos};

/**
 * `base` scaled by a factor drawn from [1 - jitter, 1 + jitter] and
 * rounded to a multiple of `quantum`. The seed moves every input a
 * little; the small jitter keeps the modeled aggregates steady.
 */
std::uint64_t
jittered(Rng &rng, std::uint64_t base, double jitter, std::uint64_t quantum)
{
    const double v = static_cast<double>(base) *
                     rng.uniform(1.0 - jitter, 1.0 + jitter);
    const auto q = static_cast<std::uint64_t>(
        std::llround(v / static_cast<double>(quantum)));
    return std::max<std::uint64_t>(q, 1) * quantum;
}

RunConfig
jitteredRun(Rng &rng, const ModelConfig &model, std::uint64_t batch,
            std::uint64_t context)
{
    return RunConfig{model, batch, jittered(rng, context, 0.02, 64),
                     jittered(rng, 64, 0.05, 1)};
}

// ---------------------------------------------------------------- sweep

/**
 * Fig-10 style grid: six engines x three models x four batches x four
 * contexts, engine-major like the figure. Consecutive points of one
 * engine differ only in scalars, so the PlanCache rebuilds plans in
 * place; the reference is a fresh engine's uncached run() per point.
 */
class SweepWorkload : public Workload
{
  public:
    std::uint64_t
    setup(std::uint64_t seed, BestTimes &best) override
    {
        best.time([&] {
            Rng rng(seed ^ 0x5357454550ull);
            points_.clear();
            for (const EngineKind kind : kAllKinds)
                for (const ModelConfig &model :
                     {opt66b(), opt175b(), qwen32b()})
                    for (const std::uint64_t batch : {4, 8, 16, 32})
                        for (const std::uint64_t ctx :
                             {8192, 16384, 32768, 65536})
                            points_.push_back(Point{
                                kind, jitteredRun(rng, model, batch, ctx)});
            engines_.clear();
            for (const EngineKind kind : kAllKinds)
                engines_.push_back(makeEngine(kind, modeledSystem()));
            cache_.clear();
            reference_.clear();
        });
        for (const Point &p : points_)
            reference_.push_back(best.time([&] {
                return makeEngine(p.kind, modeledSystem())->run(p.run);
            }));
        return pass(nullptr, best).failed;
    }

    PassOutcome
    pass(Spans *spans, BestTimes &best) override
    {
        PassOutcome out;
        for (std::size_t i = 0; i < points_.size(); i++) {
            const Point &p = points_[i];
            const InferenceEngine &engine =
                *engines_[static_cast<std::size_t>(p.kind)];
            const RunResult r = best.time([&] {
                return traced(spans, Layer::EngineRun, [&] {
                    return engine.runCached(p.run, cache_);
                });
            });
            out.items++;
            out.failed += sameRun(r, reference_[i]) ? 0 : 1;
        }
        return out;
    }

    /** The grid's jobs run back to back: tokens over summed run time. */
    Modeled
    modeled() const override
    {
        double tokens = 0.0, seconds = 0.0;
        std::vector<double> ttft;
        for (std::size_t i = 0; i < points_.size(); i++) {
            const RunResult &r = reference_[i];
            if (!r.feasible)
                continue;
            tokens += static_cast<double>(r.effective_batch *
                                          points_[i].run.output_len);
            seconds += r.total_time;
            ttft.push_back(r.prefill_time + r.decode_step_time);
        }
        return Modeled{tokens / seconds, median(ttft)};
    }

    void
    layerMetrics(const Spans &spans, double, Metrics &out) const override
    {
        const PlanCache::Stats &s = cache_.stats();
        out["engine_run_us"] = selfPerCall(spans, Layer::EngineRun, 1e6);
        out["plan_cache_hit_ratio"] =
            static_cast<double>(s.hits) /
            static_cast<double>(s.hits + s.misses + s.mismatches);
    }

  private:
    struct Point {
        EngineKind kind;
        RunConfig run;
    };

    std::vector<Point> points_;
    std::vector<std::unique_ptr<InferenceEngine>> engines_;
    PlanCache cache_;
    std::vector<RunResult> reference_;
};

// --------------------------------------------------------------- replay

/**
 * Decode and monolithic prefill plans of all six engines on two models
 * at two batches and two contexts: every plan is built, evaluated
 * analytically and replayed by the event-driven backend, which
 * dominates the cost. The analytic evaluation must reproduce the
 * engine's own run(), and the replay must respect the backends'
 * agreement invariants.
 */
class ReplayWorkload : public Workload
{
  public:
    std::uint64_t
    setup(std::uint64_t seed, BestTimes &best) override
    {
        Rng rng(seed ^ 0x5245504c4159ull);
        cases_.clear();
        std::uint64_t bad = 0;
        for (const EngineKind kind : kAllKinds)
            for (const ModelConfig &model : {opt66b(), opt175b()})
                for (const std::uint64_t batch : {8, 16})
                    for (const std::uint64_t ctx : {16384, 32768}) {
                        Case c;
                        c.kind = kind;
                        c.run = jitteredRun(rng, model, batch, ctx);
                        c.offline = best.time([&] {
                            return makeEngine(kind, modeledSystem())
                                ->run(c.run);
                        });
                        if (c.offline.feasible)
                            cases_.push_back(c);
                    }
        for (Case &c : cases_) {
            c.decode = best.time(
                [&] { return replay(c, PlanPhase::Decode, nullptr, bad); });
            c.prefill = best.time(
                [&] { return replay(c, PlanPhase::Prefill, nullptr, bad); });
            bad += c.decode.analytic == c.offline.decode_step_time ? 0 : 1;
            bad += c.prefill.analytic == c.offline.prefill_time ? 0 : 1;
        }
        return bad + pass(nullptr, best).failed;
    }

    PassOutcome
    pass(Spans *spans, BestTimes &best) override
    {
        PassOutcome out;
        for (const Case &c : cases_) {
            for (const PlanPhase phase :
                 {PlanPhase::Decode, PlanPhase::Prefill}) {
                std::uint64_t bad = 0;
                const Replayed r = best.time(
                    [&] { return replay(c, phase, spans, bad); });
                const Replayed &ref =
                    phase == PlanPhase::Decode ? c.decode : c.prefill;
                out.items++;
                out.failed += (bad == 0 && r.analytic == ref.analytic &&
                               r.replayed == ref.replayed &&
                               r.ops == ref.ops && r.findings == ref.findings)
                                  ? 0
                                  : 1;
            }
        }
        return out;
    }

    /** Offline batches timed with the replayed (contended) phases. */
    Modeled
    modeled() const override
    {
        double tokens = 0.0, seconds = 0.0;
        std::vector<double> ttft;
        for (const Case &c : cases_) {
            const double out_len = static_cast<double>(c.run.output_len);
            tokens +=
                static_cast<double>(c.offline.effective_batch) * out_len;
            seconds += c.prefill.replayed + out_len * c.decode.replayed;
            ttft.push_back(c.prefill.replayed + c.decode.replayed);
        }
        return Modeled{tokens / seconds, median(ttft)};
    }

    void
    layerMetrics(const Spans &spans, double passes,
                 Metrics &out) const override
    {
        double ops = 0.0, findings = 0.0, ratio = 0.0;
        for (const Case &c : cases_) {
            ops += static_cast<double>(c.decode.ops + c.prefill.ops);
            findings +=
                static_cast<double>(c.decode.findings + c.prefill.findings);
            ratio += c.decode.replayed / c.decode.analytic;
        }
        out["plan_ops"] = ops;
        out["plan_findings"] = findings;
        out["plan_build_ns_per_op"] =
            selfPer(spans, Layer::PlanBuild, ops * passes, 1e9);
        out["plan_evaluate_ns_per_op"] =
            selfPer(spans, Layer::PlanEvaluate, ops * passes, 1e9);
        out["plan_analyze_ns_per_op"] =
            selfPer(spans, Layer::PlanAnalyze, ops * passes, 1e9);
        out["plan_replay_ns_per_op"] =
            selfPer(spans, Layer::PlanReplay, ops * passes, 1e9);
        out["modeled_replay_over_analytic"] =
            ratio / static_cast<double>(cases_.size());
    }

  private:
    struct Replayed {
        double analytic = 0.0;
        double replayed = 0.0;
        std::uint64_t ops = 0;  ///< per-layer plus tail ops of the plan
        std::size_t findings = 0;  ///< analyzer findings, all warnings
    };
    struct Case {
        EngineKind kind = EngineKind::Hilos;
        RunConfig run;
        RunResult offline;
        Replayed decode;
        Replayed prefill;
    };

    /**
     * Build, evaluate, analyze and replay one plan. `bad` counts
     * violated invariants: the plan is feasible, the analyzer finds no
     * error and its critical path and slack agree with the evaluation,
     * no layer-0 op finishes earlier in the contended replay than
     * analytically, and the two backends agree within the [0.4, 2.5]
     * band the repo's oracles use.
     */
    static Replayed
    replay(const Case &c, PlanPhase phase, Spans *spans, std::uint64_t &bad)
    {
        const StepPlan plan = traced(spans, Layer::PlanBuild, [&] {
            return phase == PlanPhase::Decode
                       ? decodeStepPlanFor(c.kind, modeledSystem(), c.run)
                       : prefillStepPlanFor(c.kind, modeledSystem(), c.run);
        });
        Replayed r;
        if (!plan.feasible) {
            bad++;
            return r;
        }
        const PlanEvaluation ev = traced(spans, Layer::PlanEvaluate,
                                         [&] { return evaluatePlan(plan); });
        const PlanAnalysis an = traced(spans, Layer::PlanAnalyze,
                                       [&] { return analyzePlan(plan); });
        const PlanSimResult sim = traced(spans, Layer::PlanReplay,
                                         [&] { return simulatePlan(plan); });
        r.analytic = ev.decode_step_time;
        r.replayed = sim.decode_step_time;
        r.ops = plan.layer_ops.size() + plan.tail_ops.size();
        r.findings = an.findings.size();
        bad += hasUnwaivedErrors(an) ? 1 : 0;
        bad += an.layer_critical_path == ev.layer_critical_path ? 0 : 1;
        bad += an.op_slack.size() == plan.layer_ops.size() ? 0 : 1;
        // Slack is a difference of sums: allow rounding below zero.
        for (const Seconds slack : an.op_slack)
            bad += slack >= -1e-12 * ev.layer_critical_path ? 0 : 1;
        for (std::size_t i = 0; i < ev.op_finish.size(); i++)
            bad += sim.first_layer_finish[i] + 1e-12 >= ev.op_finish[i] ? 0
                                                                         : 1;
        const double ratio = r.replayed / r.analytic;
        bad += (ratio >= 0.4 && ratio <= 2.5) ? 0 : 1;
        return r;
    }

    std::vector<Case> cases_;
};

// ---------------------------------------------------------------- serve

/**
 * An open-loop Poisson stream on the default Azure-like class mix at
 * 0.25 req/s, the top rate of bench_serving and far above what HILOS
 * with eight SmartSSDs drains on OPT-66B at a batch cap of 16: the
 * pending queue holds most of the stream for the whole run, the regime
 * where admission cost grows with queue depth.
 */
class ServeWorkload : public Workload
{
  public:
    static constexpr std::size_t kRequests = 2000;

    std::uint64_t
    setup(std::uint64_t seed, BestTimes &best) override
    {
        best.time([&] {
            Rng rng(seed ^ 0x5345525645ull);
            PoissonStreamConfig pc;
            pc.arrival_rate = 0.25;
            pc.count = kRequests;
            stream_ = makePoissonArrivals(pc, rng);
            engine_ = makeEngine(EngineKind::Hilos, modeledSystem());
            ServingConfig cfg;
            cfg.model = opt66b();
            cfg.max_batch = 16;
            sim_ = std::make_unique<ServingSimulator>(*engine_, cfg);
        });
        reference_ = best.time([&] { return sim_->run(stream_); });
        return invariantViolations(reference_) + pass(nullptr, best).failed;
    }

    PassOutcome
    pass(Spans *spans, BestTimes &best) override
    {
        const ServingResult r = best.time([&] {
            return traced(spans, Layer::Serving,
                          [&] { return sim_->run(stream_); });
        });
        PassOutcome out;
        out.items = stream_.size();
        if (r.records.size() != stream_.size() ||
            r.makespan != reference_.makespan) {
            out.failed = out.items;
            return out;
        }
        for (std::size_t i = 0; i < r.records.size(); i++) {
            const RequestRecord &a = r.records[i];
            const RequestRecord &b = reference_.records[i];
            out.failed += (a.admitted == b.admitted &&
                           a.first_token == b.first_token &&
                           a.completed == b.completed)
                              ? 0
                              : 1;
        }
        return out;
    }

    Modeled
    modeled() const override
    {
        return Modeled{reference_.tokens_per_second, reference_.ttft_p50};
    }

    void
    layerMetrics(const Spans &spans, double passes,
                 Metrics &out) const override
    {
        const ServingResult &r = reference_;
        const double steps = static_cast<double>(r.decode_steps);
        out["serving_us_per_request"] = selfPer(
            spans, Layer::Serving,
            static_cast<double>(r.records.size()) * passes, 1e6);
        out["serving_us_per_step"] =
            selfPer(spans, Layer::Serving, steps * passes, 1e6);
        out["serving_decode_steps"] = steps;
        out["serving_cost_hit_ratio"] =
            static_cast<double>(r.cost_cache_hits) /
            static_cast<double>(r.cost_cache_hits + r.cost_cache_misses);
        out["modeled_queue_wait_s"] = r.mean_queue_wait;
        out["modeled_batch_per_step"] = r.mean_in_flight;
    }

  private:
    /** Out-of-order lifecycles plus token and makespan accounting. */
    std::uint64_t
    invariantViolations(const ServingResult &r) const
    {
        std::uint64_t bad = r.feasible ? 0 : 1;
        bad += r.records.size() == stream_.size() ? 0 : 1;
        double tokens = 0.0;
        Seconds last = 0.0;
        for (const RequestRecord &rec : r.records) {
            bad += (rec.arrival <= rec.admitted &&
                    rec.admitted <= rec.first_token &&
                    rec.first_token <= rec.completed)
                       ? 0
                       : 1;
            tokens += static_cast<double>(rec.output_tokens);
            last = std::max(last, rec.completed);
        }
        bad += last == r.makespan ? 0 : 1;
        const double tps = tokens / r.makespan;
        bad += std::abs(tps - r.tokens_per_second) <= 1e-9 * tps ? 0 : 1;
        return bad;
    }

    std::vector<Request> stream_;
    std::unique_ptr<InferenceEngine> engine_;
    std::unique_ptr<ServingSimulator> sim_;
    ServingResult reference_;
};

// ---------------------------------------------------------------- fleet

/**
 * Eight hosts of eight SmartSSDs under the spread policy, on two models
 * at 16K and 64K contexts, 16 requests per host. Each run loses one
 * host and stalls another at seed-drawn points of its decode phase and
 * sees seeded NAND read errors; the fleet re-places, rebuilds shards
 * and finishes degraded. Each set-up cross-checks the runs against the
 * event-sim fleet step, as bench_fleet does; the passes leave that step
 * out, as its 7-15 ms calls made the fleet's pass time the least
 * repeatable of all workloads (the replay workload times event replay).
 */
class FleetWorkload : public Workload
{
  public:
    static constexpr unsigned kHosts = 8;

    std::uint64_t
    setup(std::uint64_t seed, BestTimes &best) override
    {
        Rng rng(seed ^ 0x464c454554ull);
        cases_.clear();
        std::uint64_t bad = 0;
        FleetConfig shape;
        shape.hosts = kHosts;
        shape.devices_per_host = 8;
        for (const ModelConfig &model : {opt66b(), opt175b()})
            for (const std::uint64_t ctx : {16384, 65536}) {
                Case c;
                c.run = jitteredRun(rng, model, 16 * kHosts, ctx);
                const RunResult healthy = best.time([&] {
                    return FleetEngine(modeledSystem(), shape).run(c.run);
                });
                bad += healthy.feasible ? 0 : 1;
                const auto decodeAt = [&](double frac) {
                    return Seconds(healthy.prefill_time +
                                   frac *
                                       static_cast<double>(c.run.output_len) *
                                       healthy.decode_step_time);
                };
                const auto anyHost = [&] {
                    return static_cast<unsigned>(
                        rng.uniformInt(0, kHosts - 1));
                };
                FleetConfig fc = shape;
                fc.fault_plan.seed =
                    static_cast<std::uint64_t>(rng.uniformInt(1, 1 << 30));
                fc.fault_plan.addNandReadError(1e-3);
                fc.fault_plan.addHostFailure(
                    decodeAt(rng.uniform(0.3, 0.4)), anyHost());
                fc.fault_plan.addHostStall(decodeAt(rng.uniform(0.6, 0.7)),
                                           0.02, anyHost());
                c.engine = best.time([&] {
                    return std::make_unique<FleetEngine>(modeledSystem(), fc);
                });
                cases_.push_back(std::move(c));
            }
        for (Case &c : cases_) {
            c.reference = best.time([&] { return c.engine->run(c.run); });
            c.event_step = best.time(
                [&] { return c.engine->simulatedDecodeStep(c.run, 0.0); });
            bad += invariantViolations(c);
        }
        return bad + pass(nullptr, best).failed;
    }

    PassOutcome
    pass(Spans *spans, BestTimes &best) override
    {
        PassOutcome out;
        for (const Case &c : cases_) {
            const RunResult r = best.time([&] {
                return traced(spans, Layer::FleetRun,
                              [&] { return c.engine->run(c.run); });
            });
            out.items++;
            out.failed += sameRun(r, c.reference) ? 0 : 1;
        }
        return out;
    }

    /** Tokens of the requests that completed over summed run time. */
    Modeled
    modeled() const override
    {
        double tokens = 0.0, seconds = 0.0;
        std::vector<double> ttft;
        for (const Case &c : cases_) {
            const RunResult &r = c.reference;
            tokens += static_cast<double>(
                (r.effective_batch - r.faults.requests_failed) *
                c.run.output_len);
            seconds += r.total_time;
            ttft.push_back(r.prefill_time +
                           r.fleet.epochs.front().step_time);
        }
        return Modeled{tokens / seconds, median(ttft)};
    }

    void
    layerMetrics(const Spans &spans, double passes,
                 Metrics &out) const override
    {
        double epochs = 0.0, availability = 0.0, rebuild = 0.0;
        for (const Case &c : cases_) {
            epochs += static_cast<double>(c.reference.fleet.epochs.size());
            availability += c.reference.fleet.availability;
            rebuild += c.reference.fleet.rebuild_time;
        }
        const double n = static_cast<double>(cases_.size());
        out["fleet_us_per_epoch"] =
            selfPer(spans, Layer::FleetRun, epochs * passes, 1e6);
        out["fleet_epochs"] = epochs;
        out["modeled_fleet_availability"] = availability / n;
        out["modeled_rebuild_s"] = rebuild / n;
    }

  private:
    struct Case {
        RunConfig run;
        std::unique_ptr<FleetEngine> engine;
        RunResult reference;
        Seconds event_step = 0.0;
    };

    /** Recovery invariants of a degraded fleet run (as bench_fleet). */
    static std::uint64_t
    invariantViolations(const Case &c)
    {
        const RunResult &r = c.reference;
        if (!r.feasible || !std::isfinite(r.total_time) ||
            r.fleet.epochs.empty())
            return 1;
        std::uint64_t bad = 0;
        bad += r.fleet.hosts_failed >= 1 && r.fleet.hosts_failed < kHosts
                   ? 0
                   : 1;
        bad += r.fleet.availability > 0.0 && r.fleet.availability < 1.0
                   ? 0
                   : 1;
        bad += r.fleet.slowdown >= 1.0 - 1e-9 ? 0 : 1;
        const double agree =
            c.event_step / r.fleet.epochs.front().step_time;
        bad += agree > 0.4 && agree < 2.5 ? 0 : 1;
        return bad;
    }

    std::vector<Case> cases_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "sweep")
        return std::make_unique<SweepWorkload>();
    if (name == "replay")
        return std::make_unique<ReplayWorkload>();
    if (name == "serve")
        return std::make_unique<ServeWorkload>();
    if (name == "fleet")
        return std::make_unique<FleetWorkload>();
    return nullptr;
}

/**
 * Peak resident memory of this process image. getrusage's ru_maxrss
 * would also count the launching process, whose peak Linux carries
 * across exec, so read the image's own high-water mark instead.
 */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0.0;
}

}  // namespace

int
main(int argc, char **argv)
{
    // Time the production hot path: the opt-in plan-analyzer gate adds a
    // per-plan cost that no user run pays.
    unsetenv("HILOS_ANALYZE_PLANS");
    ArgParser args("perfbench_driver");
    args.addOption("workload", "", "sweep | replay | serve | fleet");
    args.addOption("seed", "1", "input seed");
    args.addOption("seconds", "10", "measured wall time");
    args.addOption("trace", "0", "1 = per-layer spans and metrics");
    if (!args.parse(argc, argv) || args.helpRequested()) {
        std::cerr << args.usage();
        return args.helpRequested() ? 0 : 2;
    }
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed"));
    const double seconds = args.getDouble("seconds");
    const std::int64_t trace = args.getInt("trace");
    std::unique_ptr<Workload> workload = makeWorkload(args.get("workload"));
    if (!args.ok() || !workload || !(seconds > 0.0) ||
        (trace != 0 && trace != 1)) {
        std::cerr << "error: "
                  << (args.ok() ? "unknown workload or bad value"
                                : args.error())
                  << "\n"
                  << args.usage();
        return 2;
    }

    Spans spans;
    Spans *active = trace == 1 ? &spans : nullptr;
    BestTimes setup_best, pass_best;
    double kernel_best = std::numeric_limits<double>::infinity();
    std::uint64_t setup_failures = 0, attempted = 0, failed = 0, passes = 0;
    for (int round = 0; round < kSetups; round++) {
        setup_best.restart();
        setup_failures += workload->setup(seed, setup_best);
        const auto start = Clock::now();
        do {
            pass_best.restart();
            const PassOutcome out = traced(active, Layer::Pass, [&] {
                return workload->pass(active, pass_best);
            });
            passes++;
            kernel_best = std::min(kernel_best, machineKernelSeconds());
            attempted += out.items;
            failed += out.failed;
        } while (secondsSince(start) < seconds / kSetups);
    }

    const double scale = kReferenceKernelSeconds / kernel_best;
    Metrics metrics;
    if (active == nullptr) {
        const Modeled m = workload->modeled();
        metrics["host_ms"] = 1e3 * scale * pass_best.total();
        metrics["peak_rss_mib"] = peakRssMiB();
        metrics["modeled_tok_s"] = m.tokens_per_s;
        metrics["modeled_ttft_s"] = m.ttft_s;
        metrics["setup_s"] = scale * setup_best.total();
    } else {
        // Layers a workload never calls read 0.
        for (const auto &[name, unit] : kLayerMetrics)
            metrics[name] = 0.0;
        workload->layerMetrics(spans, static_cast<double>(passes), metrics);
        metrics["traced_pass_ms"] = 1e3 * scale * pass_best.total();
        metrics["machine_kernel_us"] = 1e6 * kernel_best;
        metrics["harness_self_us"] = selfPerCall(spans, Layer::Pass, 1e6);
    }

    std::string json = "{\"correct\": ";
    json += failed + setup_failures == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed + setup_failures);
    json += ", \"metrics\": {";
    const std::span<const MetricDecl> declared =
        active == nullptr ? std::span<const MetricDecl>(kEndToEndMetrics)
                          : std::span<const MetricDecl>(kLayerMetrics);
    if (declared.size() != metrics.size()) {
        std::cerr << "error: a workload reported an undeclared metric\n";
        return 1;
    }
    const char *sep = "";
    for (const auto &[name, unit] : declared) {
        char number[40];
        std::snprintf(number, sizeof(number), "%.17g", metrics.at(name));
        json += std::string(sep) + "\"" + name + "\": {\"value\": " +
                number + ", \"unit\": \"" + unit + "\"}";
        sep = ", ";
    }
    json += "}}";
    std::cerr << args.get("workload") << ": " << passes
              << " passes, " << setup_failures
              << " failed set-up checks\n";
    std::cout << json << "\n";
    return 0;
}

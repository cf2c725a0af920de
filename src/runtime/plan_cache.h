/**
 * @file
 * Plan-structure cache for the sweep hot path.
 *
 * Profiling the grid sweeps shows the engines spend most of a grid
 * point re-deriving a plan whose *topology* (stages, resources, op
 * kinds/labels/deps/traffic fields) is identical to the previous
 * point's — only the priced annotations (seconds, bytes, fanout,
 * traffic-share bytes) change with batch/context/output length. A
 * PlanCache keeps one StepPlan per structural key and replays the
 * engine's builder over it in rebuild mode (StepPlan::beginRebuild):
 * every builder call *verifies* the structural fields against the
 * cached entry at its cursor and overwrites only the annotations.
 *
 * Correctness never depends on the key: the key is a lookup hint, and
 * a key collision or a genuine topology change (a capacity decision
 * flipping a plan infeasible, a fault stage appearing) simply fails
 * the verified rebuild, and the cache falls back to a cold build of
 * the same entry — bit-identical to an uncached build by
 * construction. A verified rebuild also skips static re-validation:
 * the cold build ran validate() once, and the rebuild proved the
 * topology unchanged, so the cache republishes the plan with
 * `structure_validated` set and applyPlan takes its fast path.
 *
 * Not thread-safe: sweep workers each own a PlanCache (see runGrid in
 * core/hilos.h).
 */

#ifndef HILOS_RUNTIME_PLAN_CACHE_H_
#define HILOS_RUNTIME_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "common/logging.h"
#include "runtime/step_plan.h"

namespace hilos {

/** Structural StepPlan cache keyed by a caller-chosen 64-bit hint. */
class PlanCache
{
  public:
    struct Stats {
        std::uint64_t hits = 0;        ///< verified in-place rebuilds
        std::uint64_t misses = 0;      ///< first build of a key
        std::uint64_t mismatches = 0;  ///< rebuilds that fell back cold
    };

    /**
     * Return the plan for `key`, built by `fn(plan)`. On the first
     * call for a key, `fn` populates a fresh plan (cold build); later
     * calls replay `fn` in rebuild mode and fall back to a cold build
     * if the topology diverged. `fn` must be a pure function of the
     * engine's configuration: it may run once or twice per call, so
     * any side output it produces (e.g. a RunResult) must be reset at
     * its entry, not accumulated.
     *
     * The returned reference stays valid until the entry is rebuilt
     * (the next build() with the same key) or the cache is cleared.
     */
    template <typename Fn>
    const StepPlan &build(std::uint64_t key, Fn &&fn)
    {
        Entry &entry = entries_[key];
        if (!entry.plan) {
            entry.plan = std::make_unique<StepPlan>();
            stats_.misses++;
            buildCold(entry, fn);
            return *entry.plan;
        }
        StepPlan &plan = *entry.plan;
        const bool was_validated = entry.validated;
        plan.beginRebuild();
        fn(plan);
        if (plan.finishRebuild()) {
            stats_.hits++;
            plan.structure_validated = was_validated && plan.feasible;
            return plan;
        }
        stats_.mismatches++;
        buildCold(entry, fn);
        return plan;
    }

    const Stats &stats() const { return stats_; }
    std::size_t size() const { return entries_.size(); }

    void clear()
    {
        entries_.clear();
        stats_ = Stats{};
    }

    /**
     * FNV-1a key over "<engine>|<model>|<phase>", the usual structural
     * hint. All chunks of a chunked prefill share the Prefill key: their
     * topology is identical, so later chunks rebuild annotations in
     * place just like later grid points do.
     */
    static std::uint64_t keyOf(std::string_view engine_name,
                               std::string_view model_name,
                               PlanPhase phase = PlanPhase::Decode);

    /**
     * `key` with `value` mixed in (FNV-1a over its bytes): narrows a
     * phase key to one use of the plan, such as one condition segment
     * of a faulted run, so each entry keeps one topology.
     */
    static std::uint64_t mixKey(std::uint64_t key, std::uint64_t value);

  private:
    struct Entry {
        std::unique_ptr<StepPlan> plan;  ///< stable address across rehash
        bool validated = false;          ///< cold validate() passed
    };

    template <typename Fn>
    void buildCold(Entry &entry, Fn &fn)
    {
        StepPlan &plan = *entry.plan;
        plan.clear();
        fn(plan);
        entry.validated = false;
        plan.structure_validated = false;
        if (!plan.feasible)
            return;
        const std::vector<std::string> problems = plan.validate();
        HILOS_ASSERT(problems.empty(), "engine emitted an invalid plan: ",
                     problems.empty() ? "" : problems.front());
        entry.validated = true;
        plan.structure_validated = true;
    }

    std::unordered_map<std::uint64_t, Entry> entries_;
    Stats stats_;
};

}  // namespace hilos

#endif  // HILOS_RUNTIME_PLAN_CACHE_H_

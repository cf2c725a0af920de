/**
 * @file
 * The StepPlan IR: one declarative description of a model pass that
 * every engine emits and every backend consumes. Plans are phase-tagged
 * (PlanPhase): a Decode plan describes one steady-state decoding step,
 * a Prefill plan describes one chunk of the prompt phase (chunk_count
 * == 1 being the monolithic prefill). Both phases share the same op
 * vocabulary, builders, validator, evaluator, and replay backend.
 *
 * A plan is a per-layer DAG of typed ops — Transfer{resource, bytes} on
 * named resources (host PCIe, chassis uplink, GDS, per-device P2P,
 * storage fleet) and Compute{unit, seconds} — with explicit dependency
 * edges, plus a serial tail of once-per-step ops (e.g. pipeline-hop
 * communication). Engines *build* plans by pricing each op with the
 * shared cost_model primitives; the backends then derive everything
 * else mechanically:
 *
 *  - the analytic evaluator (evaluatePlan/applyPlan below) computes the
 *    layer critical path and the StageBreakdown / TrafficCounters /
 *    ComponentBusy / EnergyBreakdown of a RunResult from op
 *    annotations, replacing the per-engine accounting copies;
 *
 *  - the event-simulator backend (simulatePlan in runtime/event_sim.h)
 *    replays the same ops over contended per-resource timelines, giving
 *    any plan-emitting engine a contention-aware cross-check.
 *
 * Evaluation rules are chosen so the analytic backend reproduces the
 * engines' historical closed forms bit-for-bit: op finish times fold
 * dependencies as max(dep finishes) + seconds (so serial chains sum
 * left-to-right and parallel branches max, both exactly); stage/traffic
 * sums accumulate in op-insertion order; per-component busy time is the
 * longest tagged path through the DAG. Three op roles keep the timing
 * and accounting surfaces from contaminating each other:
 *
 *  - normal ops: timed, accounted, replayed;
 *  - shadow ops: timed only — duplicates that re-state work already
 *    accounted elsewhere so an overlap branch can race it (e.g. the
 *    HILOS attention stage racing the GPU's X-cache portion, or the
 *    shared-uplink occupancy check); the replay skips them;
 *  - offline ops: accounted only — background occupancy that never
 *    gates the critical path (e.g. the CPU driving synchronous I/O).
 *
 * Storage layout: plans sit on the sweep driver's hottest path (one
 * build → validate → apply per grid point), so a StepOpArray keeps its
 * ops as one vector of fixed-size records plus one string arena for
 * labels and stages. A record carries the op's deps and traffic inline,
 * so a cold build grows one vector and one arena per op array (a small
 * plan fits the first reservation) instead of one allocation per field.
 * StepOp remains the addressable builder value (engines still emit
 * transferOp()/computeOp() chains); reads go through the StepOpView
 * proxy, which exposes the same field names over the record and the
 * arena without materialising per-op heap allocations.
 *
 * StepOp is a fixed-size value that owns no heap memory, so building
 * one, copying it and handing it to addOp never allocates:
 *
 *  - `label` and `stage` are string views. A view only has to outlive
 *    the addOp/addTailOp call it is passed to: append mode copies the
 *    bytes into the plan's arena, rebuild mode only compares them.
 *    Engines pass string literals.
 *  - `deps` and `traffic` are inline arrays of at most kMaxOpDeps
 *    edges and kMaxOpShares shares. Adding one more is a library bug
 *    and panics.
 *
 * With both, a PlanCache hit (a verified rebuild) allocates nothing
 * unless the builder writes a `note`.
 */

#ifndef HILOS_RUNTIME_STEP_PLAN_H_
#define HILOS_RUNTIME_STEP_PLAN_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "runtime/energy.h"
#include "runtime/engine.h"

namespace hilos {

/** Named resource classes a Transfer op occupies. */
enum class PlanResource : std::uint8_t {
    None,       ///< not a transfer
    HostPcie,   ///< host <-> GPU PCIe link
    Uplink,     ///< chassis uplink (switch to the device fleet)
    Gds,        ///< GPUDirect-Storage path
    P2p,        ///< SmartSSD-internal P2P path (per device)
    Storage,    ///< storage fleet NAND channel (per device)
    DramBus,    ///< host DRAM interface
    IntraNode,  ///< intra-node collective fabric (NVLink/PCIe)
    InterNode,  ///< cross-node network
};

/** Stable lower-case name for serialisation and replay tracks. */
const char *planResourceName(PlanResource r);

/** Compute units a Compute op runs on. */
enum class ComputeUnit : std::uint8_t { None, Gpu, Cpu, Fpga };

/** Stable lower-case name for serialisation and replay tracks. */
const char *computeUnitName(ComputeUnit u);

/** Busy-component tags (bitmask on StepOp::busy). */
constexpr unsigned kBusyGpu = 1u << 0;
constexpr unsigned kBusyCpu = 1u << 1;
constexpr unsigned kBusyDram = 1u << 2;
constexpr unsigned kBusyStorage = 1u << 3;
constexpr unsigned kBusyFpga = 1u << 4;

/** TrafficCounters fields an op can contribute to. */
enum class TrafficField : std::uint8_t {
    HostRead,
    HostWrite,
    AttnHostRead,
    AttnHostWrite,
    Internal,
    StorageWrite,
};

/** Stable field name for serialisation. */
const char *trafficFieldName(TrafficField f);

/** Which phase of a run a plan describes. */
enum class PlanPhase : std::uint8_t {
    Decode,   ///< one steady-state decoding step (repeated output_len times)
    Prefill,  ///< one chunk of the prompt phase (run once per chunk)
};

/** Stable lower-case name for serialisation. */
const char *planPhaseName(PlanPhase p);

/**
 * Token range [start, end) prefill chunk `index` of `count` covers in a
 * `context`-token prompt: an even integer division with the remainder
 * spread over the leading chunks. `index == 0, count == 1` yields the
 * whole prompt.
 */
std::pair<std::uint64_t, std::uint64_t>
prefillChunkRange(std::uint64_t context, std::uint64_t index,
                  std::uint64_t count);

/** One op's contribution to a traffic counter (per layer or per step). */
struct TrafficShare {
    TrafficField field = TrafficField::HostRead;
    Bytes bytes = 0;
};

/** Most dependency edges one op carries (HILOS's qkv_upload has 7). */
constexpr std::size_t kMaxOpDeps = 8;
/** Most traffic shares one op carries: one per TrafficField. */
constexpr std::size_t kMaxOpShares = 6;

namespace detail {
/** Panics: an InlineVector of `capacity` entries is full. */
[[noreturn]] void inlineCapacityExceeded(std::size_t capacity);
/** Panics: dependency id `id` does not fit an op record. */
[[noreturn]] void dependencyIdOverflow(std::size_t id);
}  // namespace detail

/**
 * A vector of at most N entries stored inline: the part of std::vector
 * a StepOp's deps and traffic use, with no heap allocation. Pushing
 * past N panics.
 */
template <typename T, std::size_t N>
class InlineVector
{
  public:
    void push_back(const T &value)
    {
        if (size_ == N)
            detail::inlineCapacityExceeded(N);
        items_[size_++] = value;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return items_[i]; }
    const T &operator[](std::size_t i) const { return items_[i]; }
    const T *begin() const { return items_.data(); }
    const T *end() const { return items_.data() + size_; }

  private:
    std::array<T, N> items_{};
    std::size_t size_ = 0;
};

/**
 * One typed op of a step plan, as an addressable builder value. Build
 * with transferOp()/computeOp() and the fluent setters; add to a plan
 * with StepPlan::addOp (which stores it as one record of the plan).
 * A fixed-size value: see the file comment for its view and capacity
 * rules.
 */
struct StepOp {
    enum class Kind : std::uint8_t { Transfer, Compute };

    Kind op_kind = Kind::Compute;
    PlanResource resource = PlanResource::None;  ///< Transfer only
    ComputeUnit unit = ComputeUnit::None;        ///< Compute only
    Seconds seconds = 0;  ///< engine-priced duration of the whole op
    Bytes bytes = 0;      ///< payload bytes (Transfer; replay/metadata)
    /**
     * Concurrent per-instance replicas the replay issues, each lasting
     * the full `seconds` (the engine's pricing already divides the work
     * across instances, so replica k occupies instance k for the
     * per-device duration; the op finishes when the slowest replica
     * does).
     */
    std::uint64_t fanout = 1;

    std::string_view label;  ///< trace/serialisation name
    std::string_view stage;  ///< breakdown stage ("" = unattributed)
    unsigned busy = 0;  ///< kBusy* component mask

    bool prefetch = false;  ///< replay issues it one layer ahead
    bool shadow = false;    ///< timed only (no accounting, no replay)
    bool offline = false;   ///< accounted only (off the critical path)

    InlineVector<TrafficShare, kMaxOpShares> traffic;
    /** Earlier op ids this op waits on. */
    InlineVector<std::uint32_t, kMaxOpDeps> deps;

    // Fluent builder setters (inline: engines chain several per op on
    // every plan build).
    StepOp &dep(std::size_t id)
    {
        if (id > UINT32_MAX)
            detail::dependencyIdOverflow(id);
        deps.push_back(static_cast<std::uint32_t>(id));
        return *this;
    }
    StepOp &stageTag(std::string_view name)
    {
        stage = name;
        return *this;
    }
    StepOp &busyTag(unsigned mask)
    {
        busy |= mask;
        return *this;
    }
    StepOp &share(TrafficField field, Bytes bytes_contributed)
    {
        traffic.push_back(TrafficShare{field, bytes_contributed});
        return *this;
    }
    StepOp &withFanout(std::uint64_t n)
    {
        fanout = n;
        return *this;
    }
    StepOp &asPrefetch()
    {
        prefetch = true;
        return *this;
    }
    StepOp &asShadow()
    {
        shadow = true;
        return *this;
    }
    StepOp &asOffline()
    {
        offline = true;
        return *this;
    }
};

/** A priced transfer op on a named resource. */
inline StepOp
transferOp(PlanResource resource, std::string_view label, Seconds seconds,
           Bytes bytes)
{
    StepOp op;
    op.op_kind = StepOp::Kind::Transfer;
    op.resource = resource;
    op.label = label;
    op.seconds = seconds;
    op.bytes = bytes;
    return op;
}

/** A priced compute op on a unit. */
inline StepOp
computeOp(ComputeUnit unit, std::string_view label, Seconds seconds)
{
    StepOp op;
    op.op_kind = StepOp::Kind::Compute;
    op.unit = unit;
    op.label = label;
    op.seconds = seconds;
    return op;
}

/**
 * StepOpView::stage_index of an op whose stage is looked up by name:
 * one with no stage, or one StepOpArray::set rewrote.
 */
constexpr std::uint32_t kStageByName = UINT32_MAX;

/**
 * Read-only proxy over one op of a StepOpArray: the same field names as
 * StepOp, but labels/stages are views into the shared arena and
 * deps/traffic are spans over the op's record — no per-access
 * allocation. Cheap to copy; valid until the owning array mutates.
 */
struct StepOpView {
    StepOp::Kind op_kind = StepOp::Kind::Compute;
    PlanResource resource = PlanResource::None;
    ComputeUnit unit = ComputeUnit::None;
    Seconds seconds = 0;
    Bytes bytes = 0;
    std::uint64_t fanout = 1;
    std::string_view label;
    std::string_view stage;
    /** Position of `stage` in the owning plan's stage_order, recorded
     *  when the op was added; kStageByName when unknown. */
    std::uint32_t stage_index = kStageByName;
    unsigned busy = 0;
    bool prefetch = false;
    bool shadow = false;
    bool offline = false;
    std::span<const std::uint32_t> deps;
    std::span<const TrafficShare> traffic;
};

/**
 * Op storage: one vector of fixed-size op records plus one string
 * arena for labels and stages. A record holds an op's scalar fields,
 * its label and stage as arena spans, and its deps and traffic inline
 * (the InlineVectors StepOp uses), so appending an op grows one vector
 * and the arena, and the first append reserves room for a small plan
 * in one allocation each.
 */
class StepOpArray
{
  public:
    std::size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }

    /** Proxy view of op `i`. */
    StepOpView operator[](std::size_t i) const
    {
        HILOS_ASSERT(i < size(), "step-op index out of range: ", i);
        const Record &r = ops_[i];
        StepOpView v;
        v.op_kind = r.kind;
        v.resource = r.resource;
        v.unit = r.unit;
        v.seconds = r.seconds;
        v.bytes = r.bytes;
        v.fanout = r.fanout;
        v.label = arenaView(r.label);
        v.stage = arenaView(r.stage);
        v.stage_index = r.stage_index;
        v.busy = r.busy;
        v.prefetch = (r.flags & kFlagPrefetch) != 0;
        v.shadow = (r.flags & kFlagShadow) != 0;
        v.offline = (r.flags & kFlagOffline) != 0;
        v.deps = std::span<const std::uint32_t>(r.deps.begin(),
                                                r.deps.size());
        v.traffic = std::span<const TrafficShare>(r.traffic.begin(),
                                                  r.traffic.size());
        return v;
    }

    /** Materialise op `i` back into an addressable StepOp (for tests
     *  and targeted mutation via set()). Its label and stage view this
     *  array's arena, so they are valid until the array mutates. */
    StepOp get(std::size_t i) const;

    /**
     * Overwrite op `i` with `op`, unchecked: no dependency or stage
     * validation runs (tests use this to assemble deliberately broken
     * plans for validate()). A changed label or stage is appended to
     * the arena; the abandoned bytes stay as slack. A changed stage
     * drops the recorded stage index (kStageByName).
     */
    void set(std::size_t i, const StepOp &op);

    /** Append `op` as one record whose stage sits at `stage_index` of
     *  its plan's stage_order (kStageByName for no stage). */
    void push(const StepOp &op, std::uint32_t stage_index);

    /** Overwrite only the priced annotations of op `i` (seconds, bytes,
     *  fanout, traffic-share bytes). Traffic length must match. */
    void annotate(std::size_t i, const StepOp &op);

    /** True when `op` matches op `i` on every structural field (kind,
     *  resource, unit, label, stage, busy, roles, dep sequence, traffic
     *  field sequence). Annotations are not compared. */
    bool structureMatches(std::size_t i, const StepOp &op) const;

    /** Drop all ops; keeps capacity. */
    void clear();

    // Iteration yields StepOpView proxies by value.
    class const_iterator
    {
      public:
        const_iterator(const StepOpArray *a, std::size_t i)
            : array_(a), index_(i)
        {
        }
        StepOpView operator*() const { return (*array_)[index_]; }
        const_iterator &operator++()
        {
            ++index_;
            return *this;
        }
        bool operator==(const const_iterator &o) const
        {
            return index_ == o.index_;
        }
        bool operator!=(const const_iterator &o) const
        {
            return index_ != o.index_;
        }

      private:
        const StepOpArray *array_;
        std::size_t index_;
    };
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size()); }

  private:
    /**
     * Records and arena bytes the first append reserves: room for every
     * engine's prefill plan and all but HILOS's decode plan (14 ops)
     * without a regrowth. Kept small because every op array pays it,
     * and tails hold at most a few ops.
     */
    static constexpr std::size_t kRecordReserve = 8;
    static constexpr std::size_t kArenaReserve = 256;

    static constexpr std::uint8_t kFlagPrefetch = 1u << 0;
    static constexpr std::uint8_t kFlagShadow = 1u << 1;
    static constexpr std::uint8_t kFlagOffline = 1u << 2;

    struct Span {
        std::uint32_t pos = 0;
        std::uint32_t len = 0;
    };

    /** One op: StepOp's fields with the strings as arena spans. */
    struct Record {
        StepOp::Kind kind = StepOp::Kind::Compute;
        PlanResource resource = PlanResource::None;
        ComputeUnit unit = ComputeUnit::None;
        std::uint8_t flags = 0;  ///< kFlag* role bits
        unsigned busy = 0;
        Seconds seconds = 0;
        Bytes bytes = 0;
        std::uint64_t fanout = 1;
        Span label;
        Span stage;
        std::uint32_t stage_index = kStageByName;
        InlineVector<std::uint32_t, kMaxOpDeps> deps;
        InlineVector<TrafficShare, kMaxOpShares> traffic;
    };

    static std::uint8_t packFlags(const StepOp &op)
    {
        return static_cast<std::uint8_t>(
            (op.prefetch ? kFlagPrefetch : 0u) |
            (op.shadow ? kFlagShadow : 0u) |
            (op.offline ? kFlagOffline : 0u));
    }

    std::string_view arenaView(Span s) const
    {
        return std::string_view(arena_).substr(s.pos, s.len);
    }
    Span intern(std::string_view s);

    std::vector<Record> ops_;
    std::string arena_;
};

/** Resource instances available to the replay backend. */
struct PlanResourceDecl {
    PlanResource kind = PlanResource::None;
    unsigned instances = 1;
};

/** Fractions of a reference interval each component stays busy. */
struct PlanBusyFractions {
    double gpu = 0;
    double cpu = 0;
    double dram = 0;
    double storage = 0;
    double fpga = 0;
};

/**
 * Whole-run energy specification carried by the decode plan: applyPlan
 * turns per-step busy seconds into run-level busy via
 *   run_busy = busy * steps + res.prefill_busy
 * and calls computeEnergy. The prefill term is ordinary per-op (and
 * busy-fraction) accounting folded from the Prefill-phase plans by
 * applyPrefillPlan — there is no prefill side-channel in the spec
 * itself. `power` holds the figures the engine drew from its system at
 * construction (vLLM scales its GPU and CPU power to the cluster), so
 * writing or resetting a spec copies a few numbers and nothing else.
 */
struct PlanEnergySpec {
    bool enabled = false;
    PowerSpec power;
    StorageKind kind = StorageKind::None;
    unsigned devices = 0;
    Watts fpga_power = 0;
};
static_assert(std::is_trivially_copyable_v<PlanEnergySpec>,
              "a plan rebuild resets its energy spec by plain copy");

/**
 * A complete decoding-step plan: `layers` repetitions of the layer-op
 * DAG, divided by `layer_time_divisor` (pipeline efficiency), plus the
 * serial tail ops. Declared stage names fix the StageBreakdown entry
 * order independent of op order (engines keep their historical
 * presentation); every tagged stage must be declared.
 *
 * Two build protocols share the declareStage/declareResource/addOp
 * surface:
 *
 *  - append (default): calls append fresh entries, as engines always
 *    built plans;
 *  - rebuild (between beginRebuild()/finishRebuild(), driven by
 *    PlanCache): calls *verify* each structural field against the entry
 *    already at the cursor and overwrite only the priced annotations.
 *    Any structural divergence flips an internal mismatch flag (the
 *    remaining builder calls become no-ops) and finishRebuild() returns
 *    false, telling the cache to fall back to a cold build. A verified
 *    rebuild therefore yields a plan bit-identical to the cold build it
 *    shadows without re-validating or re-allocating its topology.
 */
struct StepPlan {
    PlanPhase phase = PlanPhase::Decode;
    /**
     * Prefill chunking (Prefill phase only; Decode plans keep the
     * defaults). A prefill of `chunk_count` chunks is `chunk_count`
     * plans, chunk_index 0..chunk_count-1, each covering `chunk_tokens`
     * prompt tokens; chunk_count == 1 is the monolithic prefill and
     * reproduces the historical closed forms bit-for-bit.
     */
    std::uint64_t chunk_index = 0;
    std::uint64_t chunk_count = 1;
    std::uint64_t chunk_tokens = 0;  ///< prompt tokens this chunk covers

    std::uint64_t layers = 1;
    double layer_time_divisor = 1.0;

    bool feasible = true;
    std::string note;  ///< infeasibility reason when !feasible

    std::vector<std::string> stage_order;
    std::vector<PlanResourceDecl> resources;
    StepOpArray layer_ops;
    StepOpArray tail_ops;

    /** Per-step busy overhead as a fraction of the final step time. */
    PlanBusyFractions busy_step_fraction;
    PlanEnergySpec energy;

    /**
     * Set only by PlanCache after a cold validate() passes; lets
     * applyPlan skip static validation on verified cache hits. Plain
     * field mutation or StepOpArray::set never set it, so hand-built
     * and fuzz-assembled plans always take the validated path.
     */
    bool structure_validated = false;

    /** Register a breakdown stage; entry order = declaration order. */
    void declareStage(std::string_view name);
    /** Register replay instances for a resource kind. */
    void declareResource(PlanResource kind, unsigned instances);
    /** Declared instance count for a resource kind (default 1). */
    unsigned instancesOf(PlanResource kind) const;

    /** Append a per-layer op; validates deps; returns its id. */
    std::size_t addOp(const StepOp &op);
    /** Append a once-per-step tail op (serial, dependency-free). */
    std::size_t addTailOp(const StepOp &op);

    /** Reset to an empty plan, keeping allocated capacity. */
    void clear();

    /**
     * Enter rebuild mode: scalar fields reset to their defaults (the
     * builder re-derives them) and the builder cursors rewind to the
     * start of the cached topology. Annotations are overwritten in
     * place as the builder re-runs; see the class comment.
     */
    void beginRebuild();

    /**
     * Leave rebuild mode. True iff the builder re-traced the cached
     * topology exactly (no structural mismatch, every cursor consumed).
     */
    bool finishRebuild();

    /**
     * Statically check the assembled plan and return one diagnostic per
     * violation, each naming the offending op; an empty list means the
     * plan is well-formed. The builder methods above enforce most of
     * this incrementally, but plans can also be assembled field-by-field
     * (tests, fuzzers, future deserialisers), so the evaluator trusts
     * nothing: validate() re-checks that the dependency graph is
     * acyclic and topologically ordered with in-range references, that
     * every stage tag, resource kind, traffic field, and busy bit names
     * a declared entity, that byte/seconds annotations are finite and
     * non-negative, and that role flags are consistent. applyPlan() and
     * the fuzz oracles reject plans with diagnostics.
     */
    std::vector<std::string> validate() const;

  private:
    /**
     * Entries the first declaration reserves: room for every stage an
     * engine declares (a faulted fleet decode plan declares 10, the
     * most) and for every resource kind, so neither list regrows
     * during a build.
     */
    static constexpr std::size_t kStageReserve = 16;
    static constexpr std::size_t kResourceReserve = 8;

    enum class BuildMode : std::uint8_t { Append, Rebuild };

    BuildMode mode_ = BuildMode::Append;
    bool mismatch_ = false;
    std::size_t stage_cursor_ = 0;
    std::size_t resource_cursor_ = 0;
    std::size_t op_cursor_ = 0;
    std::size_t tail_cursor_ = 0;
};

/** Everything the analytic backend derives from a plan. */
struct PlanEvaluation {
    Seconds layer_critical_path = 0;
    /** Wall clock of one pass over the plan: the decode step for
     *  Decode-phase plans, the chunk's phase time for Prefill plans. */
    Seconds decode_step_time = 0;
    StageBreakdown breakdown;
    TrafficCounters traffic;
    ComponentBusy busy;
    /** Per layer-op finish time within one steady-state layer (0 for
     *  offline ops, which never gate the critical path). */
    std::vector<Seconds> op_finish;
};

/**
 * Analytic backend: critical path over the layer DAG, breakdown and
 * traffic sums in op-insertion order, busy time as the longest tagged
 * path per component. Deterministic and bit-stable: evaluating the
 * same plan twice yields identical doubles.
 */
PlanEvaluation evaluatePlan(const StepPlan &plan);

/**
 * evaluatePlan written into `ev`, reusing its storage: a caller that
 * evaluates plan after plan into one PlanEvaluation allocates only when
 * a plan outgrows its op_finish or breakdown (or names a stage too long
 * for a short string).
 */
void evaluatePlan(const StepPlan &plan, PlanEvaluation &ev);

/**
 * Fill the decode-step fields of `res` from a Decode-phase plan (decode
 * step, breakdown, traffic, busy), then derive total_time and — when
 * the plan's energy spec is enabled — the whole-run EnergyBreakdown as
 *   run_busy = busy * output_len + res.prefill_busy.
 * The prefill phase must already be folded into `res` (prefill_time and
 * prefill_busy) via applyPrefillPlan, and `res.effective_batch` set by
 * the engine.
 */
void applyPlan(const StepPlan &plan, const RunConfig &cfg, RunResult &res);

/**
 * Fold one Prefill-phase plan (one chunk) into `res`: the evaluated
 * phase time adds to `res.prefill_time` and the plan's busy accounting
 * (longest tagged paths plus busy_step_fraction of the chunk time) adds
 * to `res.prefill_busy`. Returns false — marking `res` infeasible with
 * the plan's note — when the plan is infeasible.
 */
bool applyPrefillPlan(const StepPlan &plan, RunResult &res);

/**
 * The whole-run EnergyBreakdown of `res` under `spec` (nothing when it
 * is disabled): computeEnergy over `res.total_time` with
 *   run_busy = busy * output_len + res.prefill_busy.
 * applyPlan ends with it; the epoch fold charges it once over the
 * blended decode busy.
 */
void applyRunEnergy(const PlanEnergySpec &spec, const RunConfig &cfg,
                    RunResult &res);

}  // namespace hilos

#endif  // HILOS_RUNTIME_STEP_PLAN_H_

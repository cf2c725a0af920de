#include "runtime/step_plan.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "runtime/plan_analyzer.h"

namespace hilos {

const char *
planResourceName(PlanResource r)
{
    switch (r) {
      case PlanResource::None:
        return "none";
      case PlanResource::HostPcie:
        return "host_pcie";
      case PlanResource::Uplink:
        return "uplink";
      case PlanResource::Gds:
        return "gds";
      case PlanResource::P2p:
        return "p2p";
      case PlanResource::Storage:
        return "storage";
      case PlanResource::DramBus:
        return "dram_bus";
      case PlanResource::IntraNode:
        return "intra_node";
      case PlanResource::InterNode:
        return "inter_node";
    }
    HILOS_PANIC("unknown plan resource");
}

const char *
computeUnitName(ComputeUnit u)
{
    switch (u) {
      case ComputeUnit::None:
        return "none";
      case ComputeUnit::Gpu:
        return "gpu";
      case ComputeUnit::Cpu:
        return "cpu";
      case ComputeUnit::Fpga:
        return "fpga";
    }
    HILOS_PANIC("unknown compute unit");
}

const char *
trafficFieldName(TrafficField f)
{
    switch (f) {
      case TrafficField::HostRead:
        return "host_read";
      case TrafficField::HostWrite:
        return "host_write";
      case TrafficField::AttnHostRead:
        return "attn_host_read";
      case TrafficField::AttnHostWrite:
        return "attn_host_write";
      case TrafficField::Internal:
        return "internal";
      case TrafficField::StorageWrite:
        return "storage_write";
    }
    HILOS_PANIC("unknown traffic field");
}

const char *
planPhaseName(PlanPhase p)
{
    switch (p) {
      case PlanPhase::Decode:
        return "decode";
      case PlanPhase::Prefill:
        return "prefill";
    }
    HILOS_PANIC("unknown plan phase");
}

std::pair<std::uint64_t, std::uint64_t>
prefillChunkRange(std::uint64_t context, std::uint64_t index,
                  std::uint64_t count)
{
    HILOS_ASSERT(count >= 1, "prefill needs at least one chunk");
    HILOS_ASSERT(index < count, "prefill chunk index out of range");
    // index * context cannot overflow for any realistic prompt/chunking
    // (both well below 2^32).
    return {index * context / count, (index + 1) * context / count};
}

void
detail::inlineCapacityExceeded(std::size_t capacity)
{
    HILOS_PANIC("step-op inline array of ", capacity, " entries is full");
}

void
detail::dependencyIdOverflow(std::size_t id)
{
    HILOS_PANIC("step-op dependency id overflow: ", id);
}

// --- StepOpArray -------------------------------------------------------

StepOpArray::Span
StepOpArray::intern(std::string_view s)
{
    HILOS_ASSERT(arena_.size() + s.size() <= UINT32_MAX,
                 "step-op string arena overflow");
    const Span out{static_cast<std::uint32_t>(arena_.size()),
                   static_cast<std::uint32_t>(s.size())};
    arena_.append(s);
    return out;
}

StepOp
StepOpArray::get(std::size_t i) const
{
    HILOS_ASSERT(i < size(), "step-op index out of range: ", i);
    const Record &r = ops_[i];
    StepOp op;
    op.op_kind = r.kind;
    op.resource = r.resource;
    op.unit = r.unit;
    op.seconds = r.seconds;
    op.bytes = r.bytes;
    op.fanout = r.fanout;
    op.label = arenaView(r.label);
    op.stage = arenaView(r.stage);
    op.busy = r.busy;
    op.prefetch = (r.flags & kFlagPrefetch) != 0;
    op.shadow = (r.flags & kFlagShadow) != 0;
    op.offline = (r.flags & kFlagOffline) != 0;
    op.traffic = r.traffic;
    op.deps = r.deps;
    return op;
}

void
StepOpArray::push(const StepOp &op, std::uint32_t stage_index)
{
    if (ops_.capacity() == 0) {
        ops_.reserve(kRecordReserve);
        arena_.reserve(kArenaReserve);
    }
    Record &r = ops_.emplace_back();
    r.kind = op.op_kind;
    r.resource = op.resource;
    r.unit = op.unit;
    r.flags = packFlags(op);
    r.busy = op.busy;
    r.seconds = op.seconds;
    r.bytes = op.bytes;
    r.fanout = op.fanout;
    r.label = intern(op.label);
    r.stage = intern(op.stage);
    r.stage_index = stage_index;
    r.deps = op.deps;
    r.traffic = op.traffic;
}

void
StepOpArray::set(std::size_t i, const StepOp &op)
{
    HILOS_ASSERT(i < size(), "step-op index out of range: ", i);
    Record &r = ops_[i];
    r.kind = op.op_kind;
    r.resource = op.resource;
    r.unit = op.unit;
    r.flags = packFlags(op);
    r.busy = op.busy;
    r.seconds = op.seconds;
    r.bytes = op.bytes;
    r.fanout = op.fanout;
    const bool new_label = arenaView(r.label) != op.label;
    const bool new_stage = arenaView(r.stage) != op.stage;
    if (new_label || new_stage) {
        // An op read back with get() views this arena, and interning
        // can move it: copy both strings out before appending either.
        const std::string label(op.label);
        const std::string stage(op.stage);
        if (new_label)
            r.label = intern(label);
        if (new_stage) {
            r.stage = intern(stage);
            r.stage_index = kStageByName;
        }
    }
    r.deps = op.deps;
    r.traffic = op.traffic;
}

void
StepOpArray::annotate(std::size_t i, const StepOp &op)
{
    HILOS_ASSERT(i < size(), "step-op index out of range: ", i);
    Record &r = ops_[i];
    HILOS_ASSERT(r.traffic.size() == op.traffic.size(),
                 "annotate with mismatched traffic shape: ", op.label);
    r.seconds = op.seconds;
    r.bytes = op.bytes;
    r.fanout = op.fanout;
    for (std::size_t k = 0; k < op.traffic.size(); ++k)
        r.traffic[k].bytes = op.traffic[k].bytes;
}

bool
StepOpArray::structureMatches(std::size_t i, const StepOp &op) const
{
    if (i >= size())
        return false;
    const Record &r = ops_[i];
    if (r.kind != op.op_kind || r.resource != op.resource ||
        r.unit != op.unit || r.flags != packFlags(op) || r.busy != op.busy)
        return false;
    if (arenaView(r.label) != op.label || arenaView(r.stage) != op.stage)
        return false;
    if (r.deps.size() != op.deps.size() ||
        r.traffic.size() != op.traffic.size())
        return false;
    for (std::size_t k = 0; k < op.deps.size(); ++k)
        if (r.deps[k] != op.deps[k])
            return false;
    for (std::size_t k = 0; k < op.traffic.size(); ++k)
        if (r.traffic[k].field != op.traffic[k].field)
            return false;
    return true;
}

void
StepOpArray::clear()
{
    ops_.clear();
    arena_.clear();
}

// --- StepPlan builder --------------------------------------------------

void
StepPlan::declareStage(std::string_view name)
{
    if (mode_ == BuildMode::Rebuild) {
        if (mismatch_)
            return;
        if (stage_cursor_ >= stage_order.size() ||
            stage_order[stage_cursor_] != name) {
            mismatch_ = true;
            return;
        }
        stage_cursor_++;
        return;
    }
    for (const std::string &s : stage_order)
        HILOS_ASSERT(s != name, "stage declared twice: ", name);
    if (stage_order.capacity() == 0)
        stage_order.reserve(kStageReserve);
    stage_order.emplace_back(name);
}

void
StepPlan::declareResource(PlanResource kind, unsigned instances)
{
    HILOS_ASSERT(instances >= 1, "resource needs >= 1 instance");
    if (mode_ == BuildMode::Rebuild) {
        if (mismatch_)
            return;
        if (resource_cursor_ >= resources.size() ||
            resources[resource_cursor_].kind != kind) {
            mismatch_ = true;
            return;
        }
        resources[resource_cursor_].instances = instances;
        resource_cursor_++;
        return;
    }
    for (const PlanResourceDecl &d : resources)
        HILOS_ASSERT(d.kind != kind, "resource declared twice: ",
                     planResourceName(kind));
    if (resources.capacity() == 0)
        resources.reserve(kResourceReserve);
    resources.push_back(PlanResourceDecl{kind, instances});
}

unsigned
StepPlan::instancesOf(PlanResource kind) const
{
    for (const PlanResourceDecl &d : resources)
        if (d.kind == kind)
            return d.instances;
    return 1;
}

namespace {

void
validateOp(const StepOp &op, std::size_t id)
{
    HILOS_ASSERT(std::isfinite(op.seconds) && op.seconds >= 0.0,
                 "op duration must be finite and non-negative: ", op.label);
    HILOS_ASSERT(op.fanout >= 1, "op fanout must be >= 1: ", op.label);
    HILOS_ASSERT(!(op.shadow && op.offline),
                 "an op cannot be both shadow and offline: ", op.label);
    HILOS_ASSERT(!op.offline || op.deps.empty(),
                 "offline ops are dependency-free: ", op.label);
    HILOS_ASSERT(op.op_kind != StepOp::Kind::Transfer ||
                     op.resource != PlanResource::None,
                 "transfer op needs a resource: ", op.label);
    for (const TrafficShare &s : op.traffic)
        HILOS_ASSERT(std::isfinite(s.bytes) && s.bytes >= 0.0,
                     "traffic share must be finite and non-negative: ",
                     op.label);
    for (const std::uint32_t d : op.deps)
        HILOS_ASSERT(d < id, "op deps must reference earlier ops: ",
                     op.label);
}

/** Position of `name` in the plan's stage_order (its first entry);
 *  stage_order.size() when undeclared. */
std::size_t
stagePosition(const StepPlan &plan, std::string_view name)
{
    std::size_t s = 0;
    while (s < plan.stage_order.size() && plan.stage_order[s] != name)
        ++s;
    return s;
}

/**
 * The stage index an appended op records: its stage's position, found
 * by the scan that asserts the stage is declared (kStageByName for an
 * untagged op).
 */
std::uint32_t
declaredStageIndex(const StepPlan &plan, const StepOp &op)
{
    if (op.stage.empty())
        return kStageByName;
    const std::size_t s = stagePosition(plan, op.stage);
    HILOS_ASSERT(s < plan.stage_order.size(), "op stage not declared: ",
                 op.stage);
    return static_cast<std::uint32_t>(s);
}

}  // namespace

std::size_t
StepPlan::addOp(const StepOp &op)
{
    if (mode_ == BuildMode::Rebuild) {
        const std::size_t id = op_cursor_++;
        if (mismatch_)
            return id;
        validateOp(op, id);
        HILOS_ASSERT(std::isfinite(op.bytes) && op.bytes >= 0.0,
                     "op payload must be finite and non-negative: ",
                     op.label);
        if (!layer_ops.structureMatches(id, op)) {
            mismatch_ = true;
            return id;
        }
        layer_ops.annotate(id, op);
        return id;
    }
    const std::size_t id = layer_ops.size();
    validateOp(op, id);
    layer_ops.push(op, declaredStageIndex(*this, op));
    return id;
}

std::size_t
StepPlan::addTailOp(const StepOp &op)
{
    HILOS_ASSERT(op.deps.empty(), "tail ops are a serial chain: ",
                 op.label);
    validateOp(op, 0);
    HILOS_ASSERT(!op.prefetch && !op.shadow && !op.offline,
                 "tail ops carry no role flags: ", op.label);
    if (mode_ == BuildMode::Rebuild) {
        const std::size_t id = tail_cursor_++;
        if (mismatch_)
            return id;
        HILOS_ASSERT(std::isfinite(op.bytes) && op.bytes >= 0.0,
                     "op payload must be finite and non-negative: ",
                     op.label);
        if (!tail_ops.structureMatches(id, op)) {
            mismatch_ = true;
            return id;
        }
        tail_ops.annotate(id, op);
        return id;
    }
    const std::size_t id = tail_ops.size();
    tail_ops.push(op, declaredStageIndex(*this, op));
    return id;
}

void
StepPlan::clear()
{
    phase = PlanPhase::Decode;
    chunk_index = 0;
    chunk_count = 1;
    chunk_tokens = 0;
    layers = 1;
    layer_time_divisor = 1.0;
    feasible = true;
    note.clear();
    stage_order.clear();
    resources.clear();
    layer_ops.clear();
    tail_ops.clear();
    busy_step_fraction = PlanBusyFractions{};
    energy = PlanEnergySpec{};
    structure_validated = false;
    mode_ = BuildMode::Append;
    mismatch_ = false;
    stage_cursor_ = resource_cursor_ = op_cursor_ = tail_cursor_ = 0;
}

void
StepPlan::beginRebuild()
{
    // Scalar state re-derives from the builder; reset to construction
    // defaults so stale values from the previous grid point can never
    // leak into a rebuilt plan.
    phase = PlanPhase::Decode;
    chunk_index = 0;
    chunk_count = 1;
    chunk_tokens = 0;
    layers = 1;
    layer_time_divisor = 1.0;
    feasible = true;
    note.clear();
    busy_step_fraction = PlanBusyFractions{};
    energy = PlanEnergySpec{};
    structure_validated = false;
    mode_ = BuildMode::Rebuild;
    mismatch_ = false;
    stage_cursor_ = resource_cursor_ = op_cursor_ = tail_cursor_ = 0;
}

bool
StepPlan::finishRebuild()
{
    HILOS_ASSERT(mode_ == BuildMode::Rebuild,
                 "finishRebuild without beginRebuild");
    const bool ok = !mismatch_ && stage_cursor_ == stage_order.size() &&
                    resource_cursor_ == resources.size() &&
                    op_cursor_ == layer_ops.size() &&
                    tail_cursor_ == tail_ops.size();
    mode_ = BuildMode::Append;
    mismatch_ = false;
    return ok;
}

namespace {

/** "layer op #3 'kv_fetch'" — the prefix every diagnostic starts with. */
std::string
opRef(const char *kind, std::size_t id, std::string_view label)
{
    std::string s = std::string(kind) + " op #" + std::to_string(id);
    if (!label.empty())
        s += " '" + std::string(label) + "'";
    return s;
}

constexpr unsigned kBusyAll =
    kBusyGpu | kBusyCpu | kBusyDram | kBusyStorage | kBusyFpga;

/** Shared per-op checks; dependency checks differ per op class. */
void
validateOpStatic(const StepPlan &plan, const char *kind, std::size_t id,
                 const StepOpView &op, std::vector<std::string> &out)
{
    // The op reference is built only for a diagnostic: a valid plan
    // validates without allocating per op.
    const auto ref = [&] { return opRef(kind, id, op.label); };
    if (!(std::isfinite(op.seconds) && op.seconds >= Seconds(0.0)))
        out.push_back(ref() + ": duration " + std::to_string(op.seconds) +
                      "s is not finite and non-negative");
    if (!(std::isfinite(op.bytes) && op.bytes >= Bytes(0.0)))
        out.push_back(ref() + ": payload " + std::to_string(op.bytes) +
                      " bytes is not finite and non-negative");
    if (op.fanout < 1)
        out.push_back(ref() + ": fanout must be >= 1");
    const auto res_raw = static_cast<unsigned>(op.resource);
    if (res_raw > static_cast<unsigned>(PlanResource::InterNode))
        out.push_back(ref() + ": resource index " + std::to_string(res_raw) +
                      " names no known resource kind");
    const auto unit_raw = static_cast<unsigned>(op.unit);
    if (unit_raw > static_cast<unsigned>(ComputeUnit::Fpga))
        out.push_back(ref() + ": compute-unit index " +
                      std::to_string(unit_raw) + " names no known unit");
    if (op.op_kind == StepOp::Kind::Transfer &&
        op.resource == PlanResource::None)
        out.push_back(ref() + ": transfer op occupies no resource");
    if (op.op_kind == StepOp::Kind::Compute &&
        op.unit == ComputeUnit::None)
        out.push_back(ref() + ": compute op runs on no unit");
    if ((op.busy & ~kBusyAll) != 0)
        out.push_back(ref() + ": busy mask " + std::to_string(op.busy) +
                      " sets bits beyond the declared kBusy* tags");
    if (!op.stage.empty() &&
        stagePosition(plan, op.stage) == plan.stage_order.size())
        out.push_back(ref() + ": stage '" + std::string(op.stage) +
                      "' is not declared");
    for (const TrafficShare &s : op.traffic) {
        if (static_cast<unsigned>(s.field) >
            static_cast<unsigned>(TrafficField::StorageWrite))
            out.push_back(ref() + ": traffic share names no known field");
        if (!(std::isfinite(s.bytes) && s.bytes >= Bytes(0.0)))
            out.push_back(ref() + ": traffic share of " +
                          std::to_string(s.bytes) +
                          " bytes is not finite and non-negative");
    }
    if (op.shadow && op.offline)
        out.push_back(ref() + ": an op cannot be both shadow and offline");
    if (op.offline && !op.deps.empty())
        out.push_back(ref() + ": offline ops are dependency-free");
}

/**
 * Cycle detection over the in-range edges of `layer_ops` (Kahn's
 * algorithm): every op left unprocessed sits on or downstream of a
 * dependency cycle and gets a diagnostic in `out`.
 */
void
appendCycleDiagnostics(const StepOpArray &layer_ops,
                       std::vector<std::string> &out)
{
    // Op d's dependents sit in one flat array at [first[d], first[d+1]).
    const std::size_t n = layer_ops.size();
    std::vector<std::uint32_t> indegree(n, 0);
    std::vector<std::uint32_t> first(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (const std::uint32_t d : layer_ops[i].deps)
            if (d < n) {
                indegree[i]++;  // a self-loop never becomes ready
                first[d] += d != i ? 1 : 0;
            }
    for (std::size_t d = 1; d <= n; ++d)
        first[d] += first[d - 1];  // first[d] = end of d's range
    std::vector<std::uint32_t> dependents(first[n]);
    for (std::size_t i = 0; i < n; ++i)
        for (const std::uint32_t d : layer_ops[i].deps)
            if (d < n && d != i)
                dependents[--first[d]] = static_cast<std::uint32_t>(i);
    std::vector<std::uint32_t> ready;
    ready.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        if (indegree[i] == 0)
            ready.push_back(static_cast<std::uint32_t>(i));
    std::size_t processed = 0;
    while (!ready.empty()) {
        const std::uint32_t i = ready.back();
        ready.pop_back();
        processed++;
        for (std::uint32_t k = first[i]; k < first[i + 1]; ++k)
            if (--indegree[dependents[k]] == 0)
                ready.push_back(dependents[k]);
    }
    if (processed < n)
        for (std::size_t i = 0; i < n; ++i)
            if (indegree[i] != 0)
                out.push_back(opRef("layer", i, layer_ops[i].label) +
                              ": sits on a dependency cycle");
}

}  // namespace

std::vector<std::string>
StepPlan::validate() const
{
    std::vector<std::string> out;
    if (static_cast<unsigned>(phase) >
        static_cast<unsigned>(PlanPhase::Prefill))
        out.push_back("phase index " +
                      std::to_string(static_cast<unsigned>(phase)) +
                      " names no known plan phase");
    if (chunk_count < 1)
        out.push_back("plan declares zero prefill chunks");
    if (chunk_count >= 1 && chunk_index >= chunk_count)
        out.push_back("chunk_index " + std::to_string(chunk_index) +
                      " is out of range for chunk_count " +
                      std::to_string(chunk_count));
    if (phase == PlanPhase::Decode &&
        (chunk_index != 0 || chunk_count != 1 || chunk_tokens != 0))
        out.push_back("decode plans carry no prefill chunking");
    if (layers < 1)
        out.push_back("plan declares zero layers");
    if (!(std::isfinite(layer_time_divisor) && layer_time_divisor > 0.0))
        out.push_back("layer_time_divisor must be finite and positive");
    for (std::size_t i = 0; i < stage_order.size(); ++i)
        for (std::size_t j = i + 1; j < stage_order.size(); ++j)
            if (stage_order[i] == stage_order[j])
                out.push_back("stage '" + stage_order[i] +
                              "' declared twice");
    for (std::size_t i = 0; i < resources.size(); ++i) {
        if (resources[i].instances < 1)
            out.push_back(std::string("resource ") +
                          planResourceName(resources[i].kind) +
                          " declares zero instances");
        for (std::size_t j = i + 1; j < resources.size(); ++j)
            if (resources[i].kind == resources[j].kind)
                out.push_back(std::string("resource ") +
                              planResourceName(resources[i].kind) +
                              " declared twice");
    }

    bool backward_deps = true;
    for (std::size_t i = 0; i < layer_ops.size(); ++i) {
        const StepOpView op = layer_ops[i];
        validateOpStatic(*this, "layer", i, op, out);
        for (const std::size_t d : op.deps) {
            if (d >= layer_ops.size())
                out.push_back(opRef("layer", i, op.label) + ": dep #" +
                              std::to_string(d) +
                              " references no op in the plan");
            else if (d >= i)
                out.push_back(opRef("layer", i, op.label) + ": dep #" +
                              std::to_string(d) +
                              " references a later op (the evaluator "
                              "requires topological order)");
            backward_deps = backward_deps && d < i;
        }
    }

    // A cycle needs an edge that does not point backward, so a plan in
    // topological order skips the cycle pass and its working arrays.
    if (!backward_deps)
        appendCycleDiagnostics(layer_ops, out);

    for (std::size_t i = 0; i < tail_ops.size(); ++i) {
        const StepOpView op = tail_ops[i];
        validateOpStatic(*this, "tail", i, op, out);
        if (!op.deps.empty())
            out.push_back(opRef("tail", i, op.label) +
                          ": tail ops form a serial chain and carry no "
                          "dependency edges");
        if (op.prefetch || op.shadow || op.offline)
            out.push_back(opRef("tail", i, op.label) +
                          ": tail ops carry no role flags");
    }
    return out;
}

PlanEvaluation
evaluatePlan(const StepPlan &plan)
{
    PlanEvaluation ev;
    evaluatePlan(plan, ev);
    return ev;
}

void
evaluatePlan(const StepPlan &plan, PlanEvaluation &ev)
{
    HILOS_ASSERT(plan.layers >= 1, "plan needs >= 1 layer");
    HILOS_ASSERT(plan.layer_time_divisor > 0.0,
                 "layer_time_divisor must be positive");
    const double L = static_cast<double>(plan.layers);

    const std::size_t n = plan.layer_ops.size();
    const std::size_t n_stages = plan.stage_order.size();

    // The evaluator runs twice per grid point on the cached sweep hot
    // path (once per phase), so it fuses every consumer — critical
    // path, per-stage sums, traffic totals, and all five busy
    // components — into one traversal that reads each op's record
    // exactly once. Every accumulator still sees the historical
    // multi-pass addition/max sequence (per stage, per traffic field,
    // and per busy lane the values arrive in op-insertion order), so
    // the fusion is bit-identical.
    //
    // Stage sums index by declared position, which assigns an op to the
    // first entry matching its name. addOp records that position in the
    // op, so only an op StepOpArray::set rewrote is looked up by name. A
    // plan declaring the same stage twice (validate() rejects it, but
    // evaluatePlan must not depend on that) takes the per-stage scan
    // below instead, where a twice-declared name still collects the op
    // into both entries.
    bool stage_dup = false;
    for (std::size_t i = 0; i + 1 < n_stages && !stage_dup; ++i)
        for (std::size_t j = i + 1; j < n_stages; ++j)
            if (plan.stage_order[i] == plan.stage_order[j]) {
                stage_dup = true;
                break;
            }
    // == n_stages when undeclared: contributes nowhere.
    const auto stageIndex = [&](const StepOpView &op) -> std::size_t {
        if (op.stage_index != kStageByName)
            return op.stage_index;
        return stagePosition(plan, op.stage);
    };

    constexpr std::size_t kLanes = 5;
    constexpr unsigned kLaneMask[kLanes] = {kBusyGpu, kBusyCpu, kBusyDram,
                                            kBusyStorage, kBusyFpga};
    constexpr std::size_t kFields = 6;

    // Per-stage sums and per-op busy-lane paths live in one scratch
    // buffer this thread reuses across calls: they never leave the
    // evaluation, so no call allocates them afresh.
    thread_local std::vector<Seconds> scratch;
    scratch.assign(2 * n_stages + n * kLanes, 0.0);
    Seconds *const stage_layer = scratch.data();
    Seconds *const stage_tail = stage_layer + n_stages;
    Seconds *const path = stage_tail + n_stages;

    ev.op_finish.assign(n, 0.0);
    double layer_bytes[kFields] = {0, 0, 0, 0, 0, 0};
    double tail_bytes[kFields] = {0, 0, 0, 0, 0, 0};
    Seconds lane_best[kLanes] = {0.0, 0.0, 0.0, 0.0, 0.0};

    for (std::size_t i = 0; i < n; ++i) {
        const StepOpView op = plan.layer_ops[i];

        // Critical path over the layer DAG: finish = max(dep finishes)
        // + seconds, so serial chains accumulate left-to-right and
        // parallel branches take an exact max — reproducing the
        // engines' historical max/sum compositions bit-for-bit.
        // Offline ops never gate it (their finish stays 0).
        if (!op.offline) {
            Seconds ready = 0.0;
            for (const std::uint32_t d : op.deps)
                ready = std::max(ready, ev.op_finish[d]);
            ev.op_finish[i] = ready + op.seconds;
        }

        // Stage and traffic accounting skip shadow ops.
        if (!op.shadow) {
            if (!stage_dup && !op.stage.empty()) {
                const std::size_t s = stageIndex(op);
                if (s < n_stages)
                    stage_layer[s] += op.seconds;
            }
            for (const TrafficShare &t : op.traffic)
                layer_bytes[static_cast<std::size_t>(t.field)] +=
                    t.bytes;
        }

        // Busy time per component: the longest tagged path through the
        // DAG (untagged ops on a path pass through without
        // contributing), so a serial tagged chain sums and parallel
        // tagged branches max — the same composition the engines
        // hand-rolled.
        Seconds pre[kLanes] = {0.0, 0.0, 0.0, 0.0, 0.0};
        for (const std::uint32_t d : op.deps) {
            const Seconds *dp = &path[d * kLanes];
            for (std::size_t c = 0; c < kLanes; ++c)
                pre[c] = std::max(pre[c], dp[c]);
        }
        Seconds *pp = &path[i * kLanes];
        for (std::size_t c = 0; c < kLanes; ++c) {
            const bool counts =
                !op.shadow && (op.busy & kLaneMask[c]) != 0;
            pp[c] = counts ? pre[c] + op.seconds : pre[c];
            lane_best[c] = std::max(lane_best[c], pp[c]);
        }
    }
    ev.layer_critical_path = 0.0;
    for (const Seconds t : ev.op_finish)
        ev.layer_critical_path = std::max(ev.layer_critical_path, t);

    Seconds step =
        L * ev.layer_critical_path / plan.layer_time_divisor;
    for (const StepOpView op : plan.tail_ops) {
        step += op.seconds;
        if (!stage_dup && !op.stage.empty()) {
            const std::size_t s = stageIndex(op);
            if (s < n_stages)
                stage_tail[s] += op.seconds;
        }
        for (const TrafficShare &t : op.traffic)
            tail_bytes[static_cast<std::size_t>(t.field)] += t.bytes;
    }
    ev.decode_step_time = step;

    // Stage breakdown: per-layer sums accumulated in op-insertion order
    // (the order engines historically summed their terms), scaled by
    // the layer count, landing in declared-stage order.
    if (stage_dup) {
        ev.breakdown.clear();
        ev.breakdown.reserve(n_stages);
        for (const std::string &name : plan.stage_order) {
            Seconds lsum = 0.0;
            Seconds tsum = 0.0;
            for (const StepOpView op : plan.layer_ops) {
                if (op.shadow || op.stage.empty())
                    continue;
                if (op.stage == name)
                    lsum += op.seconds;
            }
            for (const StepOpView op : plan.tail_ops) {
                if (!op.stage.empty() && op.stage == name)
                    tsum += op.seconds;
            }
            ev.breakdown.add(name, L * lsum + tsum);
        }
    } else {
        for (std::size_t s = 0; s < n_stages; ++s)
            stage_layer[s] = L * stage_layer[s] + stage_tail[s];
        ev.breakdown.assign(plan.stage_order, {stage_layer, n_stages});
    }

    // Traffic counters: per-field sums in op-insertion order, per-layer
    // shares scaled by the layer count, tail shares once.
    const auto field_total = [&](TrafficField f) {
        const auto i = static_cast<std::size_t>(f);
        return L * layer_bytes[i] + tail_bytes[i];
    };
    ev.traffic.host_read_bytes = field_total(TrafficField::HostRead);
    ev.traffic.host_write_bytes = field_total(TrafficField::HostWrite);
    ev.traffic.attn_host_read_bytes =
        field_total(TrafficField::AttnHostRead);
    ev.traffic.attn_host_write_bytes =
        field_total(TrafficField::AttnHostWrite);
    ev.traffic.internal_bytes = field_total(TrafficField::Internal);
    ev.traffic.storage_write_bytes =
        field_total(TrafficField::StorageWrite);

    // The per-step busy fraction adds orchestration overhead
    // proportional to the final step time.
    const struct {
        std::size_t lane;
        Seconds ComponentBusy::*comp;
        double PlanBusyFractions::*frac;
    } kComponents[] = {
        {0, &ComponentBusy::gpu, &PlanBusyFractions::gpu},
        {1, &ComponentBusy::cpu, &PlanBusyFractions::cpu},
        {2, &ComponentBusy::dram, &PlanBusyFractions::dram},
        {3, &ComponentBusy::storage, &PlanBusyFractions::storage},
        {4, &ComponentBusy::fpga, &PlanBusyFractions::fpga},
    };
    for (const auto &c : kComponents)
        ev.busy.*(c.comp) = L * lane_best[c.lane] +
                            plan.busy_step_fraction.*(c.frac) * step;
}

namespace {

/**
 * The evaluation applyPlan and applyPrefillPlan fold from, reused per
 * thread: a warm fold allocates only the breakdown applyPlan moves into
 * its RunResult.
 */
PlanEvaluation &
foldEvaluation()
{
    thread_local PlanEvaluation ev;
    return ev;
}

}  // namespace

void
applyPlan(const StepPlan &plan, const RunConfig &cfg, RunResult &res)
{
    HILOS_ASSERT(plan.feasible, "applyPlan on an infeasible plan");
    HILOS_ASSERT(plan.phase == PlanPhase::Decode,
                 "applyPlan consumes Decode-phase plans (fold Prefill "
                 "plans with applyPrefillPlan)");
    if (!plan.structure_validated) {
        const std::vector<std::string> problems = plan.validate();
        HILOS_ASSERT(problems.empty(), "invalid step plan: ",
                     problems.empty() ? std::string() : problems.front());
    }
    PlanEvaluation &ev = foldEvaluation();
    evaluatePlan(plan, ev);
    if (analyzePlansEnabled()) {
        const PlanAnalysis analysis = analyzePlan(plan, ev);
        HILOS_ASSERT(!hasUnwaivedErrors(analysis),
                     "plan analysis (HILOS_ANALYZE_PLANS) ",
                     firstUnwaivedError(analysis));
    }
    res.decode_step_time = ev.decode_step_time;
    res.breakdown = std::move(ev.breakdown);
    res.traffic = ev.traffic;
    res.busy = ev.busy;
    res.total_time = res.prefill_time +
                     static_cast<double>(cfg.output_len) *
                         res.decode_step_time;
    applyRunEnergy(plan.energy, cfg, res);
}

void
applyRunEnergy(const PlanEnergySpec &e, const RunConfig &cfg,
               RunResult &res)
{
    if (!e.enabled)
        return;
    // Run-level busy = decode busy integrated over the generated tokens
    // plus the prefill phase's own plan-derived busy (already folded
    // into res.prefill_busy by applyPrefillPlan).
    const double steps = static_cast<double>(cfg.output_len);
    ComponentBusy rb;
    rb.gpu = res.busy.gpu * steps + res.prefill_busy.gpu;
    rb.cpu = res.busy.cpu * steps + res.prefill_busy.cpu;
    rb.dram = res.busy.dram * steps + res.prefill_busy.dram;
    rb.storage = res.busy.storage * steps + res.prefill_busy.storage;
    rb.fpga = res.busy.fpga * steps + res.prefill_busy.fpga;
    res.energy = computeEnergy(e.power, e.kind, e.devices, res.total_time,
                               rb, e.fpga_power);
}

bool
applyPrefillPlan(const StepPlan &plan, RunResult &res)
{
    HILOS_ASSERT(plan.phase == PlanPhase::Prefill,
                 "applyPrefillPlan consumes Prefill-phase plans");
    if (!plan.feasible) {
        res.feasible = false;
        res.note = plan.note;
        return false;
    }
    if (!plan.structure_validated) {
        const std::vector<std::string> problems = plan.validate();
        HILOS_ASSERT(problems.empty(), "invalid prefill plan: ",
                     problems.empty() ? std::string() : problems.front());
    }
    PlanEvaluation &ev = foldEvaluation();
    evaluatePlan(plan, ev);
    if (analyzePlansEnabled()) {
        const PlanAnalysis analysis = analyzePlan(plan, ev);
        HILOS_ASSERT(!hasUnwaivedErrors(analysis),
                     "prefill plan analysis (HILOS_ANALYZE_PLANS) ",
                     firstUnwaivedError(analysis));
    }
    res.prefill_time += ev.decode_step_time;
    res.prefill_busy.gpu += ev.busy.gpu;
    res.prefill_busy.cpu += ev.busy.cpu;
    res.prefill_busy.dram += ev.busy.dram;
    res.prefill_busy.storage += ev.busy.storage;
    res.prefill_busy.fpga += ev.busy.fpga;
    return true;
}

}  // namespace hilos

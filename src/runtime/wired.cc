#include "runtime/wired.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "obs/obs.h"
#include "runtime/executor.h"
#include "support/logging.h"

namespace astra {

UnitProducers
unit_producers(const std::vector<PlanStep>& units, const Graph& graph)
{
    const int num_units = static_cast<int>(units.size());
    // Producer unit of every covered node.
    std::vector<int32_t> producer(static_cast<size_t>(graph.size()), -1);
    for (int32_t u = 0; u < num_units; ++u)
        for (NodeId id : units[static_cast<size_t>(u)].nodes)
            producer[static_cast<size_t>(id)] = u;

    UnitProducers out;
    out.begin.resize(static_cast<size_t>(num_units) + 1);
    out.units.reserve(static_cast<size_t>(num_units) * 2);
    // The last unit each producer was listed for, to list it once.
    std::vector<int32_t> listed_for(static_cast<size_t>(num_units), -1);
    for (int32_t u = 0; u < num_units; ++u) {
        out.begin[static_cast<size_t>(u)] =
            static_cast<int32_t>(out.units.size());
        for (NodeId id : units[static_cast<size_t>(u)].nodes)
            for (NodeId in : graph.node(id).inputs) {
                const int32_t p = producer[static_cast<size_t>(in)];
                // Skip graph sources and internal edges of a fused unit.
                if (p >= 0 && p != u &&
                    listed_for[static_cast<size_t>(p)] != u) {
                    listed_for[static_cast<size_t>(p)] = u;
                    out.units.push_back(p);
                }
            }
    }
    out.begin[static_cast<size_t>(num_units)] =
        static_cast<int32_t>(out.units.size());
    return out;
}

WiredProgram
compile_steps(const std::vector<UnitStep>& steps,
              const UnitProducers& producers, int num_streams,
              bool profiling)
{
    const int num_steps = static_cast<int>(steps.size());
    WiredProgram prog;
    prog.num_streams = num_streams;
    prog.cmds.reserve(static_cast<size_t>(num_steps) * 2);
    prog.step_begin.assign(static_cast<size_t>(num_steps) + 1, 0);
    prog.is_barrier.assign(static_cast<size_t>(num_steps), 0);
    prog.keys.resize(static_cast<size_t>(num_steps));

    // The step launching each unit.
    const size_t num_units = producers.begin.size() - 1;
    std::vector<int32_t> step_of(num_units, -1);
    for (int i = 0; i < num_steps; ++i) {
        const int32_t unit = steps[static_cast<size_t>(i)].unit;
        if (unit >= 0)
            step_of[static_cast<size_t>(unit)] = i;
    }
    const auto producers_of = [&](const UnitStep& step) {
        const auto u = static_cast<size_t>(step.unit);
        return std::pair{producers.units.begin() + producers.begin[u],
                         producers.units.begin() + producers.begin[u + 1]};
    };

    // Which steps need a completion event (cross-stream consumers).
    std::vector<bool> needs_event(static_cast<size_t>(num_steps), false);
    for (int i = 0; i < num_steps; ++i) {
        const UnitStep& step = steps[static_cast<size_t>(i)];
        if (step.unit < 0)
            continue;
        const auto [first, last] = producers_of(step);
        for (auto it = first; it != last; ++it) {
            const int32_t p = step_of[static_cast<size_t>(*it)];
            ASTRA_ASSERT(p >= 0 && p < i, "plan order violates dependencies: "
                         "step ", i, " reads unit ", *it,
                         " launched by step ", p);
            if (steps[static_cast<size_t>(p)].stream != step.stream)
                needs_event[static_cast<size_t>(p)] = true;
        }
    }

    // Emit the command stream — the exact sequence the historical
    // enqueuer issued, so playing it is bit-identical to dispatching
    // the plan step by step.
    std::vector<int32_t> done_slot(static_cast<size_t>(num_steps), -1);
    std::vector<std::pair<int32_t, int32_t>> barrier_range(
        static_cast<size_t>(num_steps), {0, 0});
    int current_barrier = -1;
    for (int i = 0; i < num_steps; ++i) {
        const UnitStep& step = steps[static_cast<size_t>(i)];
        prog.step_begin[static_cast<size_t>(i)] =
            static_cast<int32_t>(prog.cmds.size());

        if (step.unit < 0) {
            // Every stream records its arrival, then waits on everyone
            // else's arrival: a full cross-stream rendezvous.
            prog.is_barrier[static_cast<size_t>(i)] = 1;
            const int32_t b0 =
                static_cast<int32_t>(prog.barrier_slots.size());
            for (int s = 0; s < num_streams; ++s) {
                const int32_t slot = prog.num_events++;
                prog.barrier_slots.push_back(slot);
                prog.cmds.push_back({WiredOp::Record, s, slot});
            }
            for (int s = 0; s < num_streams; ++s)
                for (int t = 0; t < num_streams; ++t)
                    if (t != s)
                        prog.cmds.push_back(
                            {WiredOp::Wait, s,
                             prog.barrier_slots[static_cast<size_t>(b0 + t)]});
            barrier_range[static_cast<size_t>(i)] = {b0, b0 + num_streams};
            current_barrier = i;
            continue;
        }

        ASTRA_ASSERT(step.stream >= 0 && step.stream < num_streams,
                     "step ", i, " uses stream ", step.stream,
                     " but plan has ", num_streams);
        prog.keys[static_cast<size_t>(i)] = step.key;

        // Cross-stream waits for this step's external inputs, one per
        // producer in first-read order.
        const auto [first, last] = producers_of(step);
        for (auto it = first; it != last; ++it) {
            const int32_t p = step_of[static_cast<size_t>(*it)];
            if (steps[static_cast<size_t>(p)].stream != step.stream) {
                ASTRA_ASSERT(done_slot[static_cast<size_t>(p)] >= 0);
                prog.cmds.push_back({WiredOp::Wait, step.stream,
                                     done_slot[static_cast<size_t>(p)]});
            }
        }

        int32_t start = -1;
        if (profiling && step.profile && !step.epoch_metric) {
            start = prog.num_events++;
            prog.cmds.push_back({WiredOp::Record, step.stream, start});
        }

        prog.cmds.push_back({WiredOp::Launch, step.stream, i});

        if (needs_event[static_cast<size_t>(i)]) {
            done_slot[static_cast<size_t>(i)] = prog.num_events++;
            prog.cmds.push_back({WiredOp::Record, step.stream,
                                 done_slot[static_cast<size_t>(i)]});
        }
        if (profiling && step.profile) {
            const int32_t end = prog.num_events++;
            prog.cmds.push_back({WiredOp::Record, step.stream, end});

            WiredProfile wp;
            wp.key = step.key;
            wp.epoch_metric = step.epoch_metric;
            wp.start_slot = start;
            wp.end_slot = end;
            if (step.epoch_metric && current_barrier >= 0) {
                wp.barrier_begin =
                    barrier_range[static_cast<size_t>(current_barrier)]
                        .first;
                wp.barrier_end =
                    barrier_range[static_cast<size_t>(current_barrier)]
                        .second;
            }
            prog.profiles.push_back(std::move(wp));
        }
    }
    prog.step_begin[static_cast<size_t>(num_steps)] =
        static_cast<int32_t>(prog.cmds.size());
    return prog;
}

WiredProgram
compile_plan(const ExecutionPlan& plan, const Graph& graph, bool profiling)
{
    // Each step is its own unit; a barrier launches none.
    std::vector<UnitStep> steps;
    steps.reserve(plan.steps.size());
    for (size_t i = 0; i < plan.steps.size(); ++i) {
        const PlanStep& step = plan.steps[i];
        steps.push_back({step.kind == StepKind::Barrier
                             ? -1
                             : static_cast<int32_t>(i),
                         step.stream, step.lib, step.profile,
                         step.epoch_metric, step.profile_key});
    }
    return compile_steps(steps, unit_producers(plan.steps, graph),
                         plan.num_streams, profiling);
}

void
collect_wired_profiles(const WiredProgram& program,
                       const std::vector<EventId>& events,
                       const SimGpu& gpu, DispatchResult& result)
{
    for (const WiredProfile& wp : program.profiles) {
        if (wp.epoch_metric) {
            // Time from the preceding barrier (stream-history reset
            // point) to this step's completion, maximized over the key.
            double base = 0.0;
            for (int32_t k = wp.barrier_begin; k < wp.barrier_end; ++k)
                base = std::max(
                    base,
                    gpu.event_time_ns(events[static_cast<size_t>(
                        program.barrier_slots[static_cast<size_t>(k)])]));
            const double v =
                gpu.event_time_ns(
                    events[static_cast<size_t>(wp.end_slot)]) -
                base;
            auto [it, inserted] = result.profile_ns.emplace(wp.key, v);
            if (!inserted)
                it->second = std::max(it->second, v);
        } else {
            result.profile_ns[wp.key] += gpu.elapsed_ns(
                events[static_cast<size_t>(wp.start_slot)],
                events[static_cast<size_t>(wp.end_slot)]);
        }
    }
}

namespace {

/**
 * Abstract execution of a WiredProgram: stream FIFO semantics with
 * event record/wait edges tracked as vector clocks. This is the
 * barrier/ordering simulator — it establishes, per launch, which other
 * launches' *completions* provably precede it.
 */
struct ProgramOrder
{
    bool ok = true;
    std::string why;

    /** Per step: launch stream (-1 = no launch, e.g. barriers). */
    std::vector<int> stream;

    /** Per step: 1-based position of its launch on its stream. */
    std::vector<int64_t> pos;

    /** Per step: the launching stream's vector clock at launch. */
    std::vector<std::vector<int64_t>> vc;

    /**
     * True when `from`'s completion happens-before `to`'s launch.
     * Same stream: FIFO order (a stream starts a command only after
     * the previous one completed). Cross-stream: `to`'s launch clock
     * must know stream(from) past `from`'s position — knowledge only
     * travels through an event recorded *after* `from`, whose
     * execution implies `from` completed. `from == -1` (live at
     * entry) precedes everything.
     */
    bool
    completes_before(int from, int to) const
    {
        if (from < 0)
            return true;
        if (to < 0 || from == to)
            return false;
        const int sf = stream[static_cast<size_t>(from)];
        const int st = stream[static_cast<size_t>(to)];
        if (sf < 0 || st < 0)
            return false;
        if (sf == st)
            return pos[static_cast<size_t>(from)] <
                   pos[static_cast<size_t>(to)];
        return vc[static_cast<size_t>(to)][static_cast<size_t>(sf)] >
               pos[static_cast<size_t>(from)];
    }
};

ProgramOrder
simulate_program(const WiredProgram& prog, int num_kernels)
{
    ProgramOrder order;
    const int num_streams = prog.num_streams;
    const auto fail = [&](std::string why) {
        order.ok = false;
        order.why = std::move(why);
        return order;
    };

    if (prog.step_begin.empty() ||
        prog.step_begin.back() != static_cast<int32_t>(prog.cmds.size()))
        return fail("step spans do not cover the command array");
    if (num_streams <= 0)
        return fail("program has no streams");

    order.stream.assign(static_cast<size_t>(num_kernels), -1);
    order.pos.assign(static_cast<size_t>(num_kernels), 0);
    order.vc.assign(static_cast<size_t>(num_kernels), {});

    // Structural checks + per-stream command lists (program order).
    std::vector<std::vector<int32_t>> per_stream(
        static_cast<size_t>(num_streams));
    for (int32_t c = 0; c < static_cast<int32_t>(prog.cmds.size()); ++c) {
        const WiredCmd& cmd = prog.cmds[static_cast<size_t>(c)];
        if (cmd.stream < 0 || cmd.stream >= num_streams)
            return fail("command references stream " +
                        std::to_string(cmd.stream) + " of " +
                        std::to_string(num_streams));
        if (cmd.op == WiredOp::Launch) {
            if (cmd.arg < 0 || cmd.arg >= num_kernels)
                return fail("launch references step " +
                            std::to_string(cmd.arg) + " out of range");
            if (order.stream[static_cast<size_t>(cmd.arg)] >= 0)
                return fail("step " + std::to_string(cmd.arg) +
                            " launched twice");
            order.stream[static_cast<size_t>(cmd.arg)] = cmd.stream;
        } else if (cmd.arg < 0 || cmd.arg >= prog.num_events) {
            return fail("event slot " + std::to_string(cmd.arg) +
                        " out of range (" +
                        std::to_string(prog.num_events) + " slots)");
        }
        per_stream[static_cast<size_t>(cmd.stream)].push_back(c);
    }

    // Worklist execution: advance each stream as far as its waits
    // allow; repeat until quiescent. A wait is executable once its
    // slot's record has executed.
    std::vector<size_t> cursor(static_cast<size_t>(num_streams), 0);
    std::vector<int64_t> position(static_cast<size_t>(num_streams), 0);
    std::vector<std::vector<int64_t>> clock(
        static_cast<size_t>(num_streams),
        std::vector<int64_t>(static_cast<size_t>(num_streams), 0));
    // Per event slot: the recording stream's clock, empty = unrecorded.
    std::vector<std::vector<int64_t>> event_clock(
        static_cast<size_t>(prog.num_events));
    std::vector<uint8_t> recorded(static_cast<size_t>(prog.num_events), 0);

    bool progress = true;
    while (progress) {
        progress = false;
        for (int s = 0; s < num_streams; ++s) {
            auto& cur = cursor[static_cast<size_t>(s)];
            const auto& cmds_s = per_stream[static_cast<size_t>(s)];
            while (cur < cmds_s.size()) {
                const WiredCmd& cmd =
                    prog.cmds[static_cast<size_t>(cmds_s[cur])];
                if (cmd.op == WiredOp::Wait &&
                    !recorded[static_cast<size_t>(cmd.arg)])
                    break;  // stalled; retry after others advance
                auto& my_clock = clock[static_cast<size_t>(s)];
                ++position[static_cast<size_t>(s)];
                my_clock[static_cast<size_t>(s)] =
                    position[static_cast<size_t>(s)];
                if (cmd.op == WiredOp::Launch) {
                    order.pos[static_cast<size_t>(cmd.arg)] =
                        position[static_cast<size_t>(s)];
                    order.vc[static_cast<size_t>(cmd.arg)] = my_clock;
                } else if (cmd.op == WiredOp::Record) {
                    if (recorded[static_cast<size_t>(cmd.arg)])
                        return fail("event slot " +
                                    std::to_string(cmd.arg) +
                                    " recorded twice");
                    recorded[static_cast<size_t>(cmd.arg)] = 1;
                    event_clock[static_cast<size_t>(cmd.arg)] = my_clock;
                } else {
                    const auto& ec =
                        event_clock[static_cast<size_t>(cmd.arg)];
                    for (int t = 0; t < num_streams; ++t)
                        my_clock[static_cast<size_t>(t)] =
                            std::max(my_clock[static_cast<size_t>(t)],
                                     ec[static_cast<size_t>(t)]);
                }
                ++cur;
                progress = true;
            }
        }
    }
    for (int s = 0; s < num_streams; ++s) {
        const auto& cmds_s = per_stream[static_cast<size_t>(s)];
        if (cursor[static_cast<size_t>(s)] < cmds_s.size()) {
            const WiredCmd& cmd = prog.cmds[static_cast<size_t>(
                cmds_s[cursor[static_cast<size_t>(s)]])];
            return fail(
                "deadlock: stream " + std::to_string(s) +
                " waits on event slot " + std::to_string(cmd.arg) +
                " that is never recorded before it (stale event slot)");
        }
    }
    return order;
}

/** Byte-overlapping interval pairs, found by an offset-sorted sweep. */
std::vector<std::pair<int, int>>
overlapping_pairs(const std::vector<ArenaInterval>& intervals)
{
    std::vector<int> by_offset(intervals.size());
    std::iota(by_offset.begin(), by_offset.end(), 0);
    std::sort(by_offset.begin(), by_offset.end(), [&](int a, int b) {
        return intervals[static_cast<size_t>(a)].offset <
               intervals[static_cast<size_t>(b)].offset;
    });
    std::vector<std::pair<int, int>> pairs;
    // Active set: intervals whose [offset, offset+bytes) may still
    // reach later offsets.
    std::vector<int> active;
    for (int idx : by_offset) {
        const ArenaInterval& b = intervals[static_cast<size_t>(idx)];
        for (size_t i = 0; i < active.size();) {
            const ArenaInterval& a =
                intervals[static_cast<size_t>(active[i])];
            if (a.offset + a.bytes <= b.offset) {
                active[i] = active.back();
                active.pop_back();
                continue;
            }
            if (a.bytes > 0 && b.bytes > 0)
                pairs.emplace_back(active[i], idx);
            ++i;
        }
        active.push_back(idx);
    }
    return pairs;
}

/** Reading steps of each interval, inverted from the per-step ranges. */
std::vector<std::vector<int>>
interval_users(const ArenaTable& table)
{
    std::vector<std::vector<int>> users(table.intervals.size());
    for (size_t i = 0; i + 1 < table.use_begin.size(); ++i)
        for (int32_t u = table.use_begin[i]; u < table.use_begin[i + 1];
             ++u)
            users[static_cast<size_t>(table.uses[static_cast<size_t>(u)])]
                .push_back(static_cast<int>(i));
    return users;
}

std::string
describe_interval(const ArenaTable& table, int idx)
{
    const ArenaInterval& iv = table.intervals[static_cast<size_t>(idx)];
    std::ostringstream os;
    os << "node %" << iv.node << " [" << iv.offset << ", "
       << iv.offset + iv.bytes << ") def=" << iv.def_step;
    return os.str();
}

}  // namespace

WiredVerdict
verify_wired(const WiredBinary& bin, const ArenaTable& table)
{
    WiredVerdict v;
    const auto fail = [&](std::string why) {
        v.ok = false;
        v.why = std::move(why);
        return v;
    };

    const int num_steps = bin.steps();
    if (static_cast<int>(bin.program.step_begin.size()) != num_steps + 1)
        return fail("program spans disagree with kernel table");

    const ProgramOrder order = simulate_program(bin.program, num_steps);
    if (!order.ok)
        return fail(order.why);

    // Every non-barrier step must actually launch.
    for (int i = 0; i < num_steps; ++i)
        if (!bin.program.is_barrier[static_cast<size_t>(i)] &&
            order.stream[static_cast<size_t>(i)] < 0)
            return fail("step " + std::to_string(i) + " never launches");

    // Use-before-def: a step may only read intervals whose producing
    // launch provably *completed* before the reader launched.
    const std::vector<int32_t>& begin = table.use_begin;
    if (!begin.empty() && begin.size() != static_cast<size_t>(num_steps) + 1)
        return fail("access table disagrees with step count");
    for (int i = 0; i + 1 < static_cast<int>(begin.size()); ++i) {
        for (int32_t u = begin[static_cast<size_t>(i)];
             u < begin[static_cast<size_t>(i) + 1]; ++u) {
            const int32_t iv = table.uses[static_cast<size_t>(u)];
            if (iv < 0 ||
                iv >= static_cast<int32_t>(table.intervals.size()))
                return fail("use references interval out of range");
            const int def =
                table.intervals[static_cast<size_t>(iv)].def_step;
            if (def == i)
                continue;  // internal edge of a fused step
            if (!order.completes_before(def, i))
                return fail("use-before-def: step " + std::to_string(i) +
                            " reads " + describe_interval(table, iv) +
                            " without ordering after its definition");
        }
    }

    // Overlap-while-live: byte-sharing intervals need every access of
    // one ordered before the definition of the other.
    const std::vector<std::vector<int>> users = interval_users(table);
    const auto accesses_before = [&](int x, int to_def) {
        const ArenaInterval& iv = table.intervals[static_cast<size_t>(x)];
        // One step defining both: its kernel computes its nodes in
        // order, so x may give up its bytes only if it dies there.
        if (iv.def_step == to_def ? iv.last_use_step != to_def
                                  : !order.completes_before(iv.def_step,
                                                            to_def))
            return false;
        for (int u : users[static_cast<size_t>(x)])
            if (u != to_def && !order.completes_before(u, to_def))
                return false;
        return true;
    };
    for (const auto& [x, y] : overlapping_pairs(table.intervals)) {
        const ArenaInterval& a = table.intervals[static_cast<size_t>(x)];
        const ArenaInterval& b = table.intervals[static_cast<size_t>(y)];
        if (a.def_step < 0 && b.def_step < 0)
            return fail("two entry-live intervals overlap: " +
                        describe_interval(table, x) + " and " +
                        describe_interval(table, y));
        if (a.def_step < 0 || b.def_step < 0)
            return fail("interval overlaps an entry-live buffer: " +
                        describe_interval(table, x) + " and " +
                        describe_interval(table, y));
        if (!accesses_before(x, b.def_step) &&
            !accesses_before(y, a.def_step))
            return fail("overlap-while-live: " +
                        describe_interval(table, x) + " and " +
                        describe_interval(table, y) +
                        " share bytes without ordering");
    }
    return v;
}

WiredBinary
bind_plan(const ExecutionPlan& plan, const Graph& graph,
          const TensorMap& tmap, const GpuConfig& cfg, bool profiling)
{
    WiredBinary bin;
    bin.program = compile_plan(plan, graph, profiling);
    // Descriptor names, fused shapes and compute closures (bound to
    // arena offsets through the TensorMap) are frozen here, off the
    // walk. Reserved up front: no descriptor moves once pointed at.
    auto descs = std::make_shared<std::vector<KernelDesc>>();
    descs->reserve(static_cast<size_t>(
        std::count_if(plan.steps.begin(), plan.steps.end(),
                      [](const PlanStep& step) {
                          return step.kind != StepKind::Barrier;
                      })));
    bin.kernels.assign(plan.steps.size(), nullptr);
    for (size_t i = 0; i < plan.steps.size(); ++i) {
        const PlanStep& step = plan.steps[i];
        if (step.kind != StepKind::Barrier) {
            descs->push_back(
                build_step_kernel(step, step.lib, graph, tmap, cfg));
            bin.kernels[i] = &descs->back();
        }
    }
    bin.owner = std::move(descs);
    return bin;
}

UnitKernels::UnitKernels(const TensorMap& tmap, const GpuConfig& cfg,
                         size_t num_units)
    : tmap_id_(cfg.execute_kernels ? tmap.id() : 0),
      execute_kernels_(cfg.execute_kernels), num_sms_(cfg.num_sms),
      flops_per_sm_ns_(cfg.flops_per_sm_ns), hbm_gbps_(cfg.hbm_gbps),
      slot_(num_units * kNumGemmLibs, -1)
{
}

namespace {

/** A unit's largest node id: unique within one unit list. */
NodeId
anchor(const PlanStep& unit)
{
    return *std::max_element(unit.nodes.begin(), unit.nodes.end());
}

}  // namespace

UnitKernels::UnitKernels(const UnitKernels& from,
                         const std::vector<PlanStep>& from_units,
                         const std::vector<PlanStep>& units,
                         size_t graph_size)
    : tmap_id_(from.tmap_id_), execute_kernels_(from.execute_kernels_),
      num_sms_(from.num_sms_), flops_per_sm_ns_(from.flops_per_sm_ns_),
      hbm_gbps_(from.hbm_gbps_), slot_(units.size() * kNumGemmLibs, -1)
{
    ASTRA_ASSERT(from.slot_.size() == from_units.size() * kNumGemmLibs);
    std::vector<int32_t> from_unit_of(graph_size, -1);
    for (size_t u = 0; u < from_units.size(); ++u)
        from_unit_of[static_cast<size_t>(anchor(from_units[u]))] =
            static_cast<int32_t>(u);
    std::lock_guard<std::mutex> lock(from.mu_);
    for (size_t u = 0; u < units.size(); ++u) {
        const int32_t f = from_unit_of[static_cast<size_t>(anchor(units[u]))];
        if (f < 0)
            continue;
        const PlanStep& a = units[u];
        const PlanStep& b = from_units[static_cast<size_t>(f)];
        if (a.kind != b.kind || a.fused_axis != b.fused_axis ||
            a.nodes != b.nodes)
            continue;
        for (size_t lib = 0; lib < kNumGemmLibs; ++lib) {
            const int32_t s =
                from.slot_[static_cast<size_t>(f) * kNumGemmLibs + lib];
            if (s < 0)
                continue;
            slot_[u * kNumGemmLibs + lib] =
                static_cast<int32_t>(descs_.size());
            descs_.push_back(from.descs_[static_cast<size_t>(s)]);
        }
    }
}

bool
UnitKernels::serves(const TensorMap& tmap, const GpuConfig& cfg) const
{
    return cfg.execute_kernels == execute_kernels_ &&
           (!execute_kernels_ || tmap.id() == tmap_id_) &&
           cfg.num_sms == num_sms_ &&
           cfg.flops_per_sm_ns == flops_per_sm_ns_ &&
           cfg.hbm_gbps == hbm_gbps_;
}

std::vector<const KernelDesc*>
UnitKernels::resolve(const std::vector<PlanStep>& units,
                     const std::vector<UnitStep>& steps, const Graph& graph,
                     const TensorMap& tmap, const GpuConfig& cfg) const
{
    ASTRA_ASSERT(serves(tmap, cfg));
    ASTRA_ASSERT(slot_.size() == units.size() * kNumGemmLibs);
    std::vector<const KernelDesc*> out(steps.size(), nullptr);
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < steps.size(); ++i) {
        const UnitStep& step = steps[i];
        if (step.unit < 0)
            continue;
        const PlanStep& unit = units[static_cast<size_t>(step.unit)];
        // Only a GEMM's kernel reads its library.
        const bool gemm = unit.kind == StepKind::FusedGemm ||
                          unit.kind == StepKind::LadderGemm ||
                          (unit.kind == StepKind::Single &&
                           graph.node(unit.nodes[0]).is_matmul());
        const GemmLib lib = gemm ? step.lib : GemmLib::Cublas;
        int32_t& slot = slot_[static_cast<size_t>(step.unit) * kNumGemmLibs +
                              static_cast<size_t>(lib)];
        if (slot < 0) {
            slot = static_cast<int32_t>(descs_.size());
            descs_.push_back(build_step_kernel(unit, lib, graph, tmap, cfg));
        }
        out[i] = &descs_[static_cast<size_t>(slot)];
    }
    return out;
}

void
enqueue_wired(const WiredProgram& program,
              const std::vector<const KernelDesc*>& kernels, SimGpu& gpu,
              std::vector<EventId>& events,
              const std::function<void(int)>& after_step)
{
    const int num_steps = static_cast<int>(program.is_barrier.size());
    ASTRA_ASSERT(program.keys.size() == static_cast<size_t>(num_steps));
    // Event creation carries no device time, so every slot is created
    // up front.
    events.resize(static_cast<size_t>(program.num_events));
    for (int32_t e = 0; e < program.num_events; ++e)
        events[static_cast<size_t>(e)] = gpu.create_event();
    for (int i = 0; i < num_steps; ++i) {
        const int32_t end = program.step_begin[static_cast<size_t>(i) + 1];
        for (int32_t c = program.step_begin[static_cast<size_t>(i)];
             c < end; ++c) {
            const WiredCmd& cmd = program.cmds[static_cast<size_t>(c)];
            switch (cmd.op) {
            case WiredOp::Launch:
                gpu.launch_ref(cmd.stream,
                               *kernels[static_cast<size_t>(cmd.arg)],
                               program.keys[static_cast<size_t>(cmd.arg)]);
                break;
            case WiredOp::Record:
                gpu.record_event(cmd.stream,
                                 events[static_cast<size_t>(cmd.arg)]);
                break;
            case WiredOp::Wait:
                gpu.wait_event(cmd.stream,
                               events[static_cast<size_t>(cmd.arg)]);
                break;
            }
        }
        if (after_step && !program.is_barrier[static_cast<size_t>(i)])
            after_step(i);
    }
}

ArenaTable
arena_table(const ExecutionPlan& plan, const Graph& graph,
            const TensorMap& tmap)
{
    const int num_steps = static_cast<int>(plan.steps.size());
    ArenaTable table;

    // Arena interval per touched tensor: covered nodes get their
    // producing step; uncovered inputs (graph sources) are live at
    // entry.
    std::vector<int> producer(static_cast<size_t>(graph.size()), -1);
    for (int i = 0; i < num_steps; ++i)
        for (NodeId id : plan.steps[static_cast<size_t>(i)].nodes)
            producer[static_cast<size_t>(id)] = i;

    std::vector<int32_t> interval_of(static_cast<size_t>(graph.size()),
                                     -1);
    const auto intern = [&](NodeId id, int def_step) {
        int32_t& slot = interval_of[static_cast<size_t>(id)];
        if (slot >= 0)
            return slot;
        slot = static_cast<int32_t>(table.intervals.size());
        ArenaInterval iv;
        iv.node = id;
        iv.offset = tmap.ptr(id);
        iv.bytes = static_cast<int64_t>(graph.node(id).desc.bytes());
        iv.def_step = def_step;
        iv.last_use_step = def_step;
        table.intervals.push_back(iv);
        return slot;
    };

    table.use_begin.resize(static_cast<size_t>(num_steps) + 1);
    for (int i = 0; i < num_steps; ++i) {
        const PlanStep& step = plan.steps[static_cast<size_t>(i)];
        for (NodeId id : step.nodes)
            intern(id, i);

        // A step reads a few intervals: dedupe in its own range.
        const auto first = static_cast<ptrdiff_t>(table.uses.size());
        table.use_begin[static_cast<size_t>(i)] =
            static_cast<int32_t>(first);
        for (NodeId id : step.nodes) {
            for (NodeId in : graph.node(id).inputs) {
                if (producer[static_cast<size_t>(in)] == i)
                    continue;  // internal edge of a fused step
                const int32_t iv =
                    intern(in, producer[static_cast<size_t>(in)]);
                if (std::find(table.uses.begin() + first, table.uses.end(),
                              iv) == table.uses.end())
                    table.uses.push_back(iv);
            }
        }
        for (auto u = table.uses.begin() + first; u != table.uses.end();
             ++u) {
            ArenaInterval& iv = table.intervals[static_cast<size_t>(*u)];
            iv.last_use_step = std::max(iv.last_use_step, i);
        }
    }
    table.use_begin[static_cast<size_t>(num_steps)] =
        static_cast<int32_t>(table.uses.size());
    // Graph outputs (and never-read results) must survive the whole
    // mini-batch: pin them to the one-past-the-end step.
    for (ArenaInterval& iv : table.intervals)
        if (iv.node >= 0 && graph.user_count(iv.node) == 0)
            iv.last_use_step = num_steps;
    for (NodeId id : graph.outputs())
        if (interval_of[static_cast<size_t>(id)] >= 0)
            table.intervals[static_cast<size_t>(
                               interval_of[static_cast<size_t>(id)])]
                .last_use_step = num_steps;
    return table;
}

namespace {

/** `bin`, bound from `plan`, once verify_wired proves it. */
WiredBinary
verified(WiredBinary bin, const ExecutionPlan& plan, const Graph& graph,
         const TensorMap& tmap)
{
    const WiredVerdict verdict =
        verify_wired(bin, arena_table(plan, graph, tmap));
    ASTRA_ASSERT(verdict.ok, "wired lowering failed verification: ",
                 verdict.why);
    if (obs::enabled()) {
        static obs::Counter& lowered = obs::counter("wired.lowered");
        lowered.add();
    }
    return bin;
}

}  // namespace

WiredBinary
lower_plan(const ExecutionPlan& plan, const Graph& graph,
           const TensorMap& tmap, const GpuConfig& cfg)
{
    obs::ScopedSpan span(obs::Category::Wire, "wired.lower");
    return verified(bind_plan(plan, graph, tmap, cfg, /*profiling=*/true),
                    plan, graph, tmap);
}

WiredBinary
lower_plan(const ExecutionPlan& plan,
           const std::function<WiredBinary()>& bind, const Graph& graph,
           const TensorMap& tmap)
{
    obs::ScopedSpan span(obs::Category::Wire, "wired.lower");
    WiredBinary bin = bind();
    // Copy what the binary launches out of the skeleton's table, which
    // holds every descriptor its trials built, then let the table go.
    auto descs = std::make_shared<std::vector<KernelDesc>>();
    descs->reserve(static_cast<size_t>(
        std::count_if(bin.kernels.begin(), bin.kernels.end(),
                      [](const KernelDesc* k) { return k != nullptr; })));
    for (const KernelDesc*& k : bin.kernels)
        if (k != nullptr) {
            descs->push_back(*k);
            k = &descs->back();
        }
    bin.owner = std::move(descs);
    return verified(std::move(bin), plan, graph, tmap);
}

namespace {

/** Wall-clock ns elapsed since `start`. */
double
elapsed_ns(std::chrono::steady_clock::time_point start)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

/**
 * The mini-batch transaction: autoboost/fault-salt assignment
 * (process-wide counters so successive dispatches keep drifting clocks
 * and unique fault draws), the abort-and-replay retry loop with
 * simulated exponential backoff, and the final stats/clock readout.
 * Each attempt walks the bound program on a fresh device; the walk's
 * measured wall time lands in DispatchResult::host_enqueue_ns. The
 * synchronized final-attempt device and its event slots are returned
 * for profile collection and tracing.
 */
DispatchResult
run_dispatch_transaction(const WiredBinary& bin, const GpuConfig& cfg,
                         std::unique_ptr<SimGpu>* gpu_out,
                         std::vector<EventId>* events)
{
    GpuConfig gpu_cfg = cfg;

    // Autoboost is physical-device state: it does not reset between
    // mini-batches, so successive dispatches must measure at different
    // clocks (the §7 repeatability violation). Each dispatch gets a
    // fresh device here, so the cross-dispatch drift is modeled by
    // salting the jitter seed with a process-wide dispatch counter —
    // unless the caller forces the multiplier, in which case it owns
    // the draw sequence (ClockDomain) and ordering must not leak in.
    if (gpu_cfg.autoboost && gpu_cfg.forced_clock_multiplier <= 0.0) {
        static std::atomic<uint64_t> dispatch_counter{0};
        gpu_cfg.autoboost_seed +=
            ClockDomain::kSeedMix *
            dispatch_counter.fetch_add(1, std::memory_order_relaxed);
    }

    // A dispatch's faults must be a pure function of its salt so the
    // parallel wirer stays bit-identical: callers that care (the wirer)
    // pre-assign salts; everyone else gets a process-wide counter.
    const bool fault_armed = !gpu_cfg.faults.empty();
    if (fault_armed && gpu_cfg.fault_salt == 0) {
        static std::atomic<uint64_t> fault_counter{1};
        gpu_cfg.fault_salt =
            fault_counter.fetch_add(1, std::memory_order_relaxed);
    }
    const uint64_t base_salt = gpu_cfg.fault_salt;
    const int max_attempts =
        fault_armed ? gpu_cfg.faults.max_retries + 1 : 1;

    DispatchResult result;
    std::unique_ptr<SimGpu> gpu;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        gpu_cfg.fault_salt =
            attempt == 0
                ? base_salt
                : fault_mix(base_salt, static_cast<uint64_t>(attempt));
        gpu = std::make_unique<SimGpu>(gpu_cfg);
        for (int s = 1; s < bin.program.num_streams; ++s)
            gpu->create_stream();
        const auto host_start = std::chrono::steady_clock::now();
        enqueue_wired(bin.program, bin.kernels, *gpu, *events);
        result.host_enqueue_ns += elapsed_ns(host_start);
        gpu->synchronize();
        result.faults_seen += gpu->stats().faults_injected;
        result.straggler_events += gpu->stats().straggler_events;
        if (gpu->stats().faults_injected == 0)
            break;
        // Abort-and-replay: the replay re-executes the full plan over
        // the same TensorMap, so a clean attempt restores every tensor.
        // The backoff is simulated (reported, not slept) so tests and
        // benchmarks measure the policy, not the wall clock.
        ++result.fault_attempts;
        result.backoff_ns +=
            gpu_cfg.faults.backoff_us * 1e3 *
            static_cast<double>(1ull << std::min(attempt, 30));
    }
    result.faulted = gpu->stats().faults_injected > 0;

    result.total_ns = gpu->now_ns();
    result.stats = gpu->stats();
    result.clock_multiplier = gpu->clock_multiplier();
    *gpu_out = std::move(gpu);
    return result;
}

/**
 * The dispatch engine behind dispatch_plan and replay_wired: run the
 * transaction over a bound program, then read out the trace, the obs
 * kernel spans and counters, and the profile metrics. `obs_anchor` is
 * the caller's host time the device timeline is placed at.
 */
DispatchResult
dispatch_bound(const WiredBinary& bin, const GpuConfig& cfg,
               double obs_anchor)
{
    // When observability is on, collect the device timeline regardless
    // of the caller's setting so kernel spans land on the merged trace.
    const bool obs_on = obs::enabled();
    GpuConfig gpu_cfg = cfg;
    gpu_cfg.collect_trace = cfg.collect_trace || obs_on;

    std::unique_ptr<SimGpu> gpu;
    std::vector<EventId> events;
    DispatchResult result =
        run_dispatch_transaction(bin, gpu_cfg, &gpu, &events);

    if (cfg.collect_trace)
        result.trace = gpu->trace();
    if (obs_on) {
        obs::add_kernel_spans(gpu->trace(), obs_anchor);
        static obs::Counter& launched =
            obs::counter("dispatch.kernels_launched");
        launched.add(gpu->stats().kernels_launched);
        obs::observe("dispatch.total_ns", result.total_ns);
        if (result.fault_attempts > 0) {
            static obs::Counter& retries =
                obs::counter("dispatch.fault_retries");
            retries.add(result.fault_attempts);
        }
        if (result.faults_seen > 0) {
            static obs::Counter& faults =
                obs::counter("dispatch.faults_injected");
            faults.add(result.faults_seen);
        }
    }

    collect_wired_profiles(bin.program, events, *gpu, result);
    return result;
}

}  // namespace

DispatchResult
dispatch_plan(const std::function<WiredBinary()>& bind, const GpuConfig& cfg)
{
    obs::ScopedSpan dispatch_span(obs::Category::Dispatch,
                                  "dispatch_plan");
    const double obs_anchor = obs::enabled() ? obs::now_ns() : 0.0;
    // The bind is the host work a replay of a lowered binary skips, so
    // it counts as enqueue time.
    const auto bind_start = std::chrono::steady_clock::now();
    const WiredBinary bound = bind();
    const double bind_ns = elapsed_ns(bind_start);

    DispatchResult result = dispatch_bound(bound, cfg, obs_anchor);
    result.host_enqueue_ns += bind_ns;
    if (obs::enabled()) {
        static obs::Counter& dispatches = obs::counter("dispatch.plans");
        dispatches.add();
    }
    return result;
}

DispatchResult
dispatch_plan(const ExecutionPlan& plan, const Graph& graph,
              const TensorMap& tmap, const GpuConfig& cfg)
{
    return dispatch_plan(
        [&] { return bind_plan(plan, graph, tmap, cfg, /*profiling=*/true); },
        cfg);
}

DispatchResult
replay_wired(const WiredBinary& bin, const GpuConfig& cfg)
{
    obs::ScopedSpan replay_span(obs::Category::Dispatch, "wired.replay");
    const double obs_anchor = obs::enabled() ? obs::now_ns() : 0.0;
    DispatchResult result = dispatch_bound(bin, cfg, obs_anchor);
    if (obs::enabled()) {
        static obs::Counter& replays = obs::counter("wired.replays");
        replays.add();
        obs::observe("wired.replay_host_ns", result.host_enqueue_ns);
    }
    return result;
}

}  // namespace astra

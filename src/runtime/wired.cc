#include "runtime/wired.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "obs/obs.h"
#include "runtime/executor.h"
#include "support/logging.h"

namespace astra {

WiredProgram
compile_plan(const ExecutionPlan& plan, const Graph& graph, bool profiling)
{
    const int num_steps = static_cast<int>(plan.steps.size());
    WiredProgram prog;
    prog.num_streams = plan.num_streams;
    prog.profiling = profiling;
    prog.step_begin.assign(static_cast<size_t>(num_steps) + 1, 0);
    prog.is_barrier.assign(static_cast<size_t>(num_steps), 0);

    // Producer step of every covered node.
    std::vector<int> producer(static_cast<size_t>(graph.size()), -1);
    for (int i = 0; i < num_steps; ++i)
        for (NodeId id : plan.steps[static_cast<size_t>(i)].nodes)
            producer[static_cast<size_t>(id)] = i;

    // Which steps need a completion event (cross-stream consumers).
    std::vector<bool> needs_event(static_cast<size_t>(num_steps), false);
    for (int i = 0; i < num_steps; ++i) {
        const PlanStep& step = plan.steps[static_cast<size_t>(i)];
        if (step.kind == StepKind::Barrier)
            continue;
        for (NodeId id : step.nodes) {
            for (NodeId in : graph.node(id).inputs) {
                const int p = producer[static_cast<size_t>(in)];
                if (p == i)
                    continue;  // internal edge of a fused step
                if (p < 0)
                    continue;  // graph source
                ASTRA_ASSERT(p < i, "plan order violates dependencies: "
                             "step ", i, " reads node %", in,
                             " produced by later step ", p);
                if (plan.steps[static_cast<size_t>(p)].stream != step.stream)
                    needs_event[static_cast<size_t>(p)] = true;
            }
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
        const PlanStep& step = plan.steps[static_cast<size_t>(i)];
        prog.step_begin[static_cast<size_t>(i)] =
            static_cast<int32_t>(prog.cmds.size());

        if (step.kind == StepKind::Barrier) {
            // Every stream records its arrival, then waits on everyone
            // else's arrival: a full cross-stream rendezvous.
            prog.is_barrier[static_cast<size_t>(i)] = 1;
            const int32_t b0 =
                static_cast<int32_t>(prog.barrier_slots.size());
            for (int s = 0; s < plan.num_streams; ++s) {
                const int32_t slot = prog.num_events++;
                prog.barrier_slots.push_back(slot);
                prog.cmds.push_back({WiredOp::Record, s, slot});
            }
            for (int s = 0; s < plan.num_streams; ++s)
                for (int t = 0; t < plan.num_streams; ++t)
                    if (t != s)
                        prog.cmds.push_back(
                            {WiredOp::Wait, s,
                             prog.barrier_slots[static_cast<size_t>(b0 + t)]});
            barrier_range[static_cast<size_t>(i)] = {
                b0, b0 + plan.num_streams};
            current_barrier = i;
            continue;
        }

        ASTRA_ASSERT(step.stream >= 0 && step.stream < plan.num_streams,
                     "step ", i, " uses stream ", step.stream,
                     " but plan has ", plan.num_streams);

        // Cross-stream waits for this step's external inputs.
        std::set<int> waited;
        for (NodeId id : step.nodes) {
            for (NodeId in : graph.node(id).inputs) {
                const int p = producer[static_cast<size_t>(in)];
                if (p < 0 || p == i)
                    continue;
                const PlanStep& prod = plan.steps[static_cast<size_t>(p)];
                if (prod.stream != step.stream && !waited.count(p)) {
                    ASTRA_ASSERT(done_slot[static_cast<size_t>(p)] >= 0);
                    prog.cmds.push_back(
                        {WiredOp::Wait, step.stream,
                         done_slot[static_cast<size_t>(p)]});
                    waited.insert(p);
                }
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
            wp.key = step.profile_key;
            wp.epoch_metric = step.epoch_metric;
            wp.step = i;
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

void
insert_control_edges(WiredProgram& program,
                     const std::vector<ControlEdge>& edges)
{
    if (edges.empty())
        return;
    const int num_steps =
        static_cast<int>(program.step_begin.size()) - 1;

    // One fresh slot per edge: recorded right after from_step's launch,
    // waited on right before to_step's launch.
    std::map<int, std::vector<int32_t>> record_after, wait_before;
    for (const ControlEdge& e : edges) {
        ASTRA_ASSERT(e.from_step >= 0 && e.from_step < num_steps &&
                     e.to_step >= 0 && e.to_step < num_steps,
                     "control edge ", e.from_step, "->", e.to_step,
                     " out of range");
        ASTRA_ASSERT(!program.is_barrier[static_cast<size_t>(e.from_step)] &&
                     !program.is_barrier[static_cast<size_t>(e.to_step)],
                     "control edges must join launching steps");
        const int32_t slot = program.num_events++;
        record_after[e.from_step].push_back(slot);
        wait_before[e.to_step].push_back(slot);
    }

    std::vector<WiredCmd> cmds;
    cmds.reserve(program.cmds.size() + 2 * edges.size());
    std::vector<int32_t> step_begin(program.step_begin.size(), 0);
    for (int i = 0; i < num_steps; ++i) {
        step_begin[static_cast<size_t>(i)] =
            static_cast<int32_t>(cmds.size());
        const int32_t begin = program.step_begin[static_cast<size_t>(i)];
        const int32_t end = program.step_begin[static_cast<size_t>(i) + 1];
        for (int32_t c = begin; c < end; ++c) {
            const WiredCmd& cmd = program.cmds[static_cast<size_t>(c)];
            if (cmd.op == WiredOp::Launch) {
                if (auto it = wait_before.find(i); it != wait_before.end())
                    for (int32_t slot : it->second)
                        cmds.push_back({WiredOp::Wait, cmd.stream, slot});
                cmds.push_back(cmd);
                if (auto it = record_after.find(i);
                    it != record_after.end())
                    for (int32_t slot : it->second)
                        cmds.push_back(
                            {WiredOp::Record, cmd.stream, slot});
            } else {
                cmds.push_back(cmd);
            }
        }
    }
    step_begin[static_cast<size_t>(num_steps)] =
        static_cast<int32_t>(cmds.size());
    program.cmds = std::move(cmds);
    program.step_begin = std::move(step_begin);
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

/** Reading steps of each interval, inverted from the per-step tables. */
std::vector<std::vector<int>>
interval_users(const WiredBinary& bin)
{
    std::vector<std::vector<int>> users(bin.intervals.size());
    for (int i = 0; i < static_cast<int>(bin.access.size()); ++i) {
        const WiredStepAccess& a = bin.access[static_cast<size_t>(i)];
        for (int32_t u = a.use_begin; u < a.use_end; ++u)
            users[static_cast<size_t>(bin.uses[static_cast<size_t>(u)])]
                .push_back(i);
    }
    return users;
}

std::string
describe_interval(const WiredBinary& bin, int idx)
{
    const ArenaInterval& iv = bin.intervals[static_cast<size_t>(idx)];
    std::ostringstream os;
    os << "node %" << iv.node << " [" << iv.offset << ", "
       << iv.offset + iv.bytes << ") def=" << iv.def_step;
    return os.str();
}

}  // namespace

WiredVerdict
verify_wired(const WiredBinary& bin)
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
    if (bin.access.size() != static_cast<size_t>(num_steps) &&
        !bin.access.empty())
        return fail("access table disagrees with step count");
    for (int i = 0; i < static_cast<int>(bin.access.size()); ++i) {
        const WiredStepAccess& a = bin.access[static_cast<size_t>(i)];
        for (int32_t u = a.use_begin; u < a.use_end; ++u) {
            const int32_t iv = bin.uses[static_cast<size_t>(u)];
            if (iv < 0 || iv >= static_cast<int32_t>(bin.intervals.size()))
                return fail("use references interval out of range");
            const int def =
                bin.intervals[static_cast<size_t>(iv)].def_step;
            if (def == i)
                continue;  // internal edge of a fused step
            if (!order.completes_before(def, i))
                return fail("use-before-def: step " + std::to_string(i) +
                            " reads " + describe_interval(bin, iv) +
                            " without ordering after its definition");
        }
    }

    // Overlap-while-live: byte-sharing intervals need every access of
    // one ordered before the definition of the other.
    const std::vector<std::vector<int>> users = interval_users(bin);
    const auto accesses_before = [&](int x, int to_def) {
        const ArenaInterval& iv = bin.intervals[static_cast<size_t>(x)];
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
    for (const auto& [x, y] : overlapping_pairs(bin.intervals)) {
        const ArenaInterval& a = bin.intervals[static_cast<size_t>(x)];
        const ArenaInterval& b = bin.intervals[static_cast<size_t>(y)];
        if (a.def_step < 0 && b.def_step < 0)
            return fail("two entry-live intervals overlap: " +
                        describe_interval(bin, x) + " and " +
                        describe_interval(bin, y));
        if (a.def_step < 0 || b.def_step < 0)
            return fail("interval overlaps an entry-live buffer: " +
                        describe_interval(bin, x) + " and " +
                        describe_interval(bin, y));
        if (!accesses_before(x, b.def_step) &&
            !accesses_before(y, a.def_step))
            return fail("overlap-while-live: " +
                        describe_interval(bin, x) + " and " +
                        describe_interval(bin, y) +
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
    // walk.
    bin.kernels.resize(plan.steps.size());
    for (size_t i = 0; i < plan.steps.size(); ++i)
        if (plan.steps[i].kind != StepKind::Barrier)
            bin.kernels[i] = build_step_kernel(plan.steps[i], graph, tmap,
                                               cfg);
    return bin;
}

void
enqueue_wired(const WiredProgram& program,
              const std::vector<KernelDesc>& kernels, SimGpu& gpu,
              std::vector<EventId>& events,
              const std::function<void(int)>& after_step)
{
    // Event creation carries no device time, so every slot is created
    // up front.
    events.resize(static_cast<size_t>(program.num_events));
    for (int32_t e = 0; e < program.num_events; ++e)
        events[static_cast<size_t>(e)] = gpu.create_event();
    const int num_steps = static_cast<int>(program.is_barrier.size());
    for (int i = 0; i < num_steps; ++i) {
        const int32_t end = program.step_begin[static_cast<size_t>(i) + 1];
        for (int32_t c = program.step_begin[static_cast<size_t>(i)];
             c < end; ++c) {
            const WiredCmd& cmd = program.cmds[static_cast<size_t>(c)];
            switch (cmd.op) {
            case WiredOp::Launch:
                gpu.launch(cmd.stream,
                           kernels[static_cast<size_t>(cmd.arg)]);
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

WiredBinary
lower_plan(const ExecutionPlan& plan, const Graph& graph,
           const TensorMap& tmap, const GpuConfig& cfg)
{
    obs::ScopedSpan span(obs::Category::Wire, "wired.lower");
    const int num_steps = static_cast<int>(plan.steps.size());
    WiredBinary bin = bind_plan(plan, graph, tmap, cfg, /*profiling=*/true);
    bin.arena_bytes = tmap.peak_bytes();

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
        slot = static_cast<int32_t>(bin.intervals.size());
        ArenaInterval iv;
        iv.node = id;
        iv.offset = tmap.ptr(id);
        iv.bytes = static_cast<int64_t>(graph.node(id).desc.bytes());
        iv.def_step = def_step;
        iv.last_use_step = def_step;
        bin.intervals.push_back(iv);
        return slot;
    };

    bin.access.resize(static_cast<size_t>(num_steps));
    for (int i = 0; i < num_steps; ++i) {
        const PlanStep& step = plan.steps[static_cast<size_t>(i)];
        WiredStepAccess& acc = bin.access[static_cast<size_t>(i)];
        acc.def_begin = static_cast<int32_t>(bin.defs.size());
        for (NodeId id : step.nodes)
            bin.defs.push_back(intern(id, i));
        acc.def_end = static_cast<int32_t>(bin.defs.size());

        acc.use_begin = static_cast<int32_t>(bin.uses.size());
        std::set<int32_t> used;
        for (NodeId id : step.nodes) {
            for (NodeId in : graph.node(id).inputs) {
                if (producer[static_cast<size_t>(in)] == i)
                    continue;  // internal edge of a fused step
                const int32_t iv =
                    intern(in, producer[static_cast<size_t>(in)]);
                if (used.insert(iv).second)
                    bin.uses.push_back(iv);
            }
        }
        acc.use_end = static_cast<int32_t>(bin.uses.size());
        for (int32_t u = acc.use_begin; u < acc.use_end; ++u) {
            ArenaInterval& iv =
                bin.intervals[static_cast<size_t>(
                    bin.uses[static_cast<size_t>(u)])];
            iv.last_use_step = std::max(iv.last_use_step, i);
        }
    }
    // Graph outputs (and never-read results) must survive the whole
    // mini-batch: pin them to the one-past-the-end step.
    for (ArenaInterval& iv : bin.intervals)
        if (iv.node >= 0 && graph.user_count(iv.node) == 0)
            iv.last_use_step = num_steps;
    for (NodeId id : graph.outputs())
        if (interval_of[static_cast<size_t>(id)] >= 0)
            bin.intervals[static_cast<size_t>(
                             interval_of[static_cast<size_t>(id)])]
                .last_use_step = num_steps;

    // Audit every arena-byte reuse against the program's own
    // happens-before order; reuse the schedule does not already order
    // gets an explicit control edge instead of trusting dynamic
    // liveness.
    ProgramOrder order = simulate_program(bin.program, num_steps);
    ASTRA_ASSERT(order.ok, "compiled program is not executable: ",
                 order.why);
    const std::vector<std::vector<int>> users = interval_users(bin);
    std::vector<ControlEdge> edges;
    std::set<std::pair<int, int>> edge_set;
    const auto order_accesses = [&](int x, int to_def) {
        const ArenaInterval& iv = bin.intervals[static_cast<size_t>(x)];
        const auto need = [&](int from) {
            if (from == to_def || order.completes_before(from, to_def))
                return;
            ASTRA_ASSERT(from >= 0 && from < to_def,
                         "statically unschedulable arena reuse: step ",
                         from, " accesses bytes redefined by earlier "
                         "step ", to_def);
            if (edge_set.emplace(from, to_def).second)
                edges.push_back(ControlEdge{from, to_def});
        };
        need(iv.def_step);
        for (int u : users[static_cast<size_t>(x)])
            need(u);
    };
    for (const auto& [x, y] : overlapping_pairs(bin.intervals)) {
        const ArenaInterval& a = bin.intervals[static_cast<size_t>(x)];
        const ArenaInterval& b = bin.intervals[static_cast<size_t>(y)];
        ASTRA_ASSERT(a.def_step >= 0 || b.def_step >= 0,
                     "entry-live tensors %", a.node, " and %", b.node,
                     " overlap in the arena");
        ASTRA_ASSERT(a.def_step != b.def_step ||
                         a.last_use_step == a.def_step ||
                         b.last_use_step == b.def_step,
                     "step ", a.def_step, " defines overlapping tensors %",
                     a.node, " and %", b.node, " that both outlive it");
        // The later definition inherits the bytes; every access of the
        // earlier occupant must be ordered before it. When one step
        // defines both, the earlier occupant is the one that dies in
        // that step (the step's kernel computes its nodes in order).
        if (a.def_step < b.def_step ||
            (a.def_step == b.def_step && a.last_use_step == a.def_step))
            order_accesses(x, b.def_step);
        else
            order_accesses(y, a.def_step);
    }
    if (!edges.empty()) {
        insert_control_edges(bin.program, edges);
        bin.control_edges = static_cast<int64_t>(edges.size());
    }

    // Feasible-memory static re-packing of the same lifetimes, for
    // observability: how tight a from-scratch static arena would be,
    // and whether it would need edges the schedule lacks.
    std::vector<StaticBuffer> bufs;
    bufs.reserve(bin.intervals.size());
    for (size_t i = 0; i < bin.intervals.size(); ++i) {
        const ArenaInterval& iv = bin.intervals[i];
        StaticBuffer sb;
        sb.bytes = iv.bytes;
        sb.def_step = iv.def_step;
        sb.last_use_step = iv.last_use_step;
        sb.use_steps = users[i];
        bufs.push_back(std::move(sb));
    }
    const StaticArenaResult packed = plan_static_arena(
        bufs,
        [&](int from, int to) { return order.completes_before(from, to); });
    bin.packed_bytes = packed.high_water;

    if (obs::enabled()) {
        static obs::Counter& lowered = obs::counter("wired.lowered");
        lowered.add();
        if (bin.control_edges > 0) {
            static obs::Counter& ce =
                obs::counter("wired.control_edges");
            ce.add(bin.control_edges);
        }
    }
    return bin;
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
run_dispatch_transaction(const WiredProgram& program,
                         const std::vector<KernelDesc>& kernels,
                         const GpuConfig& cfg,
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
        for (int s = 1; s < program.num_streams; ++s)
            gpu->create_stream();
        const auto host_start = std::chrono::steady_clock::now();
        enqueue_wired(program, kernels, *gpu, *events);
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
dispatch_bound(const WiredProgram& program,
               const std::vector<KernelDesc>& kernels,
               const GpuConfig& cfg, double obs_anchor)
{
    // When observability is on, collect the device timeline regardless
    // of the caller's setting so kernel spans land on the merged trace.
    const bool obs_on = obs::enabled();
    GpuConfig gpu_cfg = cfg;
    gpu_cfg.collect_trace = cfg.collect_trace || obs_on;

    std::unique_ptr<SimGpu> gpu;
    std::vector<EventId> events;
    DispatchResult result = run_dispatch_transaction(
        program, kernels, gpu_cfg, &gpu, &events);

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

    collect_wired_profiles(program, events, *gpu, result);
    return result;
}

}  // namespace

DispatchResult
dispatch_plan(const ExecutionPlan& plan, const Graph& graph,
              const TensorMap& tmap, const GpuConfig& cfg)
{
    obs::ScopedSpan dispatch_span(obs::Category::Dispatch,
                                  "dispatch_plan");
    const double obs_anchor = obs::enabled() ? obs::now_ns() : 0.0;
    // The bind is the host work a replay of a lowered binary skips, so
    // it counts as enqueue time.
    const auto bind_start = std::chrono::steady_clock::now();
    const WiredBinary bound =
        bind_plan(plan, graph, tmap, cfg, /*profiling=*/true);
    const double bind_ns = elapsed_ns(bind_start);

    DispatchResult result =
        dispatch_bound(bound.program, bound.kernels, cfg, obs_anchor);
    result.host_enqueue_ns += bind_ns;
    if (obs::enabled()) {
        static obs::Counter& dispatches = obs::counter("dispatch.plans");
        dispatches.add();
    }
    return result;
}

DispatchResult
replay_wired(const WiredBinary& bin, const GpuConfig& cfg)
{
    obs::ScopedSpan replay_span(obs::Category::Dispatch, "wired.replay");
    const double obs_anchor = obs::enabled() ? obs::now_ns() : 0.0;
    DispatchResult result =
        dispatch_bound(bin.program, bin.kernels, cfg, obs_anchor);
    if (obs::enabled()) {
        static obs::Counter& replays = obs::counter("wired.replays");
        replays.add();
        obs::observe("wired.replay_host_ns", result.host_enqueue_ns);
    }
    return result;
}

}  // namespace astra

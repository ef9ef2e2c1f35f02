/**
 * @file
 * The dispatch engine: every mini-batch, generic or compiled, is a
 * bound plan (a preresolved command array plus one prebuilt kernel per
 * step) walked on a simulated device.
 *
 * Astra's premise (paper §2.1) is that mini-batch iterations are
 * predictable: once wiring converges, millions of identical steps
 * follow. So the per-step work — producer chasing, cross-stream wait
 * resolution, kernel descriptor construction — is done once, when a
 * plan is bound, and frozen:
 *
 *  - WiredProgram: one contiguous array of launch records — every
 *    kernel launch, event record and event wait of the mini-batch,
 *    with streams and event slots preresolved. Walking it
 *    (enqueue_wired) is a branch-light loop.
 *  - bind_plan: compile_plan plus one prebuilt kernel descriptor per
 *    step (fn pointers bound to arena byte offsets through the
 *    TensorMap). dispatch_plan binds on every call and then walks;
 *    the data-parallel dispatcher and the what-if engine walk the
 *    same bound form.
 *  - WiredBinary: a bound plan plus the arena interval table
 *    (offset/size/lifetime per tensor). lower_plan audits every
 *    arena-byte reuse against the program's own happens-before order
 *    and inserts explicit control edges where reuse would otherwise
 *    rely on dynamic liveness (the npu_compiler feasible-memory-
 *    scheduler discipline; see memory_static.h). replay_wired walks
 *    a lowered binary with no per-call bind at all.
 *  - verify_wired() is the compile-time barrier/ordering simulator: it
 *    replays the command stream abstractly (stream FIFO + event
 *    vector clocks) and rejects stale event slots, use-before-def and
 *    overlap-while-live — so an illegal lowering is caught in tests,
 *    not as silent value corruption a million steps in.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/dispatcher.h"
#include "runtime/memory_static.h"
#include "runtime/plan.h"
#include "runtime/tensor_map.h"
#include "sim/gpu.h"
#include "sim/kernel.h"

namespace astra {

/** One preresolved dispatcher command. */
enum class WiredOp : uint8_t
{
    Launch,  ///< launch kernels[arg] (arg = plan step index)
    Record,  ///< record event slot `arg` on `stream`
    Wait,    ///< make `stream` wait on event slot `arg`
};

/** One entry of the contiguous command array. */
struct WiredCmd
{
    WiredOp op = WiredOp::Launch;
    int32_t stream = 0;
    int32_t arg = -1;
};

/** Profiling readout recipe for one instrumented plan step. */
struct WiredProfile
{
    std::string key;
    bool epoch_metric = false;
    int32_t step = -1;        ///< owning plan step (diagnostics)
    int32_t start_slot = -1;  ///< unused for epoch metrics
    int32_t end_slot = -1;
    /** Slots of the preceding barrier's rendezvous events, as a range
        into WiredProgram::barrier_slots (empty when no barrier). */
    int32_t barrier_begin = 0;
    int32_t barrier_end = 0;
};

/**
 * The preresolved command stream of one mini-batch: the dependency
 * analysis of a plan, done once. Commands of plan step i occupy
 * cmds[step_begin[i], step_begin[i+1]) — the span boundary is where
 * enqueue_wired's after-step hook fires (the dp path's gradient
 * flushes).
 */
struct WiredProgram
{
    std::vector<WiredCmd> cmds;

    /** Per step, first command index; has steps+1 entries. */
    std::vector<int32_t> step_begin;

    /** Per step, 1 when the step is a Barrier (no launch, no hook). */
    std::vector<uint8_t> is_barrier;

    /** Flat array of barrier rendezvous slots (see WiredProfile). */
    std::vector<int32_t> barrier_slots;

    /** Number of event slots the replay must create. */
    int32_t num_events = 0;

    int num_streams = 1;

    /** Whether profiling instrumentation was compiled in. */
    bool profiling = false;

    /** Readout recipes, in plan-step order. */
    std::vector<WiredProfile> profiles;
};

/**
 * Compile a plan's dispatch into a WiredProgram: producer steps,
 * cross-stream waits, barrier rendezvous and profiling events, in
 * plan-step order.
 *
 * @param profiling honor the steps' profile/epoch_metric flags (false
 *        skips instrumentation events — the dp path measures whole
 *        devices, not steps).
 */
WiredProgram compile_plan(const ExecutionPlan& plan, const Graph& graph,
                          bool profiling);

/**
 * Fill result.profile_ns from a synchronized device's event times,
 * following the program's readout recipes. `events` maps slot ->
 * EventId as created by enqueue_wired.
 */
void collect_wired_profiles(const WiredProgram& program,
                            const std::vector<EventId>& events,
                            const SimGpu& gpu, DispatchResult& result);

/**
 * Realize control edges in a compiled program: for each edge, a new
 * event slot is recorded right after `from_step`'s launch and waited
 * on right before `to_step`'s launch. Spans and slot counts are
 * updated; edges into/from barrier steps are invalid (they already
 * rendezvous every stream).
 */
void insert_control_edges(WiredProgram& program,
                          const std::vector<ControlEdge>& edges);

/** One tensor's placement in the arena, with its static lifetime. */
struct ArenaInterval
{
    NodeId node = kInvalidNode;
    int64_t offset = 0;  ///< arena byte offset (DevPtr of the tensor)
    int64_t bytes = 0;
    int32_t def_step = -1;      ///< producing step; -1 = live at entry
    int32_t last_use_step = -1; ///< last reader; steps() = whole batch
};

/** Per-step view into WiredBinary::uses / defs (interval indices). */
struct WiredStepAccess
{
    int32_t use_begin = 0, use_end = 0;
    int32_t def_begin = 0, def_end = 0;
};

/**
 * A bound mini-batch (program + prebuilt kernels), plus the arena map
 * once lowered. bind_plan fills only `program` and `kernels`;
 * lower_plan adds the rest. Valid as long as the TensorMap (and its
 * SimMemory) it was bound against outlive it — kernel compute closures
 * capture raw buffer pointers, exactly like recorded CUDA graphs
 * capture device pointers.
 */
struct WiredBinary
{
    WiredProgram program;

    /** Per plan step; barrier steps hold an empty descriptor. */
    std::vector<KernelDesc> kernels;

    /** Arena placement and lifetime of every tensor the plan touches. */
    std::vector<ArenaInterval> intervals;

    /** Flat interval-index arrays, viewed per step through `access`. */
    std::vector<int32_t> uses, defs;
    std::vector<WiredStepAccess> access;

    /** Executed arena extent in bytes (the TensorMap's peak). */
    int64_t arena_bytes = 0;

    /**
     * Extent of the feasible-memory static re-packing of the same
     * lifetimes (memory_static.h) — the arena a from-scratch static
     * planner would need. Reported for observability; the executed
     * offsets stay the TensorMap's so values live where kernels were
     * bound.
     */
    int64_t packed_bytes = 0;

    /** Control edges lowering had to insert to make reuse legal. */
    int64_t control_edges = 0;

    int steps() const { return static_cast<int>(kernels.size()); }
};

/**
 * Bind a plan for dispatch: compile_plan, then build one kernel
 * descriptor per non-barrier step against the TensorMap (names, fused
 * shapes, compute closures and costs under `cfg`). No arena audit.
 *
 * @param profiling compile the steps' profile/epoch_metric
 *        instrumentation (see compile_plan).
 */
WiredBinary bind_plan(const ExecutionPlan& plan, const Graph& graph,
                      const TensorMap& tmap, const GpuConfig& cfg,
                      bool profiling);

/**
 * Walk a bound program onto a device whose streams already exist:
 * create the program's event slots in `events`, then issue every
 * command in order. `after_step(i)` runs right after non-barrier step
 * i's commands — the injection point for the dp path's gradient-bucket
 * flushes. Commands the hook enqueues share the host enqueue pipeline,
 * so comm launch overhead delays later compute launches exactly as a
 * DDP hook does on real hardware.
 */
void enqueue_wired(const WiredProgram& program,
                   const std::vector<KernelDesc>& kernels, SimGpu& gpu,
                   std::vector<EventId>& events,
                   const std::function<void(int)>& after_step = {});

/**
 * Lower a converged plan into a wired binary: bind it (with profiling
 * instrumentation), tabulate arena intervals, and audit every
 * byte-overlapping interval pair against the program's happens-before
 * order — inserting control edges where the schedule alone does not
 * order a reuse. Panics if the plan/TensorMap pair is statically
 * unschedulable (e.g. two live tensors share bytes).
 */
WiredBinary lower_plan(const ExecutionPlan& plan, const Graph& graph,
                       const TensorMap& tmap, const GpuConfig& cfg);

/**
 * Replay a lowered binary on a fresh simulated device: the engine
 * dispatch_plan runs, minus the bind — a tight loop over the command
 * array with no dependency analysis, descriptor construction or hash
 * lookups. The same transaction (fault retry, autoboost salting) runs
 * both, so results are bit-identical to dispatch_plan of the same plan
 * unless lowering had to insert control edges.
 * DispatchResult::host_enqueue_ns reports the measured wall-time cost
 * of the walk, comparable against dispatch_plan's bind + walk.
 */
DispatchResult replay_wired(const WiredBinary& bin, const GpuConfig& cfg);

/** Outcome of verify_wired. */
struct WiredVerdict
{
    bool ok = true;
    std::string why;  ///< first violation, empty when ok
};

/**
 * The barrier/ordering simulator: abstractly execute the command
 * stream (stream FIFO semantics, event record/wait edges as vector
 * clocks) and check
 *  - liveness: every command executes — a wait on a never-recorded
 *    slot (stale event) or a record/wait cycle is a deadlock;
 *  - slot discipline: no event slot recorded twice, all slot/stream/
 *    step references in bounds;
 *  - use-before-def: every interval a step reads is defined by a step
 *    whose *completion* is ordered before the reader's launch;
 *  - overlap-while-live: byte-overlapping intervals must have one's
 *    every access ordered before the other's definition (entry-live
 *    intervals may never be overlapped).
 */
WiredVerdict verify_wired(const WiredBinary& bin);

}  // namespace astra

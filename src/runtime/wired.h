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
 *  - A bind has two halves. The per-binding half belongs to a fixed
 *    unit list: each unit's producer units (UnitProducers) and its
 *    kernel descriptors (fn pointers bound to arena byte offsets
 *    through the TensorMap; UnitKernels keeps them). The per-trial
 *    half is only the command stream over those units (compile_steps):
 *    streams, events, waits and profile records. A plan skeleton
 *    (core/scheduler.h) keeps the first half for every trial of its
 *    binding, so Scheduler::bind compiles only the second.
 *    bind_plan runs both halves back to back over any other plan;
 *    dispatch_plan binds on every call and then walks, and the
 *    data-parallel dispatcher walks the same bound form.
 *  - WiredBinary: the one bound form every bind returns and every walk
 *    takes: the program, one descriptor pointer per step, and an owner
 *    keeping those descriptors alive (the binary's own copies, or the
 *    skeleton's UnitKernels table for Scheduler::bind).
 *    lower_plan binds one, tabulates the plan's arena intervals
 *    (ArenaTable: offset/size/lifetime per tensor in the TensorMap's
 *    arena) and proves the binary against them with verify_wired,
 *    then drops the table; it never adds synchronization. The memory
 *    planner hands a tensor freed bytes only when every reader of
 *    their previous occupant is its ancestor, so a dependency-ordered
 *    schedule already orders every reuse. replay_wired walks a
 *    lowered binary with no per-call bind at all.
 *  - verify_wired() is the compile-time barrier/ordering simulator: it
 *    replays the command stream abstractly (stream FIFO + event
 *    vector clocks) and rejects stale event slots, use-before-def and
 *    overlap-while-live — so an illegal lowering panics when it is
 *    lowered, not as silent value corruption a million steps in.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/dispatcher.h"
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
    ProfileKey key;
    bool epoch_metric = false;
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

    /** Readout recipes, in plan-step order. */
    std::vector<WiredProfile> profiles;

    /**
     * Per step, the profile key its launch carries into the kernel
     * trace (none for an unkeyed step or a barrier). A descriptor may
     * serve trials under different keys, so the key lives here.
     */
    std::vector<ProfileKey> keys;
};

/**
 * Each unit's producer units over a fixed unit list: the other units
 * writing a node it reads, without repeats, in first-read order. Unit
 * u's are units[begin[u], begin[u+1]).
 */
struct UnitProducers
{
    std::vector<int32_t> begin;
    std::vector<int32_t> units;
};

/** The producer units of every unit (a barrier's list is empty). */
UnitProducers unit_producers(const std::vector<PlanStep>& units,
                             const Graph& graph);

/**
 * One step of a plan by reference to a unit list: the unit it launches
 * (-1 for a barrier), its stream, the library a GEMM unit runs under,
 * and its profiling readout (PlanStep's fields of the same names).
 */
struct UnitStep
{
    int32_t unit = -1;
    int32_t stream = 0;
    GemmLib lib = GemmLib::Cublas;
    bool profile = false;
    bool epoch_metric = false;
    ProfileKey key;
};

/**
 * The per-trial half of a bind: compile the steps' dispatch into a
 * WiredProgram (cross-stream waits on each unit's producers, barrier
 * rendezvous and profiling events, in step order). Every unit a step
 * reads from must be launched by an earlier step.
 *
 * @param profiling honor the steps' profile/epoch_metric flags (false
 *        skips instrumentation events — the dp path measures whole
 *        devices, not steps).
 */
WiredProgram compile_steps(const std::vector<UnitStep>& steps,
                           const UnitProducers& producers, int num_streams,
                           bool profiling);

/**
 * compile_steps over a plan whose steps are their own units: both
 * halves' command work, back to back.
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

/** One tensor's placement in the arena, with its static lifetime. */
struct ArenaInterval
{
    NodeId node = kInvalidNode;
    int64_t offset = 0;  ///< arena byte offset (DevPtr of the tensor)
    int64_t bytes = 0;
    int32_t def_step = -1;      ///< producing step; -1 = live at entry
    int32_t last_use_step = -1; ///< last reader; steps() = whole batch
};

/**
 * What verify_wired checks a binary against: the arena placement and
 * lifetime of every tensor a plan touches, and the intervals each step
 * reads (a step defines the intervals whose def_step it is).
 */
struct ArenaTable
{
    std::vector<ArenaInterval> intervals;

    /** Step i reads intervals uses[use_begin[i], use_begin[i+1]). */
    std::vector<int32_t> uses;
    std::vector<int32_t> use_begin;  ///< steps+1 entries, or none
};

/**
 * Tabulate a plan's arena intervals against the TensorMap it is bound
 * to: graph sources are live at entry, and graph outputs and
 * never-read results stay live to the end of the mini-batch.
 */
ArenaTable arena_table(const ExecutionPlan& plan, const Graph& graph,
                       const TensorMap& tmap);

/**
 * A bound mini-batch, the one form every bind returns and every walk
 * takes: the command stream and, per plan step, the prebuilt kernel it
 * launches. `owner` keeps those descriptors alive, so a binary (and a
 * copy of it) stays valid after what bound it is gone. Valid as long
 * as the TensorMap (and its SimMemory) it was bound against outlive it
 * — kernel compute closures capture raw buffer pointers, exactly like
 * recorded CUDA graphs capture device pointers.
 */
struct WiredBinary
{
    WiredProgram program;

    /** Per plan step; null for a barrier. */
    std::vector<const KernelDesc*> kernels;

    /**
     * What `kernels` point into: the binary's own descriptors, or the
     * UnitKernels table of the plan skeleton it was bound over.
     */
    std::shared_ptr<const void> owner;

    int steps() const { return static_cast<int>(kernels.size()); }
};

/**
 * Bind a plan for dispatch, both halves back to back: compile_plan,
 * then build one kernel descriptor per non-barrier step against the
 * TensorMap (names, fused shapes, compute closures and costs under
 * `cfg`), owned by the binary.
 *
 * @param profiling compile the steps' profile/epoch_metric
 *        instrumentation (see compile_steps).
 */
WiredBinary bind_plan(const ExecutionPlan& plan, const Graph& graph,
                      const TensorMap& tmap, const GpuConfig& cfg,
                      bool profiling);

/**
 * The descriptor side of the per-binding half: kernel descriptors for
 * one fixed unit list (a plan skeleton's), each built on first use and
 * kept for every later trial over the same units. A GEMM unit keeps
 * one descriptor per library it has run with, so at most kNumGemmLibs;
 * any other unit keeps one. A descriptor depends on neither the stream
 * nor the clock draw: only on its unit and library, on the device's
 * cost constants (num_sms, flops_per_sm_ns, hbm_gbps), and, when
 * kernels execute, on the buffers its compute closure reads
 * (TensorMap::id). A table serves the one such context it was made for
 * (serves()). Thread-safe: a built descriptor never changes or moves,
 * so trials launch it by reference while others fill in more.
 */
class UnitKernels
{
  public:
    UnitKernels(const TensorMap& tmap, const GpuConfig& cfg,
                size_t num_units);

    /**
     * A table for `units` in `from`'s device context that starts with a
     * copy of each descriptor `from` built, under every library, for a
     * unit equal in content (kind, fused axis and nodes) to one of
     * `units`; `from_units` is the unit list `from` was made for. Units
     * are matched by their anchor, their largest node id, which no two
     * units of one list share (`graph_size` bounds the ids).
     */
    UnitKernels(const UnitKernels& from,
                const std::vector<PlanStep>& from_units,
                const std::vector<PlanStep>& units, size_t graph_size);

    /** True when descriptors built for (tmap, cfg) equal this table's. */
    bool serves(const TensorMap& tmap, const GpuConfig& cfg) const;

    /**
     * Per step, its unit's descriptor under the step's library (null
     * for a barrier), building each missing one. `units` is the unit
     * list the table was made for, and serves(tmap, cfg) must hold.
     */
    std::vector<const KernelDesc*>
    resolve(const std::vector<PlanStep>& units,
            const std::vector<UnitStep>& steps, const Graph& graph,
            const TensorMap& tmap, const GpuConfig& cfg) const;

  private:
    uint64_t tmap_id_;  ///< 0 when kernels do not execute
    bool execute_kernels_;
    int num_sms_;
    double flops_per_sm_ns_;
    double hbm_gbps_;

    mutable std::mutex mu_;
    /** Built descriptors; a deque keeps their addresses as it grows. */
    mutable std::deque<KernelDesc> descs_;
    /** Per (unit, library): index into descs_, -1 until built. */
    mutable std::vector<int32_t> slot_;
};

/**
 * Walk a bound program onto a device whose streams already exist:
 * create the program's event slots in `events`, then issue every
 * command in order. `after_step(i)` runs right after non-barrier step
 * i's commands — the injection point for the dp path's gradient-bucket
 * flushes. Commands the hook enqueues share the host enqueue pipeline,
 * so comm launch overhead delays later compute launches exactly as a
 * DDP hook does on real hardware. Kernels are launched by reference
 * (SimGpu::launch_ref): the descriptors `kernels` (a WiredBinary's)
 * point at must outlive the device's drain.
 */
void enqueue_wired(const WiredProgram& program,
                   const std::vector<const KernelDesc*>& kernels,
                   SimGpu& gpu, std::vector<EventId>& events,
                   const std::function<void(int)>& after_step = {});

/**
 * Lower a converged plan into a wired binary: bind it (with profiling
 * instrumentation), tabulate its arena_table, and prove the binary
 * against the table with verify_wired. Panics with the verifier's
 * diagnosis when the plan/TensorMap pair does not verify (e.g. two
 * live tensors share bytes, or the schedule does not order a reuse).
 * The binary keeps no table.
 */
WiredBinary lower_plan(const ExecutionPlan& plan, const Graph& graph,
                       const TensorMap& tmap, const GpuConfig& cfg);

/**
 * The same lowering of a plan bound over a kept skeleton: `bind`
 * returns it (a Scheduler::bind of the configuration `plan` was built
 * from), and the binary copies the descriptors it launches out of the
 * skeleton's table instead of building them again. It owns exactly
 * those copies and holds nothing of the table.
 */
WiredBinary lower_plan(const ExecutionPlan& plan,
                       const std::function<WiredBinary()>& bind,
                       const Graph& graph, const TensorMap& tmap);

/**
 * Replay a lowered binary on a fresh simulated device: the engine
 * dispatch_plan runs, minus the bind — a tight loop over the command
 * array with no dependency analysis, descriptor construction or hash
 * lookups. The same transaction (fault retry, autoboost salting) runs
 * both, so results are bit-identical to dispatch_plan of the same
 * plan. DispatchResult::host_enqueue_ns reports the measured wall-time
 * cost of the walk, comparable against dispatch_plan's bind + walk.
 */
DispatchResult replay_wired(const WiredBinary& bin, const GpuConfig& cfg);

/**
 * dispatch_plan of the binary `bind` returns (a trial's
 * Scheduler::bind, or a plan's bind_plan), timed as host enqueue; then
 * the transaction and readout replay_wired runs, under the
 * "dispatch_plan" span.
 */
DispatchResult dispatch_plan(const std::function<WiredBinary()>& bind,
                             const GpuConfig& cfg);

/** Outcome of verify_wired. */
struct WiredVerdict
{
    bool ok = true;
    std::string why;  ///< first violation, empty when ok
};

/**
 * The barrier/ordering simulator: abstractly execute the command
 * stream (stream FIFO semantics, event record/wait edges as vector
 * clocks) and check, against `table`,
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
WiredVerdict verify_wired(const WiredBinary& bin, const ArenaTable& table);

}  // namespace astra

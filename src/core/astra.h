/**
 * @file
 * Top-level Astra API: ties the enumerator, memory planner, scheduler
 * and custom wirer together for one training graph.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *   GraphBuilder b;
 *   ... build forward graph, append_backward(b, loss) ...
 *   AstraSession session(b.graph(), options);
 *   WirerResult r = session.optimize();       // online exploration
 *   session.run(r.best_config);               // steady-state training
 */
#pragma once

#include <memory>
#include <string>

#include "core/plan_store.h"
#include "core/whatif.h"
#include "core/wirer.h"
#include "runtime/dispatcher.h"

namespace astra {

struct BackwardResult;
struct RecomputePlan;

/** All knobs of an Astra session. */
struct AstraOptions
{
    AstraFeatures features;
    GpuConfig gpu;
    SchedulerOptions sched;
    int num_streams = 2;

    /**
     * Measure the clock instead of pinning it (§7): multiply every
     * sample, and the plan store's L1 verification, by the clock
     * multiplier the device reports for its mini-batch, and rank
     * choices within kTieRel of the best as ties on the lowest index.
     * Off (the paper's regime) keeps raw times and the strict
     * first-best; on converges under autoboost to the configuration a
     * base-clock run finds.
     */
    bool normalize_clock = false;

    /**
     * What-if decision path (core/whatif.h, §5.13): replay every
     * exploration trial on the host, then measure each stage's bound
     * winner on the device. Off (the default) measures every trial; on
     * converges to the same configuration with far fewer mini-batches.
     * The engine only arms when its replay is provably exact against a
     * dispatch: no fault injection, and either autoboost off or
     * normalize_clock on.
     */
    WhatIfOptions whatif;

    /**
     * Safety valve on total exploration mini-batches. Exhausting it
     * never aborts: exploration stops, everything measured so far is
     * bound to its best, and WirerResult::truncated is set. The budget
     * is partitioned evenly across allocation strategies up front
     * (each strategy owns its share), so which trials the valve cuts
     * is a deterministic function of the options, never of how
     * concurrent strategies happen to interleave.
     */
    int64_t max_minibatches = 200000;

    /**
     * Host threads for the wirer's exploration (1 = fully serial).
     * Allocation strategies explore on worker threads, each with its
     * own profile shard, clock domain and simulated device. Any value
     * produces results bit-identical to 1: every ordered reduction
     * (profile merge, convergence report, cross-strategy argmin with
     * lowest-index ties) happens after the join, in strategy order.
     * With a BindFn, trials stay sequential within a strategy, but
     * distinct strategies' binds run concurrently (their tensor maps
     * are disjoint).
     */
    int wirer_threads = 1;

    /**
     * Simulated HBM per allocation strategy; 0 = sized automatically
     * from the graph's tensor footprint. A pool gets host memory only
     * when a tensor value is first read or written (sim/memory.h), so
     * with gpu.execute_kernels off it may exceed the host's memory.
     */
    int64_t hbm_bytes = 0;

    /**
     * Directory of the persistent plan knowledge base
     * (core/plan_store.h). When non-empty, optimize() walks the store's
     * L1/L2 ladder before exploring — an exact hit skips wiring
     * entirely (one measured mini-batch verifies the plan), a shape
     * neighbor warm-starts the wirer — and writes the winner back for
     * the next process. Defaults to the ASTRA_PLAN_STORE environment
     * variable; "" disables.
     */
    std::string plan_store = plan_store_dir_from_env();

    /**
     * Backward-pass structure of the graph, enabling the last rung of
     * the OOM degradation ladder: when even liveness-based buffer
     * reuse cannot fit the device, the session rewrites the graph with
     * recompute-for-memory (autodiff/recompute.h) and retries. Must
     * outlive the session. nullptr disables the rung (allocation
     * failure past the reuse rung then propagates as MemoryError).
     */
    const BackwardResult* grads = nullptr;
};

/**
 * One graph's compilation + adaptive-execution state.
 *
 * Device-memory pressure is handled with a graceful-degradation ladder
 * instead of a crash, mirroring what a training framework does when
 * cudaMalloc fails:
 *   1. Bump allocation (fastest planning, every tensor resident);
 *   2. liveness-based buffer reuse (MemoryPlanMode::Reuse);
 *   3. recompute-for-memory graph rewrite (only when options().grads
 *      is provided), then the ladder restarts at rung 1.
 * Each rung is tried per allocation strategy; plan_mode() and
 * used_recompute() report where the session landed. Injected
 * allocation faults (GpuConfig::faults, alloc: specs) exercise the
 * same rungs as genuine exhaustion.
 */
class AstraSession
{
  public:
    AstraSession(const Graph& graph, AstraOptions opts = {});
    ~AstraSession();

    AstraSession(const AstraSession&) = delete;
    AstraSession& operator=(const AstraSession&) = delete;

    /** The executed graph (the recompute rewrite when OOM forced it). */
    const Graph& graph() const { return *graph_; }
    const SearchSpace& space() const { return space_; }
    const Scheduler& scheduler() const { return *scheduler_; }
    const AstraOptions& options() const { return opts_; }

    /** Tensor map realized under the given allocation strategy. */
    const TensorMap& tensor_map(int strategy = 0) const;

    /** Memory-planning rung the strategy's tensor map landed on. */
    MemoryPlanMode plan_mode(int strategy = 0) const;

    /** True when OOM forced the recompute-for-memory rewrite. */
    bool used_recompute() const { return recompute_ != nullptr; }

    /**
     * Run the online exploration; every trial is a real mini-batch.
     * With AstraOptions::plan_store set, first walks the knowledge
     * base's ladder: an L1 exact hit returns the stored configuration
     * after a single measured verification mini-batch; an L2 neighbor
     * warm-starts the wirer; and the winner is written back. The
     * report's store_tier records which rung answered. The store
     * trusts clean measurements only: an L1 verification that faulted
     * or drifted demotes the hit to L2, and a winner whose best_ns is
     * kUnmeasuredNs is not written back.
     */
    WirerResult optimize(const BindFn& bind = {});

    /**
     * Whether a configuration read from outside this session (a config
     * file, a plan-store entry) fits its *current* search space: the
     * strategy, group count, every fused chunk, the stream count and
     * every epoch choice must be valid here. The plan-store key covers
     * the graph and the device timing model but not the scheduler's
     * coarse static knowledge (SchedulerOptions), and a changed
     * super-epoch target can reshape the stream space until a stored
     * epoch choice indexes out of range. On a misfit returns false
     * with the reason in `*why`; run() requires a fitting config.
     */
    bool config_fits(const ScheduleConfig& config, std::string* why) const;

    /**
     * Dispatch one mini-batch with an explicit configuration: the
     * first run of a configuration lowers it into a wired binary
     * (cached in the scheduler, Scheduler::wire_cached), and every run
     * replays that binary (runtime/wired.h).
     */
    DispatchResult run(const ScheduleConfig& config) const;

    /**
     * Native-framework baseline on this graph (single stream, one
     * kernel per node, default library), on strategy-0 allocation.
     */
    DispatchResult run_native() const;

  private:
    /**
     * The custom wirer (core/wirer.cc): explore this session's search
     * space under its options, starting from the plan-store knowledge
     * in `warm`. An exception out of `bind` propagates once every
     * strategy's pipeline has stopped, and nothing of the aborted
     * exploration is kept.
     */
    WirerResult explore(const WirerWarmStart& warm,
                        const BindFn& bind) const;

    /**
     * Build space/scheduler/memories/maps for the current graph_,
     * walking the Bump -> Reuse rungs per strategy. Throws MemoryError
     * when even reuse cannot fit — the ctor then takes the recompute
     * rung (if enabled) and calls init() again on the rewritten graph.
     */
    void init();

    const Graph* graph_;
    AstraOptions opts_;
    SearchSpace space_;
    std::unique_ptr<Scheduler> scheduler_;
    std::vector<std::unique_ptr<SimMemory>> memories_;
    std::vector<std::unique_ptr<TensorMap>> maps_;
    std::vector<MemoryPlanMode> plan_modes_;
    std::unique_ptr<RecomputePlan> recompute_;
};

/** Total dense-tensor footprint of a graph in bytes. */
int64_t graph_tensor_bytes(const Graph& graph);

}  // namespace astra

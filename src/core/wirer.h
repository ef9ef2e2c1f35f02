/**
 * @file
 * The custom wirer (paper §4.7): online, work-conserving exploration of
 * the enumerated state space.
 *
 * Every trial is a real training mini-batch dispatched on the device;
 * fine-grained cudaEvent measurements land in the profile index under
 * (context, variable, choice) keys, and the update tree advances. The exploration
 * is phased exactly like the paper's update tree:
 *
 *   for each allocation strategy (hierarchical fork, §4.5.2):
 *     stage A: Parallel over fusion-group chunk variables
 *     stage B: Parallel over kernel-library variables
 *              (context: the bound chunk of stage A)
 *     stage C: Parallel over super-epochs; Prefix over epochs inside
 *              each; flattened Exhaustive within an epoch
 *     best-of-strategy run (end-to-end measurement)
 *   pick the fastest strategy's configuration.
 */
#pragma once

#include <functional>
#include <vector>

#include "core/profile_index.h"
#include "core/scheduler.h"
#include "core/whatif.h"
#include "obs/convergence.h"
#include "runtime/dispatcher.h"

namespace astra {

/** Which adaptation dimensions are active (Astra_F / FK / FKS / all). */
struct AstraFeatures
{
    bool fusion = true;          ///< GEMM fusion chunk adaptation (F)
    bool kernel_choice = true;   ///< GEMM library adaptation (K)
    bool streams = true;         ///< multi-stream scheduling (S)
    bool alloc = true;           ///< allocation-strategy fork (all)
    bool elementwise_fusion = true;
};

/** Feature presets matching the paper's evaluation columns. */
AstraFeatures features_f();
AstraFeatures features_fk();
AstraFeatures features_fks();
AstraFeatures features_all();

/**
 * Knowledge transferred from the plan store (core/plan_store.h) into an
 * exploration. With a config (an L2 shape-neighbor's winner) the wirer
 * restricts itself to the neighbor's allocation strategy, pre-binds
 * every variable whose transferred choice is valid in this graph's
 * space (pre-bound variables are excluded from stage exploration *and*
 * from profiling — §5.1: instrument only what is being explored),
 * measures the transferred configuration once up front to seed
 * best-so-far, and explores only the residual space. No measurement
 * transfers: the neighbor timed a different graph.
 */
struct WirerWarmStart
{
    /** True when `config` carries an L2 neighbor's winner. */
    bool has_config = false;

    /** The neighbor's winning configuration. */
    ScheduleConfig config;

    /**
     * Clean end-to-end time of `config` on this graph and device when
     * the caller already measured it (a drift-demoted L1 hit's
     * verification); negative otherwise. A run that would dispatch
     * exactly `config` reuses it instead.
     */
    double measured_ns = -1.0;
};

/**
 * What a wirer variable adapts. Its profile-key variable id
 * (ProfileKey::variable) is `index << 2 | kind`, where `index` is the
 * group id (GroupChunk, GroupLib), the MatMul's position in
 * SearchSpace::single_mms (SingleLib) or the epoch's position in the
 * strategy's stream space (EpochSplit).
 */
enum class WirerVariable : uint32_t
{
    GroupChunk = 0,
    GroupLib = 1,
    SingleLib = 2,
    EpochSplit = 3,
};

/** Profile-key variable id of the `kind` variable for `index`. */
uint32_t wirer_variable_id(WirerVariable kind, int index);

/** The kind a wirer variable id encodes. */
WirerVariable wirer_variable_kind(uint32_t id);

/** Options for the custom wirer. */
struct WirerOptions
{
    AstraFeatures features;
    GpuConfig gpu;
    int num_streams = 2;

    /** Plan-store knowledge to start from (none by default). */
    WirerWarmStart warm;

    /**
     * Safety valve on total exploration mini-batches. Exhausting it
     * never aborts: exploration stops, everything measured so far is
     * bound to its best, and WirerResult::truncated is set. The budget
     * is partitioned evenly across allocation strategies up front
     * (each strategy owns its share), so which trials the valve cuts
     * is a deterministic function of the options — never of how
     * concurrent strategies happen to interleave.
     */
    int64_t max_minibatches = 200000;

    /**
     * Host threads for exploration (1 = fully serial). Allocation
     * strategies explore on worker threads, each with its own profile
     * shard, clock domain and simulated device. Any value produces
     * bit-identical results to threads=1: every ordered
     * reduction (profile merge, convergence report, cross-strategy
     * argmin with lowest-index ties) happens after the join, in
     * strategy order. With a BindFn, trials that mutate tensors stay
     * sequential within a strategy, but distinct strategies' binds run
     * concurrently — the callback must tolerate that (the tensor maps
     * are disjoint per strategy).
     */
    int threads = 1;

    /**
     * Measure the clock instead of pinning it (§7): multiply every
     * sample by the clock multiplier the device reports for its
     * mini-batch, and rank choices within kTieRel of the best as ties
     * on the lowest index. Off (the paper's regime) keeps raw times
     * and the strict first-best; on converges under autoboost to the
     * configuration a base-clock run finds.
     */
    bool normalize_clock = false;

    /**
     * What-if decision path (§5.13): replay every exploration trial on
     * the host, then measure each stage's bound winner on the device.
     * Off (the default) measures every trial; on converges to the same
     * configuration with far fewer mini-batches. The engine only arms
     * when its replay is provably exact against a dispatch: no fault
     * injection, and either autoboost off or normalize_clock on.
     */
    WhatIfOptions whatif;
};

/**
 * Called before each exploration mini-batch so the caller can load the
 * next real training batch into the strategy's tensor map (work
 * conservation). May be empty for timing-only sweeps. `minibatch`
 * numbers the trials *within the strategy* owning the tensor map
 * (0, 1, 2, ... per strategy): strategy pipelines may run on separate
 * threads, so a global sequence number would depend on scheduling.
 * With threads > 1 the callback runs concurrently for different
 * strategies and must be thread-safe across distinct tensor maps.
 */
using BindFn = std::function<void(const TensorMap&, int64_t minibatch)>;

/** Machine-readable reason the exploration ended the way it did. */
enum class WirerTermination
{
    Complete,         ///< full sweep, everything bound from measurements
    Budget,           ///< the mini-batch safety valve tripped
    FaultQuarantine,  ///< a config exhausted its fault-retry budget
};

/** Stable string name ("complete", "budget", ...), for reports. */
const char* wirer_termination_name(WirerTermination t);

/**
 * End-to-end time (ns) given to a configuration whose every final
 * dispatch faulted, past the dispatcher's replays and the wirer's own
 * fault budget. No real measurement can beat it, so such a strategy
 * loses the cross-strategy argmin; a result whose best_ns is still
 * this value never measured its winner, and the plan store keeps no
 * entry for it.
 */
constexpr double kUnmeasuredNs = 1e300;

/** Outcome of one full exploration. */
struct WirerResult
{
    /** The winning configuration (strategy, chunks, libs, streams). */
    ScheduleConfig best_config;

    /**
     * Measured end-to-end time of the winning configuration (ns);
     * kUnmeasuredNs when no final run of it measured clean.
     */
    double best_ns = 0.0;

    /** Mini-batches used for exploration (Table 7's "configs"). */
    int64_t minibatches = 0;

    /**
     * True when the mini-batch safety valve cut exploration short;
     * best_config is then the best of what was actually measured.
     */
    bool truncated = false;

    /** Why exploration stopped (refines `truncated` into a reason). */
    WirerTermination termination = WirerTermination::Complete;

    /** Per-strategy best end-to-end times, indexed by strategy id. */
    std::vector<double> strategy_ns;

    /**
     * Final profile index (for inspection/tests). Empty after a
     * plan-store L1 hit: nothing was explored. Strategy k's keys carry
     * contexts of shard k (ContextTable::shard_of).
     */
    ProfileIndex index;

    /**
     * Per-stage exploration history: best-so-far time, trials spent,
     * and pruning attribution by exploration mode (obs/convergence.h).
     */
    ConvergenceReport convergence;
};

/** Runs the online exploration for one graph + search space. */
class CustomWirer
{
  public:
    /**
     * @param tensor_maps one TensorMap per allocation strategy, realized
     *        with that strategy's adjacency runs.
     */
    CustomWirer(const Graph& graph, const SearchSpace& space,
                const Scheduler& scheduler,
                const std::vector<const TensorMap*>& tensor_maps,
                WirerOptions opts);
    ~CustomWirer();

    /**
     * Explore; every trial dispatches a real mini-batch. An exception
     * out of the BindFn propagates once every strategy's pipeline has
     * stopped; the wirer keeps nothing from the aborted exploration.
     */
    WirerResult explore(const BindFn& bind = {});

  private:
    /**
     * All mutable state of one allocation strategy's exploration
     * pipeline. Each strategy owns a StrategyRun exclusively for the
     * duration of explore(): a private ProfileIndex shard (its own
     * ContextTable shard makes the key sets disjoint), its own mini-batch
     * accounting against a pre-partitioned budget share, a ClockDomain
     * whose boost draws depend only on this strategy's measurement
     * sequence, and the stage history for the convergence report. The
     * shards are merged deterministically (strategy order) after the
     * join — concurrent pipelines share nothing mutable.
     */
    struct StrategyRun;

    /**
     * Dispatch one mini-batch of a configuration and record its
     * result (profile, best-seen, counters) in the run. The plan is
     * fetched through the scheduler's cache. No budget logic here:
     * callers reserve first.
     *
     * @return the dispatch result, normalized to base clock under
     *         WirerOptions::normalize_clock.
     */
    DispatchResult dispatch(StrategyRun& run, const ScheduleConfig& config,
                            const BindFn& bind);

    /**
     * One exploration trial: measure the configuration once, again
     * (fresh fault salts) when the mini-batch faulted, up to the fault
     * budget. Sets the run's truncated flag when its budget share is
     * spent.
     *
     * @return the clean end-to-end time, or a negative value when no
     *         attempt measured clean.
     */
    double measure_trial(StrategyRun& run, const ScheduleConfig& config,
                         const BindFn& bind);

    /**
     * One *replayed* exploration trial (§5.13): evaluate the
     * exact co-varied configuration the walk is about to dispatch on
     * the host instead, and drop the replayed profile samples into the
     * shard as if they had been measured. Replay is bit-exact against
     * a dispatch of the same config at base clock (the arming
     * predicate), so the profile index — and with it every later
     * freeze, bind and decision — evolves identically to the
     * exhaustive run while the mini-batch stays unspent. Requires
     * run.whatif armed.
     */
    void replay_trial(StrategyRun& run, const ScheduleConfig& config);

    /**
     * Measure a bound configuration end-to-end, unconditionally — the
     * valve may overshoot so a truncated result is still dispatchable
     * — and again when it faulted, up to the fault budget. A clean
     * end-to-end time the run already holds for an identical
     * configuration is reused instead of dispatched again.
     *
     * @return the first clean end-to-end time, or kUnmeasuredNs.
     */
    double measure_final(StrategyRun& run, const ScheduleConfig& config,
                         const BindFn& bind);

    /** One strategy's full pipeline: stages A-C + best-of-strategy. */
    void run_strategy(StrategyRun& run, const BindFn& bind);

    const Graph& graph_;
    const SearchSpace& space_;
    const Scheduler& scheduler_;
    std::vector<const TensorMap*> tensor_maps_;
    WirerOptions opts_;
};

}  // namespace astra

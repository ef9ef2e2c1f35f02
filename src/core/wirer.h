/**
 * @file
 * The custom wirer (paper §4.7): online, work-conserving exploration of
 * the enumerated state space. AstraSession::optimize (core/astra.h)
 * runs it over the session's own graph, search space, scheduler and
 * tensor maps, under the session's AstraOptions; core/wirer.cc holds
 * the walk. This header holds what a caller sets and reads.
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
#include "obs/convergence.h"

namespace astra {

/**
 * Which adaptation dimensions are active (Astra_F / FK / FKS / all).
 * GEMM fusion chunk adaptation (F) and elementwise fusion are always on.
 */
struct AstraFeatures
{
    bool kernel_choice = true;   ///< GEMM library adaptation (K)
    bool streams = true;         ///< multi-stream scheduling (S)
    bool alloc = true;           ///< allocation-strategy fork (all)
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

/**
 * Called before each exploration mini-batch so the caller can load the
 * next real training batch into the strategy's tensor map (work
 * conservation). May be empty for timing-only sweeps. `minibatch`
 * numbers the trials *within the strategy* owning the tensor map
 * (0, 1, 2, ... per strategy): strategy pipelines may run on separate
 * threads, so a global sequence number would depend on scheduling.
 * With AstraOptions::wirer_threads > 1 the callback runs concurrently
 * for different strategies and must be thread-safe across distinct
 * tensor maps.
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
     * What the profile index held: every strategy's shard, reduced to
     * a summary when its pipeline ended and folded in strategy order.
     * Empty after a plan-store L1 hit: nothing was explored.
     */
    ProfileSummary profile;

    /**
     * Per-stage exploration history: best-so-far time, trials spent,
     * and pruning attribution by exploration mode (obs/convergence.h).
     */
    ConvergenceReport convergence;
};

}  // namespace astra

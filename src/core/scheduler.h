/**
 * @file
 * The schedule builder: materializes one point of the enumerated state
 * space as an ExecutionPlan.
 *
 * Given a fusion/kernel binding it produces the unit list (fused GEMM
 * chunks, fused elementwise chains, singles) in a valid topological
 * order; given a stream binding it additionally partitions the units
 * into super-epochs (static-cost calibrated, §4.5.3) and dependency-
 * level epochs (§4.5.4), collapses same-shape units into equivalence
 * classes (§4.5.5), assigns streams, and inserts cross-stream barriers
 * at super-epoch boundaries.
 */
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/search_space.h"
#include "runtime/plan.h"

namespace astra {

struct GpuConfig;     // sim/gpu.h
struct UnitStep;      // runtime/wired.h
struct WiredBinary;   // runtime/wired.h
class TensorMap;      // runtime/tensor_map.h

/** One configuration of the adapted dimensions. */
struct ScheduleConfig
{
    /** Allocation-strategy index into SearchSpace::strategies. */
    int strategy = 0;

    /** Per group: fusion chunk size (value, not option index). */
    std::vector<int> group_chunk;

    /** Per group: GEMM library for its (fused or single) kernels. */
    std::vector<GemmLib> group_lib;

    /** Per standalone MatMul: GEMM library. */
    std::map<NodeId, GemmLib> single_lib;

    /** Fuse elementwise chains (Astra always does; native does not). */
    bool elementwise_fusion = true;

    bool use_streams = false;
    int num_streams = 2;

    /** (super-epoch, epoch-level) -> flattened stream-split option. */
    std::map<std::pair<int, int>, int> epoch_choice;

    // ---- profiling attachments (set by the custom wirer) -----------------

    /** Group id -> profile key for its GEMM steps (summed metric). */
    std::map<int, ProfileKey> group_keys;

    /** Standalone MatMul node -> profile key. */
    std::map<NodeId, ProfileKey> single_keys;

    /** (super-epoch, epoch) -> epoch-metric profile key. */
    std::map<std::pair<int, int>, ProfileKey> epoch_keys;

    /** Field-for-field equality: equal configs build equal plans. */
    friend bool operator==(const ScheduleConfig&,
                           const ScheduleConfig&) = default;
};

/** One epoch of the stream-exploration structure. */
struct EpochInfo
{
    int super_epoch = 0;
    int level = 0;

    /** Indices into the unit list (mutually independent units). */
    std::vector<size_t> units;

    /**
     * Flattened stream-split options: options[o][i] = stream of
     * units[i] under option o. options[0] is the balanced default.
     */
    std::vector<std::vector<int>> options;
};

/** The stream-scheduling state space for one fusion binding. */
struct StreamSpace
{
    std::vector<EpochInfo> epochs;
    int num_super_epochs = 0;
};

/** Scheduler options (coarse static knowledge, §4.8). */
struct SchedulerOptions
{
    /** Target static cost of one super-epoch, in estimated ns. */
    double super_epoch_ns = 300000.0;
};

/**
 * Builds plans for one (graph, search space) pair.
 *
 * Every plan is emitted from its binding's *plan skeleton*: the
 * cycle-repaired units in dispatch order, what each unit's library and
 * profile key come from, and each unit's producer units. The units
 * depend only on the allocation strategy, group_chunk and
 * elementwise_fusion, so one skeleton serves every trial that varies
 * anything else: stage B's libraries, stage C's stream splits, the
 * keys of each stage. A trial stamps each unit's library and key from
 * its owner (DESIGN.md §5.3) and, when streamed, walks the epochs of
 * the skeleton's stream space, which is kept for the last binding of
 * libraries, keys and stream count it was asked for. bind() also keeps
 * each unit's kernel descriptors in the skeleton (runtime/wired.h
 * UnitKernels), so a trial compiles only its command stream.
 *
 * Each allocation strategy keeps the last skeleton a trial (bind) or
 * stream_space() asked for until release_skeleton(). A skeleton of a
 * new shape inherits what it shares with the kept one: the descriptors
 * of every unit equal in content, and the elementwise chains when the
 * GEMM chunks cover the same ladder Adds (each cycle-repair attempt
 * reuses the chains of the one before too). The wirer releases a
 * strategy's skeleton when its pipeline ends, unless the pipeline is
 * the exploration's only one: then the skeleton is the winner's, and
 * wire_cached() lowers the winner from it and releases it. build() and
 * build_units() use a kept skeleton when it matches and otherwise
 * build one they do not keep, so a lowered winner keeps only its
 * binary.
 */
class Scheduler
{
  public:
    Scheduler(const Graph& graph, const SearchSpace& space,
              SchedulerOptions opts = {});

    /**
     * Units (pre-stream plan steps, all on stream 0) for the given
     * fusion/kernel binding, in a valid topological order. Libraries
     * and profile keys from the config are attached.
     */
    std::vector<PlanStep> build_units(const ScheduleConfig& config) const;

    /**
     * Stream-exploration structure of the config's binding, from its
     * plan skeleton. The config's use_streams, epoch_choice and
     * epoch_keys are ignored; num_streams must be at least 1.
     */
    StreamSpace stream_space(const ScheduleConfig& config) const;

    /** Full plan for the configuration. */
    ExecutionPlan build(const ScheduleConfig& config) const;

    /**
     * The configuration bound for dispatch on `tmap` under `gpu`, with
     * profiling instrumentation: the plan build() emits, compiled into
     * its command stream over the skeleton's units, launching the
     * descriptors the skeleton keeps for them (built on first use).
     * The binary's owner is the skeleton's descriptor table, so it
     * stays valid after the skeleton is released or replaced. Equal,
     * command for command and descriptor field for field, to
     * bind_plan(build(config), ...). The skeleton keeps descriptors
     * for the last device context bound (the cost constants and, when
     * kernels execute, the TensorMap's buffers); another context
     * builds them afresh. Thread-safe.
     */
    WiredBinary bind(const ScheduleConfig& config, const TensorMap& tmap,
                     const GpuConfig& gpu) const;

    /** Drop the strategy's kept skeleton (its exploration has ended). */
    void release_skeleton(int strategy) const;

    /**
     * Lowered wired binary (runtime/wired.h) for the configuration,
     * cached under an equal config: the steady-state dispatch path
     * compiles a converged config once and replays the blob for every
     * later mini-batch. A configuration whose strategy keeps a skeleton
     * of its shape is lowered from it, through bind(), and a lowering
     * releases its strategy's skeleton. The binary captures buffer
     * addresses from `tmap`, so the cache assumes one TensorMap per
     * allocation strategy and one GpuConfig per Scheduler lifetime —
     * the AstraSession contract. Thread-safe; the returned binary is
     * immutable and shared.
     */
    std::shared_ptr<const WiredBinary>
    wire_cached(const ScheduleConfig& config, const TensorMap& tmap,
                const GpuConfig& gpu) const;

  private:
    struct PlanSkeleton;  // scheduler.cc

    /** A strategy's owner rule and the skeleton last kept for it. */
    struct SkeletonSlot
    {
        /** gemm_owners() under the strategy, made on first use. */
        std::shared_ptr<const std::vector<int>> owner;

        /** The shape `value` was built for (the strategy is the slot). */
        std::vector<int> group_chunk;
        bool elementwise_fusion = true;
        std::shared_ptr<const PlanSkeleton> value;
    };

    /**
     * The fused elementwise chains of an assembly, in scan order, and
     * what they were scanned under: the elementwise nodes its GEMM
     * chunks cover (the Adds of ladder chunks), ascending. The scan
     * reads nothing else a binding changes, so chunks covering the same
     * Adds have these chains.
     */
    struct ChainList
    {
        std::vector<NodeId> covered;
        /** Chain c is nodes[begin[c], begin[c + 1]). */
        std::vector<NodeId> nodes;
        std::vector<int32_t> begin{0};
    };

    /**
     * One assembly pass (no cycle repair), unstamped; forced_chunk caps
     * groups. With elementwise fusion, `*chains` is reused when the
     * GEMM chunks cover its ladder Adds and otherwise replaced.
     */
    std::vector<PlanStep>
    assemble_units(const ScheduleConfig& config,
                   const std::map<int, int>& forced_chunk,
                   std::optional<ChainList>* chains) const;

    /**
     * Cycle-repaired units of the config's shape, in dispatch order;
     * `*chains` as in assemble_units, across the attempts.
     */
    std::vector<PlanStep>
    repaired_units(const ScheduleConfig& config,
                   std::optional<ChainList>* chains) const;

    /**
     * The chain list the strategy's kept skeleton was assembled with
     * (its final repair attempt's), if it has one with elementwise
     * fusion: a copy of what the skeleton keeps, not a re-derivation.
     */
    std::optional<ChainList> kept_chains(int strategy) const;

    /** Static per-unit cost estimate (flops + bytes + launch). */
    double estimate_unit_ns(const PlanStep& unit) const;

    /** The strategy's kept skeleton if the config's shape matches. */
    std::shared_ptr<const PlanSkeleton>
    kept_skeleton(const ScheduleConfig& config) const;

    /**
     * A new skeleton of the config's shape, without producers, under
     * the strategy's owner rule (`*owner`, made if null), with the
     * chains of the kept skeleton where they apply.
     */
    std::unique_ptr<PlanSkeleton>
    make_skeleton(const ScheduleConfig& config,
                  std::shared_ptr<const std::vector<int>>* owner) const;

    /**
     * The config's kept skeleton (`*kept` set), or a new one, with
     * producers, kept in its strategy's slot in place of `*replaced`.
     */
    std::shared_ptr<const PlanSkeleton>
    skeleton(const ScheduleConfig& config, bool* kept = nullptr,
             std::shared_ptr<const PlanSkeleton>* replaced = nullptr) const;

    /** The stream space of the config's binding over the skeleton. */
    std::shared_ptr<const StreamSpace>
    stream_space_of(const PlanSkeleton& skel,
                    const ScheduleConfig& config) const;

    /** Super-epochs, levels and split options over the units. */
    StreamSpace stream_space(const std::vector<PlanStep>& units,
                             const std::vector<GemmLib>& libs,
                             int num_streams) const;

    /**
     * The config's steps by unit, libraries and keys stamped: each unit
     * in order on stream 0, or with streams the epoch walk of `ss`.
     */
    std::vector<UnitStep> unit_steps(const PlanSkeleton& skel,
                                     const ScheduleConfig& config,
                                     const StreamSpace* ss) const;

    /** Slot index of an allocation strategy (asserts it is in range). */
    size_t strategy_slot(int strategy) const;

    const Graph& graph_;
    const SearchSpace& space_;
    SchedulerOptions opts_;

    /** Per node, 1 when its op is elementwise (the chain scan's test). */
    std::vector<char> elementwise_;

    /** Per node, the ladder whose Add it is, or -1. */
    std::vector<int> ladder_add_group_;

    /** Guards the per-strategy skeletons and the wired-binary cache. */
    mutable std::mutex cache_mu_;
    mutable std::vector<SkeletonSlot> skeletons_;

    /** Lowered binaries, each with the config it was lowered from. */
    mutable std::vector<
        std::pair<ScheduleConfig, std::shared_ptr<const WiredBinary>>>
        wired_cache_;
};

}  // namespace astra

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

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/search_space.h"
#include "runtime/plan.h"

namespace astra {

struct GpuConfig;     // sim/gpu.h
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
    std::map<int, std::string> group_keys;

    /** Standalone MatMul node -> profile key. */
    std::map<NodeId, std::string> single_keys;

    /** (super-epoch, epoch) -> epoch-metric profile key. */
    std::map<std::pair<int, int>, std::string> epoch_keys;
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

    /** Cap on flattened options per epoch. */
    int max_epoch_options = 24;

    /** Max elementwise-fusion chain length. */
    int max_ew_chain = 10;

    /** How far past the last member the chain scan may look. */
    int ew_chain_window = 48;

    /** Static launch-overhead estimate used for super-epoch sizing. */
    double est_launch_ns = 6000.0;
};

/**
 * Builds plans for one (graph, search space) pair.
 *
 * A streamed plan is emitted from its binding's *plan skeleton*: the
 * cycle-repaired units plus the StreamSpace. Both depend on every
 * plan-affecting ScheduleConfig field except epoch_choice and
 * epoch_keys, so stream exploration, which varies only those two,
 * builds the skeleton once and then only walks its epochs. The last
 * skeleton is kept per allocation strategy.
 */
class Scheduler
{
  public:
    Scheduler(const Graph& graph, const SearchSpace& space,
              SchedulerOptions opts = {});

    /**
     * Units (pre-stream plan steps, all on stream 0) for the given
     * fusion/kernel binding, in a valid topological order. Profile
     * keys from the config are attached.
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
     * build() behind a one-plan-per-strategy memo: the last plan built
     * for each allocation strategy is kept with its signature, so the
     * wirer's k-repeat re-measurements of a trial (and steady-state
     * run() of a converged config) skip lowering entirely. The
     * signature covers every plan-affecting field of the config —
     * including the profiling-key attachments, which Scheduler::build
     * bakes into the plan's steps — so a hit is exact, never
     * structural-only. Retained plans scale with strategies, not with
     * trials; one slot per strategy keeps the hit/miss tally
     * deterministic while strategy shards explore concurrently.
     * Thread-safe; the returned plan is immutable and shared, so
     * concurrent dispatches may hold it simultaneously.
     */
    std::shared_ptr<const ExecutionPlan>
    build_cached(const ScheduleConfig& config) const;

    /**
     * Lowered wired binary (runtime/wired.h) for the configuration,
     * cached by plan signature: the steady-state dispatch path
     * compiles a converged config once and replays the blob for every
     * later mini-batch. The binary captures buffer addresses from
     * `tmap`, so the cache assumes one TensorMap per allocation
     * strategy and one GpuConfig per Scheduler lifetime — the
     * AstraSession contract. Thread-safe; the returned binary is
     * immutable and shared.
     */
    std::shared_ptr<const WiredBinary>
    wire_cached(const ScheduleConfig& config, const TensorMap& tmap,
                const GpuConfig& gpu) const;

    /** Cache hits/misses since construction (convergence reporting). */
    int64_t plan_cache_hits() const
    {
        return cache_hits_.load(std::memory_order_relaxed);
    }
    int64_t plan_cache_misses() const
    {
        return cache_misses_.load(std::memory_order_relaxed);
    }

    /** Wired-binary cache tallies (AstraSession::run reporting). */
    int64_t wired_cache_hits() const
    {
        return wired_hits_.load(std::memory_order_relaxed);
    }
    int64_t wired_cache_misses() const
    {
        return wired_misses_.load(std::memory_order_relaxed);
    }

    const SchedulerOptions& options() const { return opts_; }

  private:
    /** A binding's units and the stream space over them. */
    struct PlanSkeleton
    {
        std::vector<PlanStep> units;
        StreamSpace space;
    };

    /** A signature and the value last built under it. */
    template <typename T>
    struct Slot
    {
        std::string sig;
        std::shared_ptr<const T> value;
    };

    /** One assembly pass (no cycle repair); forced_chunk caps groups. */
    std::vector<PlanStep>
    assemble_units(const ScheduleConfig& config,
                   const std::map<int, int>& forced_chunk) const;

    /** Static per-unit cost estimate (flops + bytes + launch). */
    double estimate_unit_ns(const PlanStep& unit) const;

    /** The config's plan skeleton, from its strategy's slot. */
    std::shared_ptr<const PlanSkeleton>
    skeleton(const ScheduleConfig& config) const;

    /** Super-epochs, levels and split options over the units. */
    StreamSpace stream_space(const std::vector<PlanStep>& units,
                             int num_streams) const;

    /** Index of the config's strategy slot (asserts it is in range). */
    size_t strategy_slot(const ScheduleConfig& config) const;

    const Graph& graph_;
    const SearchSpace& space_;
    SchedulerOptions opts_;

    /** Guards the per-strategy slots and the wired-binary cache. */
    mutable std::mutex cache_mu_;
    mutable std::vector<Slot<PlanSkeleton>> skeletons_;
    mutable std::vector<Slot<ExecutionPlan>> plans_;
    mutable std::atomic<int64_t> cache_hits_{0};
    mutable std::atomic<int64_t> cache_misses_{0};

    mutable std::unordered_map<std::string,
                               std::shared_ptr<const WiredBinary>>
        wired_cache_;
    mutable std::atomic<int64_t> wired_hits_{0};
    mutable std::atomic<int64_t> wired_misses_{0};
};

}  // namespace astra

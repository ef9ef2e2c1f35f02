/**
 * @file
 * The enumerator (paper §4.4): static analysis that mines the
 * optimization state space from the dataflow graph.
 *
 * It finds GEMM fusion sets (siblings sharing an operand, mutually
 * independent, same provenance), fusion ladders (GEMM-accumulator
 * chains), and 2-D fusion sets (the same tensors groupable along a
 * different axis — the source of the Fig. 1 allocation conflicts). It
 * then resolves single-tensor conflicts statically and forks the
 * remaining non-trivial conflicts into allocation strategies
 * (§4.5.2). No cost model anywhere: only structure.
 */
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"
#include "kernels/cost.h"
#include "runtime/tensor_map.h"

namespace astra {

/** How a fusion group combines its member GEMMs. */
enum class GroupKind
{
    Batch,   ///< siblings sharing one operand; one batched kernel
    Ladder,  ///< accumulation chain C = sum_i A_i * B_i; one kernel
};

/** A candidate GEMM fusion set. */
struct FusionGroup
{
    int id = -1;
    GroupKind kind = GroupKind::Batch;

    /** Member MatMul nodes in canonical (ascending id) order. */
    std::vector<NodeId> mms;

    /** Ladder only: the Add nodes of the accumulation chain, in order. */
    std::vector<NodeId> adds;

    /** Batch only: which operand index (0/1) all members share. */
    int shared_pos = -1;

    /** Batch only: the shared operand node. */
    NodeId shared_node = kInvalidNode;

    /**
     * How the fused kernel combines members: MStack when the members
     * share their second operand (row-concat into one tall GEMM),
     * KStack for transpose-compatible accumulation ladders (one deep
     * GEMM), Batched otherwise.
     */
    FusionAxis axis = FusionAxis::Batched;

    /**
     * Adjacency runs that must hold in HBM for this group to fuse
     * copy-free (uniform-stride batched addressing).
     */
    std::vector<AdjacencyRun> runs;

    /**
     * Fusion chunk sizes the custom wirer may try (ascending; always
     * contains 1 = unfused). Chunk c groups members [0,c), [c,2c), ...
     */
    std::vector<int> chunk_options;

    /** Stable key for profile indexing, e.g. "g12". */
    std::string key;

    /** Static flop estimate of all members (used for pruning order). */
    double flops = 0.0;
};

/** One resolution of the allocation-conflict fork (§4.5.2). */
struct AllocStrategy
{
    int id = -1;

    /** Adjacency runs the memory planner realizes. */
    std::vector<AdjacencyRun> runs;

    /** Per fusion-group: can it fuse copy-free under this strategy? */
    std::vector<bool> group_enabled;

    std::string key;
};

/** Everything the custom wirer adapts over. */
struct SearchSpace
{
    std::vector<FusionGroup> groups;

    /** MatMuls that belong to no group (adapted individually). */
    std::vector<NodeId> single_mms;

    /** At least one strategy; strategy 0 is the default. */
    std::vector<AllocStrategy> strategies;
};

// ---- enumerator caps (coarse static knowledge, §4.8) -----------------

/**
 * Largest fused kernel considered (diminishing returns beyond). A batch
 * group keeps its first kMaxGroupSize mutually independent members, in
 * id order. An accumulation ladder keeps every leaf (a weight-gradient
 * ladder has one per timestep) but fuses at most kMaxGroupSize of them
 * per kernel: its largest chunk option is kMaxGroupSize, and each
 * later chunk carries in the previous chunk's partial sum, so the
 * summation order stays the unfused add chain's.
 */
inline constexpr int kMaxGroupSize = 16;

/** At most this many chunk options per group. */
inline constexpr int kMaxChunkOptions = 4;

/** Cap on the allocation-strategy fork. */
inline constexpr int kMaxStrategies = 6;

/** Run the enumerator over a graph. */
SearchSpace enumerate_search_space(const Graph& graph);

/**
 * Each MatMul's *owner* under an allocation strategy: the variable
 * that decides its GEMM library and profile key, fused or not. That is
 * the strategy's enabled group listing it (enabled groups are
 * disjoint), else the first group listing it, else the MatMul itself.
 * Indexed by node id over `num_nodes`: the owning group's id, or -1
 * for a standalone MatMul (SearchSpace::single_mms) and for every
 * other node. The scheduler attributes units by it and the wirer gives
 * every owning group a library variable.
 */
std::vector<int> gemm_owners(const SearchSpace& space,
                             const AllocStrategy& strategy, int num_nodes);

/**
 * The data-parallel dimension of the state space: which gradient
 * tensors get allreduced and which bucket capacities are worth trying.
 * Purely structural, like the rest of the enumerator — the custom
 * wirer measures each candidate (core/data_parallel.h) instead of
 * costing it.
 */
struct DataParallelSpace
{
    /** Parameter-gradient nodes (backward-pass graph outputs). */
    std::vector<NodeId> grad_nodes;

    /** Total parameter-gradient volume, bytes. */
    int64_t grad_bytes = 0;

    /**
     * Candidate bucket capacities in bytes, ascending; 0 means one
     * bucket per gradient tensor, grad_bytes means a single bucket.
     * Both extremes are always present (they bracket the launch-cost
     * vs overlap trade-off) plus geometric midpoints.
     */
    std::vector<int64_t> bucket_options;
};

/** Mine the data-parallel dimension from a training graph. */
DataParallelSpace enumerate_dp_space(const Graph& graph);

}  // namespace astra

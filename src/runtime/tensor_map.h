/**
 * @file
 * Mapping of graph nodes to simulated device memory.
 *
 * The memory planner realizes an *allocation strategy*: a set of
 * adjacency runs (ordered groups of same-shape tensors that must be
 * laid out back-to-back so a batched/fused GEMM can address them with a
 * uniform stride, paper §3.2 / §4.5.2). Everything not constrained by a
 * run is allocated in node order.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "sim/memory.h"

namespace astra {

/** An ordered group of node outputs that must be contiguous in HBM. */
struct AdjacencyRun
{
    std::vector<NodeId> members;
};

/** How the planner assigns device addresses. */
enum class MemoryPlanMode
{
    /** Every node gets its own buffer for the whole step (simple). */
    Bump,

    /**
     * Liveness-based reuse: a buffer is recycled once its node's last
     * consumer has executed (in node order). This is what real
     * framework allocators do, and it is what makes the §3.4
     * recompute-for-memory trade measurable: recomputation shortens
     * forward activations' lifetimes, shrinking the peak footprint.
     */
    Reuse,
};

/** Node-id -> device-buffer mapping for one graph. */
class TensorMap
{
  public:
    /**
     * Plan allocations for every node of the graph.
     *
     * @param runs adjacency runs to honor; members must be mutually
     *        disjoint across runs (the enumerator's conflict resolution
     *        guarantees this) and have equal byte sizes within a run.
     */
    TensorMap(const Graph& graph, SimMemory& mem,
              const std::vector<AdjacencyRun>& runs = {},
              MemoryPlanMode mode = MemoryPlanMode::Bump);

    /**
     * Peak device bytes the plan needs. For Bump mode this equals the
     * total allocated; for Reuse mode it is the high-water mark.
     */
    int64_t peak_bytes() const { return peak_bytes_; }

    /** Device address of a node's output buffer. */
    DevPtr ptr(NodeId id) const;

    /** Host fp32 view of a node's buffer. */
    float* f32(NodeId id) const;

    /** Host i32 view of a node's buffer. */
    int32_t* i32(NodeId id) const;

    /** True when the run's members are laid out back-to-back in order. */
    bool adjacent(const std::vector<NodeId>& members) const;

    SimMemory& memory() const { return *mem_; }
    const Graph& graph() const { return *graph_; }

    /**
     * Identity of the buffers this map views: unique per constructed
     * map and kept by its copies, which view the same buffers. What a
     * kept kernel descriptor's compute closure was bound against.
     */
    uint64_t id() const { return id_; }

  private:
    void plan_bump(const std::vector<AdjacencyRun>& runs);
    void plan_reuse(const std::vector<AdjacencyRun>& runs);

    const Graph* graph_;
    SimMemory* mem_;
    std::vector<DevPtr> ptrs_;
    int64_t peak_bytes_ = 0;
    uint64_t id_;
};

}  // namespace astra

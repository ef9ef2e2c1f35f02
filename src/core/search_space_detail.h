/**
 * @file
 * Internals of the enumerator (search_space.cc) shared with its tests:
 * how two adjacency runs relate, by a linear probe and through a
 * node-indexed conflict row.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/search_space.h"

namespace astra::detail {

/** Relation between two adjacency runs (each holds distinct nodes). */
enum class RunRelation
{
    Disjoint,
    Identical,
    Contains,      ///< second is a contiguous subsequence of first
    ContainedIn,   ///< first is a contiguous subsequence of second
    Conflict,
};

/**
 * How run b relates to run a. On a Conflict, `*sole_overlap` (when
 * given) is the one tensor the runs share, or kInvalidNode when they
 * share more than one.
 */
RunRelation run_relation(const AdjacencyRun& a, const AdjacencyRun& b,
                         NodeId* sole_overlap = nullptr);

/**
 * One fusion group indexed by node: which nodes are its members, and
 * where each node sits in each of its (at most two) runs. Conflict
 * analysis loads group i once and tests every partner j against it,
 * so relating a partner's run costs one pass over that run.
 */
class ConflictRow
{
  public:
    /** Room for a graph of `num_nodes` nodes. */
    explicit ConflictRow(int num_nodes);

    /** Index `g`, replacing the group loaded before. */
    void load(const FusionGroup& g);

    /** True when `id` is a member GEMM of the loaded group. */
    bool
    is_member(NodeId id) const
    {
        return member_[static_cast<size_t>(id)] != 0;
    }

    /**
     * run_relation(runs[k], b, sole_overlap) for run k of the loaded
     * group, in one pass over b. A node may sit in both of its runs.
     */
    RunRelation relation(size_t k, const AdjacencyRun& b,
                         NodeId* sole_overlap = nullptr) const;

  private:
    /** Runs per group: batch groups and ladders build at most two. */
    static constexpr size_t kMaxRuns = 2;

    std::vector<uint8_t> member_;
    std::vector<int32_t> pos_[kMaxRuns];  ///< index in run k, or -1
    int32_t run_size_[kMaxRuns] = {};
    size_t runs_ = 0;
    std::vector<NodeId> loaded_;  ///< members, then each run's nodes
};

}  // namespace astra::detail

#include "runtime/tensor_map.h"

#include <algorithm>
#include <atomic>
#include <map>

#include "obs/obs.h"
#include "support/logging.h"

namespace astra {

namespace {

/** A TensorMap identity no other map constructed in this process has. */
uint64_t
next_id()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

/** run_of[node] = index of the adjacency run containing it, or -1. */
std::vector<int>
index_runs(const Graph& graph, const std::vector<AdjacencyRun>& runs)
{
    std::vector<int> run_of(static_cast<size_t>(graph.size()), -1);
    for (size_t r = 0; r < runs.size(); ++r) {
        ASTRA_ASSERT(!runs[r].members.empty(), "empty adjacency run");
        for (NodeId id : runs[r].members) {
            ASTRA_ASSERT(run_of[static_cast<size_t>(id)] == -1,
                         "node %", id, " appears in two adjacency runs; "
                         "conflict resolution should have prevented this");
            run_of[static_cast<size_t>(id)] = static_cast<int>(r);
        }
    }
    return run_of;
}

}  // namespace

TensorMap::TensorMap(const Graph& graph, SimMemory& mem,
                     const std::vector<AdjacencyRun>& runs,
                     MemoryPlanMode mode)
    : graph_(&graph), mem_(&mem),
      ptrs_(static_cast<size_t>(graph.size()), kNullDev), id_(next_id())
{
    obs::ScopedSpan span(obs::Category::Alloc, "tensor_map.plan");
    if (mode == MemoryPlanMode::Bump)
        plan_bump(runs);
    else
        plan_reuse(runs);
    obs::counter("alloc.tensor_maps").add();
    obs::counter("alloc.bytes_planned").add(peak_bytes_);
}

void
TensorMap::plan_bump(const std::vector<AdjacencyRun>& runs)
{
    const Graph& graph = *graph_;
    const std::vector<int> run_of = index_runs(graph, runs);
    std::vector<bool> run_done(runs.size(), false);
    for (const Node& n : graph.nodes()) {
        if (ptrs_[static_cast<size_t>(n.id)] != kNullDev)
            continue;
        const int r = run_of[static_cast<size_t>(n.id)];
        if (r < 0) {
            ptrs_[static_cast<size_t>(n.id)] =
                mem_->allocate(static_cast<int64_t>(n.desc.bytes()));
            peak_bytes_ = mem_->used();
            continue;
        }
        // First member of the run reached: lay the whole run out
        // back-to-back, in run order, as a single block.
        ASTRA_ASSERT(!run_done[static_cast<size_t>(r)]);
        run_done[static_cast<size_t>(r)] = true;
        int64_t total = 0;
        for (NodeId m : runs[static_cast<size_t>(r)].members)
            total += static_cast<int64_t>(graph.node(m).desc.bytes());
        DevPtr base = mem_->allocate(total);
        for (NodeId m : runs[static_cast<size_t>(r)].members) {
            ptrs_[static_cast<size_t>(m)] = base;
            base += static_cast<int64_t>(graph.node(m).desc.bytes());
        }
        peak_bytes_ = mem_->used();
    }
}

void
TensorMap::plan_reuse(const std::vector<AdjacencyRun>& runs)
{
    const Graph& graph = *graph_;
    const size_t n = static_cast<size_t>(graph.size());
    const std::vector<int> run_of = index_runs(graph, runs);

    // One tensor map serves *every* plan the wirer dispatches over it,
    // and tuned plans reorder execution (fused groups run all their
    // members' kernels at one point; streams interleave). Id-interval
    // liveness is only sound for the plain node-order schedule, so
    // reuse is gated on data dependencies instead: a freed region may
    // be taken by a unit only when every last reader of the old
    // contents is an *ancestor* of every member of the new unit — then
    // any legal schedule, fused or streamed, orders the old reads
    // before the new writes.
    const size_t words = (n + 63) / 64;
    std::vector<uint64_t> anc(n * words, 0);
    for (const Node& node : graph.nodes()) {
        const size_t row = static_cast<size_t>(node.id) * words;
        for (NodeId in : node.inputs) {
            const size_t irow = static_cast<size_t>(in) * words;
            for (size_t w = 0; w < words; ++w)
                anc[row + w] |= anc[irow + w];
            anc[row + static_cast<size_t>(in) / 64] |=
                uint64_t{1} << (static_cast<size_t>(in) % 64);
        }
    }
    const auto is_ancestor = [&](NodeId a, NodeId of) {
        return (anc[static_cast<size_t>(of) * words +
                    static_cast<size_t>(a) / 64] >>
                (static_cast<size_t>(a) % 64)) &
               1u;
    };

    std::vector<std::vector<NodeId>> consumers(n);
    for (const Node& node : graph.nodes())
        for (NodeId in : node.inputs)
            consumers[static_cast<size_t>(in)].push_back(node.id);
    std::vector<bool> is_output(n, false);
    for (NodeId out : graph.outputs())
        is_output[static_cast<size_t>(out)] = true;

    // Allocation units: single nodes or whole runs. Units containing a
    // source node are *pinned*: sources are bound with data before
    // execution starts, so their lifetime begins at time zero — they
    // must never steal a recycled region. Units containing an output
    // live to the end of the step (the caller reads them afterwards).
    struct Unit
    {
        std::vector<NodeId> members;
        /** Nodes that must precede any overwrite of this unit's
            region: the members' last readers (the members themselves
            when unread). */
        std::vector<NodeId> guards;
        int64_t bytes = 0;
        bool pinned = false;
        bool immortal = false;
    };
    std::vector<Unit> units;
    std::vector<bool> run_done(runs.size(), false);
    for (const Node& node : graph.nodes()) {
        const int r = run_of[static_cast<size_t>(node.id)];
        Unit u;
        if (r < 0) {
            u.members = {node.id};
        } else {
            if (run_done[static_cast<size_t>(r)])
                continue;
            run_done[static_cast<size_t>(r)] = true;
            u.members = runs[static_cast<size_t>(r)].members;
        }
        for (NodeId m : u.members) {
            u.bytes += static_cast<int64_t>(graph.node(m).desc.bytes());
            u.pinned |= op_is_source(graph.node(m).kind);
            u.immortal |= is_output[static_cast<size_t>(m)];
            const std::vector<NodeId>& cs =
                consumers[static_cast<size_t>(m)];
            if (cs.empty())
                u.guards.push_back(m);
            else
                u.guards.insert(u.guards.end(), cs.begin(), cs.end());
        }
        std::sort(u.guards.begin(), u.guards.end());
        u.guards.erase(std::unique(u.guards.begin(), u.guards.end()),
                       u.guards.end());
        units.push_back(std::move(u));
    }
    // Pinned units first: they grab fresh space at the bottom of the
    // arena and never participate in hole recycling.
    std::stable_sort(units.begin(), units.end(),
                     [](const Unit& a, const Unit& b) {
                         return a.pinned > b.pinned;
                     });

    // First-fit free-list planning over virtual offsets. Each hole
    // carries the guard nodes of whatever last occupied it; a unit may
    // take a hole only when every guard is an ancestor of every
    // member. Holes are kept unmerged (coalescing would union guard
    // sets and over-constrain); instead an allocation may span several
    // *contiguous* holes, each checked against its own guards.
    constexpr int64_t kAlign = 256;
    struct Hole
    {
        int64_t offset;
        int64_t size;
        std::vector<NodeId> guards;
    };
    std::vector<Hole> holes;  // sorted by offset, non-overlapping
    int64_t high_water = 0;
    std::vector<int64_t> unit_offset(units.size(), -1);

    for (size_t ui = 0; ui < units.size(); ++ui) {
        const Unit& u = units[ui];
        const int64_t want = (u.bytes + kAlign - 1) / kAlign * kAlign;
        const auto safe_for = [&](const Hole& h) {
            for (NodeId g : h.guards)
                for (NodeId m : u.members)
                    if (!is_ancestor(g, m))
                        return false;
            return true;
        };
        // First fit over contiguous safe spans of holes.
        int64_t offset = -1;
        for (size_t i = 0; i < holes.size() && offset < 0; ++i) {
            if (!safe_for(holes[i]))
                continue;
            int64_t have = holes[i].size;
            size_t j = i;
            while (have < want && j + 1 < holes.size() &&
                   holes[j].offset + holes[j].size ==
                       holes[j + 1].offset &&
                   safe_for(holes[j + 1])) {
                ++j;
                have += holes[j].size;
            }
            if (have < want)
                continue;
            offset = holes[i].offset;
            // Consume holes i..j-1 fully and the front of hole j.
            int64_t remaining = want - (have - holes[j].size);
            holes[j].offset += remaining;
            holes[j].size -= remaining;
            auto last = holes.begin() + static_cast<int64_t>(j) +
                        (holes[j].size == 0 ? 1 : 0);
            holes.erase(holes.begin() + static_cast<int64_t>(i), last);
        }
        if (offset < 0) {
            offset = high_water;
            high_water += want;
        }
        unit_offset[ui] = offset;
        // The region becomes recyclable immediately — the guard set is
        // what keeps any future occupant ordered after this unit's
        // last readers.
        if (!u.pinned && !u.immortal) {
            Hole h{offset, want, u.guards};
            holes.insert(std::lower_bound(
                             holes.begin(), holes.end(), h,
                             [](const Hole& a, const Hole& b) {
                                 return a.offset < b.offset;
                             }),
                         std::move(h));
        }
    }

    peak_bytes_ = high_water;
    const DevPtr arena = mem_->allocate(high_water);
    for (size_t ui = 0; ui < units.size(); ++ui) {
        DevPtr p = arena + unit_offset[ui];
        for (NodeId m : units[ui].members) {
            ptrs_[static_cast<size_t>(m)] = p;
            p += static_cast<int64_t>(graph_->node(m).desc.bytes());
        }
    }
}

DevPtr
TensorMap::ptr(NodeId id) const
{
    ASTRA_ASSERT(id >= 0 && id < graph_->size());
    const DevPtr p = ptrs_[static_cast<size_t>(id)];
    ASTRA_ASSERT(p != kNullDev, "node %", id, " has no allocation");
    return p;
}

float*
TensorMap::f32(NodeId id) const
{
    return mem_->f32(ptr(id));
}

int32_t*
TensorMap::i32(NodeId id) const
{
    return mem_->i32(ptr(id));
}

bool
TensorMap::adjacent(const std::vector<NodeId>& members) const
{
    for (size_t i = 0; i + 1 < members.size(); ++i) {
        const Node& cur = graph_->node(members[i]);
        if (!SimMemory::adjacent(ptr(members[i]),
                                 static_cast<int64_t>(cur.desc.bytes()),
                                 ptr(members[i + 1])))
            return false;
    }
    return true;
}

}  // namespace astra

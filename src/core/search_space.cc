#include "core/search_space.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <map>
#include <numeric>
#include <set>

#include "core/search_space_detail.h"
#include "obs/obs.h"
#include "runtime/executor.h"
#include "support/logging.h"

namespace astra {

namespace {

using detail::ConflictRow;
using detail::RunRelation;
using detail::run_relation;

/**
 * Provenance key for fusion-set mining: the node's scope with
 * timestep components ("t<digits>") removed, so the same cell at
 * different unrolled steps counts as one provenance (the enumerator's
 * 2-D fusion sets span the time axis, §4.4.1).
 */
std::string
provenance_key(const std::string& scope)
{
    std::string out;
    size_t pos = 0;
    while (pos <= scope.size()) {
        const size_t next = scope.find('/', pos);
        const std::string comp =
            scope.substr(pos, next == std::string::npos ? std::string::npos
                                                        : next - pos);
        const bool is_timestep =
            comp.size() >= 2 && comp[0] == 't' &&
            std::all_of(comp.begin() + 1, comp.end(),
                        [](unsigned char c) { return std::isdigit(c); });
        if (!comp.empty() && !is_timestep) {
            if (!out.empty())
                out += "/";
            out += comp;
        }
        if (next == std::string::npos)
            break;
        pos = next + 1;
    }
    return out;
}

/** Signature under which sibling GEMMs are batch-fusable. */
std::string
mm_signature(const Graph& graph, const Node& n)
{
    const GemmShape s = matmul_shape(graph, n);
    return std::string(n.trans_a ? "T" : "N") + (n.trans_b ? "T" : "N") +
           std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
           std::to_string(s.k);
}

/**
 * Mining keys of every MatMul, computed once per graph so that the
 * miners compare integers (-1 for other nodes). Equal ids mean equal
 * key strings.
 */
struct MiningKeys
{
    /** Interned signature: ladder leaves must all share one. */
    std::vector<int> signature;

    /**
     * Batch partition, "signature@provenance", as the rank of that
     * string among the graph's distinct ones: a node's partitions are
     * mined in the strings' lexicographic order, which fixes group ids.
     */
    std::vector<int> partition;
};

MiningKeys
mining_keys(const Graph& graph)
{
    MiningKeys keys;
    keys.signature.assign(static_cast<size_t>(graph.size()), -1);
    keys.partition.assign(static_cast<size_t>(graph.size()), -1);
    std::map<std::string, int> signatures;
    std::map<std::string, std::vector<NodeId>> partitions;
    for (const Node& n : graph.nodes()) {
        if (!n.is_matmul())
            continue;
        const std::string sig = mm_signature(graph, n);
        keys.signature[static_cast<size_t>(n.id)] =
            signatures.try_emplace(sig, static_cast<int>(signatures.size()))
                .first->second;
        partitions[sig + "@" + provenance_key(n.scope)].push_back(n.id);
    }
    int rank = 0;
    for (const auto& [name, mms] : partitions) {
        for (NodeId id : mms)
            keys.partition[static_cast<size_t>(id)] = rank;
        ++rank;
    }
    return keys;
}

/** Chunk-size menu for a group of the given size (§4.8 range cap). */
std::vector<int>
make_chunk_options(int size)
{
    std::vector<int> opts{1};
    for (int c = 2; c < size; c *= 2)
        opts.push_back(c);
    if (size > 1)
        opts.push_back(size);
    while (static_cast<int>(opts.size()) > kMaxChunkOptions)
        opts.erase(opts.begin() + static_cast<long>(opts.size() / 2));
    return opts;
}

/**
 * Build a run from the given nodes; returns an empty run if the list
 * is degenerate (all identical: stride-0 addressing needs no layout),
 * or nullopt-like empty-with-flag if it mixes duplicates (unfusable).
 */
bool
make_run(std::vector<NodeId> nodes, AdjacencyRun* out)
{
    if (!nodes.empty() &&
        std::all_of(nodes.begin(), nodes.end(),
                    [&](NodeId id) { return id == nodes[0]; })) {
        out->members.clear();  // stride-0: no constraint
        return true;
    }
    std::vector<NodeId> sorted = nodes;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        return false;  // mixed duplicates: not uniform-stride addressable
    out->members = std::move(nodes);
    return true;
}

double
group_flops(const Graph& graph, const std::vector<NodeId>& mms)
{
    double f = 0.0;
    for (NodeId id : mms)
        f += matmul_flops(graph.node(id), graph);
    return f;
}

void
finalize_group(const Graph& graph, FusionGroup* g)
{
    // A ladder may list more leaves than one kernel fuses: its chunks
    // stop at kMaxGroupSize and the tail runs in further chunks.
    g->chunk_options = make_chunk_options(
        std::min(static_cast<int>(g->mms.size()), kMaxGroupSize));
    g->flops = group_flops(graph, g->mms);
}

/** Rebuild a batch group's adjacency runs from its member list. */
bool
rebuild_batch_runs(const Graph& graph, FusionGroup* g)
{
    std::vector<NodeId> other_ops;
    std::vector<NodeId> outputs;
    for (NodeId id : g->mms) {
        const Node& n = graph.node(id);
        other_ops.push_back(n.inputs[g->shared_pos == 0 ? 1 : 0]);
        outputs.push_back(id);
    }
    g->runs.clear();
    AdjacencyRun r1, r2;
    if (!make_run(other_ops, &r1) || !make_run(outputs, &r2))
        return false;
    if (!r1.members.empty())
        g->runs.push_back(std::move(r1));
    if (!r2.members.empty())
        g->runs.push_back(std::move(r2));
    return true;
}

bool
rebuild_ladder_runs(const Graph& graph, FusionGroup* g)
{
    // The ladder accumulates in chain order (that fixes the FP
    // summation order), but the fused kernel's *addressing* only needs
    // the operand pairs laid out at a uniform stride in SOME order --
    // so canonicalize the layout to ascending id. Backward
    // accumulation chains run reverse-time; without this they would
    // demand the mirror image of the forward groups' layout and
    // conflict with them spuriously.
    std::vector<size_t> order(g->mms.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return graph.node(g->mms[x]).inputs[0] <
               graph.node(g->mms[y]).inputs[0];
    });
    std::vector<NodeId> a_ops, b_ops;
    for (size_t i : order) {
        a_ops.push_back(graph.node(g->mms[i]).inputs[0]);
        b_ops.push_back(graph.node(g->mms[i]).inputs[1]);
    }
    g->runs.clear();
    AdjacencyRun ra, rb;
    if (!make_run(a_ops, &ra) || !make_run(b_ops, &rb))
        return false;
    if (!ra.members.empty())
        g->runs.push_back(std::move(ra));
    if (!rb.members.empty())
        g->runs.push_back(std::move(rb));
    return true;
}

/** Mine sibling-GEMM batch fusion sets (§4.4.1 common-argument rule). */
std::vector<FusionGroup>
mine_batch_groups(const Graph& graph, const DependencyOracle& oracle,
                  const MiningKeys& keys)
{
    std::vector<FusionGroup> out;
    std::vector<std::pair<int, NodeId>> parts;  // (partition, member)
    std::vector<NodeId> chosen;
    for (const Node& shared : graph.nodes()) {
        const std::vector<NodeId>& users = graph.users(shared.id);
        if (users.size() < 2)
            continue;  // no partition can reach two members
        for (int pos = 0; pos < 2; ++pos) {
            // Partition this node's MatMul consumers by fusability
            // signature (same shape/flags) and provenance scope.
            parts.clear();
            for (NodeId user : users) {
                const Node& mm = graph.node(user);
                if (!mm.is_matmul() || mm.inputs[static_cast<size_t>(pos)]
                                           != shared.id)
                    continue;
                // Avoid double-listing mm(x, x) style self-pairs.
                if (mm.inputs[0] == mm.inputs[1] && pos == 1)
                    continue;
                parts.emplace_back(
                    keys.partition[static_cast<size_t>(user)], user);
            }
            // Partitions in key order, each one's members in id order
            // and listed once (mm(x, x) uses x twice).
            std::sort(parts.begin(), parts.end());
            parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
            for (size_t lo = 0, hi = 0; lo < parts.size(); lo = hi) {
                while (hi < parts.size() && parts[hi].first == parts[lo].first)
                    ++hi;
                if (hi - lo < 2)
                    continue;
                // Greedy mutually-independent subset, in id order.
                chosen.clear();
                for (size_t i = lo; i < hi; ++i) {
                    const NodeId m = parts[i].second;
                    bool ok = true;
                    for (NodeId c : chosen)
                        ok &= oracle.independent(m, c);
                    if (ok)
                        chosen.push_back(m);
                    if (static_cast<int>(chosen.size()) >= kMaxGroupSize)
                        break;
                }
                if (static_cast<int>(chosen.size()) < 2)
                    continue;
                FusionGroup g;
                g.kind = GroupKind::Batch;
                g.mms = chosen;
                g.shared_pos = pos;
                g.shared_node = shared.id;
                // Shared second operand + untransposed first operands:
                // row-stack into one tall GEMM (the paper's "one large
                // GEMM"); otherwise a strided-batched kernel.
                const Node& first_mm = graph.node(chosen[0]);
                g.axis = (pos == 1 && !first_mm.trans_a)
                             ? FusionAxis::MStack
                             : FusionAxis::Batched;
                if (!rebuild_batch_runs(graph, &g))
                    continue;
                finalize_group(graph, &g);
                out.push_back(std::move(g));
            }
        }
    }
    return out;
}

/** Mine GEMM-accumulator ladders (§4.4.1 fusion ladders). */
std::vector<FusionGroup>
mine_ladder_groups(const Graph& graph, const MiningKeys& keys)
{
    std::vector<FusionGroup> out;
    for (const Node& root : graph.nodes()) {
        if (root.kind != OpKind::Add)
            continue;
        // Root = topmost add of a left-deep chain: no single-use Add
        // consumer extends it through input[0].
        bool is_root = true;
        for (NodeId u : graph.users(root.id)) {
            const Node& un = graph.node(u);
            if (un.kind == OpKind::Add && un.inputs[0] == root.id &&
                graph.user_count(root.id) == 1)
                is_root = false;
        }
        if (!is_root)
            continue;

        // Walk the left spine downward.
        std::vector<NodeId> spine{root.id};
        NodeId cur = root.id;
        while (true) {
            const NodeId left = graph.node(cur).inputs[0];
            const Node& ln = graph.node(left);
            if (ln.kind == OpKind::Add && graph.user_count(left) == 1) {
                spine.push_back(left);
                cur = left;
            } else {
                break;
            }
        }
        // Accumulation-ordered leaves.
        std::vector<NodeId> leaves;
        leaves.push_back(graph.node(spine.back()).inputs[0]);
        for (auto it = spine.rbegin(); it != spine.rend(); ++it)
            leaves.push_back(graph.node(*it).inputs[1]);

        // All leaves must be single-use MatMuls of identical shape.
        const int sig = keys.signature[static_cast<size_t>(leaves[0])];
        if (!std::all_of(leaves.begin(), leaves.end(), [&](NodeId l) {
                return graph.node(l).is_matmul() &&
                       graph.user_count(l) == 1 &&
                       keys.signature[static_cast<size_t>(l)] == sig;
            }))
            continue;

        FusionGroup g;
        g.kind = GroupKind::Ladder;
        g.mms = leaves;  // accumulation order
        g.adds.assign(spine.rbegin(), spine.rend());
        // A^T * B ladders concatenate along K when the A_i (row-major)
        // stack vertically and the B_i stack vertically: one deep GEMM.
        const Node& first_leaf = graph.node(leaves[0]);
        g.axis = (first_leaf.trans_a && !first_leaf.trans_b)
                     ? FusionAxis::KStack
                     : FusionAxis::Batched;
        if (!rebuild_ladder_runs(graph, &g))
            continue;
        finalize_group(graph, &g);
        out.push_back(std::move(g));
    }
    return out;
}

}  // namespace

namespace detail {

RunRelation
run_relation(const AdjacencyRun& a, const AdjacencyRun& b,
             NodeId* sole_overlap)
{
    // Runs are short (a batch group's hold at most kMaxGroupSize
    // members, a ladder's one per leaf): a linear probe beats building
    // a set per pair.
    size_t shared = 0;
    NodeId first_shared = kInvalidNode;
    for (NodeId m : b.members) {
        if (std::find(a.members.begin(), a.members.end(), m) ==
            a.members.end())
            continue;
        if (shared++ == 0)
            first_shared = m;
    }
    if (shared == 0)
        return RunRelation::Disjoint;
    if (a.members == b.members)
        return RunRelation::Identical;
    auto is_contig_subseq = [](const std::vector<NodeId>& big,
                               const std::vector<NodeId>& small) {
        if (small.size() > big.size())
            return false;
        for (size_t start = 0; start + small.size() <= big.size();
             ++start) {
            bool match = true;
            for (size_t i = 0; i < small.size(); ++i)
                match &= big[start + i] == small[i];
            if (match)
                return true;
        }
        return false;
    };
    if (is_contig_subseq(a.members, b.members))
        return RunRelation::Contains;
    if (is_contig_subseq(b.members, a.members))
        return RunRelation::ContainedIn;
    if (sole_overlap)
        *sole_overlap = shared == 1 ? first_shared : kInvalidNode;
    return RunRelation::Conflict;
}

ConflictRow::ConflictRow(int num_nodes)
    : member_(static_cast<size_t>(num_nodes), 0)
{
    for (std::vector<int32_t>& pos : pos_)
        pos.assign(static_cast<size_t>(num_nodes), -1);
}

void
ConflictRow::load(const FusionGroup& g)
{
    ASTRA_ASSERT(g.runs.size() <= kMaxRuns);
    for (NodeId id : loaded_) {
        const size_t i = static_cast<size_t>(id);
        member_[i] = 0;
        for (std::vector<int32_t>& pos : pos_)
            pos[i] = -1;
    }
    loaded_.clear();
    for (NodeId id : g.mms) {
        member_[static_cast<size_t>(id)] = 1;
        loaded_.push_back(id);
    }
    runs_ = g.runs.size();
    for (size_t k = 0; k < runs_; ++k) {
        const std::vector<NodeId>& members = g.runs[k].members;
        run_size_[k] = static_cast<int32_t>(members.size());
        for (size_t p = 0; p < members.size(); ++p) {
            pos_[k][static_cast<size_t>(members[p])] =
                static_cast<int32_t>(p);
            loaded_.push_back(members[p]);
        }
    }
}

RunRelation
ConflictRow::relation(size_t k, const AdjacencyRun& b,
                      NodeId* sole_overlap) const
{
    ASTRA_ASSERT(k < runs_);
    const std::vector<int32_t>& pos = pos_[k];
    // Walk the nodes b shares with run k, in b's order. Each must sit
    // one place after the last in both runs; once one does not, no
    // single layout holds both runs, and two nodes are shared.
    int32_t shared = 0, first_p = 0, first_q = 0;
    for (size_t q = 0; q < b.members.size(); ++q) {
        const int32_t p = pos[static_cast<size_t>(b.members[q])];
        if (p < 0)
            continue;
        if (shared == 0) {
            first_p = p;
            first_q = static_cast<int32_t>(q);
        } else if (p != first_p + shared ||
                   static_cast<int32_t>(q) != first_q + shared) {
            if (sole_overlap)
                *sole_overlap = kInvalidNode;
            return RunRelation::Conflict;
        }
        ++shared;
    }
    // The shared nodes form one contiguous stretch of both runs.
    const int32_t size_b = static_cast<int32_t>(b.members.size());
    if (shared == 0)
        return RunRelation::Disjoint;
    if (shared == run_size_[k] && shared == size_b)
        return RunRelation::Identical;
    if (shared == size_b)
        return RunRelation::Contains;
    if (shared == run_size_[k])
        return RunRelation::ContainedIn;
    if (sole_overlap)
        *sole_overlap = shared == 1 ? b.members[static_cast<size_t>(first_q)]
                                    : kInvalidNode;
    return RunRelation::Conflict;
}

}  // namespace detail

namespace {

/**
 * Remove one member (and its ladder Add, if any) from a group. The
 * group's footprint (members and run tensors) only ever shrinks: the
 * runs are rebuilt from a subset of the members.
 */
bool
shrink_group(const Graph& graph, FusionGroup* g, NodeId offending_member)
{
    if (static_cast<int>(g->mms.size()) <= 2)
        return false;  // would fall below the fusion minimum
    if (g->kind == GroupKind::Ladder) {
        // Only the last leaf can be dropped without corrupting the
        // accumulation structure: the first Add combines the first TWO
        // leaves, so removing a front leaf would leave its partner
        // double-counted by the fused accumulator.
        if (offending_member != g->mms.back())
            return false;
    }
    auto it = std::find(g->mms.begin(), g->mms.end(), offending_member);
    if (it == g->mms.end())
        return false;
    g->mms.erase(it);
    if (g->kind == GroupKind::Ladder && !g->adds.empty())
        g->adds.pop_back();  // dropping a leaf shortens the chain
    const bool ok = g->kind == GroupKind::Batch
                        ? rebuild_batch_runs(graph, g)
                        : rebuild_ladder_runs(graph, g);
    if (!ok)
        return false;
    finalize_group(graph, g);
    return true;
}

/** Member MatMul (if any) of `g` whose fused addressing touches node. */
NodeId
member_owning(const Graph& graph, const FusionGroup& g, NodeId node)
{
    for (NodeId m : g.mms) {
        if (m == node)
            return m;
        const Node& n = graph.node(m);
        if (n.inputs[0] == node || n.inputs[1] == node)
            return m;
    }
    return kInvalidNode;
}

/**
 * True when groups a and b cannot both be enabled (§4.5.2); `row` holds
 * a. They conflict when they share a member GEMM (2-D fusion sets along
 * different axes, §4.4.1 / Fig. 1) or when two of their runs overlap
 * in a way no single layout satisfies; the first such run pair counts,
 * in (a's run, b's run) order. An overlap on a single tensor is
 * resolved instead, where possible, by dropping the member that owns
 * it from the smaller group (a on ties) and looking again. Groups whose
 * footprints share no node never conflict and are left untouched.
 */
bool
groups_conflict(const Graph& graph, ConflictRow& row, FusionGroup& a,
                FusionGroup& b)
{
    for (NodeId m : b.mms)
        if (row.is_member(m))
            return true;
    for (size_t ka = 0; ka < a.runs.size(); ++ka) {
        for (const AdjacencyRun& rb : b.runs) {
            NodeId sole = kInvalidNode;
            if (row.relation(ka, rb, &sole) != RunRelation::Conflict)
                continue;
            if (sole != kInvalidNode) {
                FusionGroup& victim = a.mms.size() <= b.mms.size() ? a : b;
                const size_t before = victim.mms.size();
                // shrink_group refuses a group of two: skip the scan.
                const NodeId owner =
                    before > 2 ? member_owning(graph, victim, sole)
                               : kInvalidNode;
                const bool shrunk = owner != kInvalidNode &&
                                    shrink_group(graph, &victim, owner);
                if (&victim == &a && a.mms.size() != before)
                    row.load(a);
                if (shrunk)
                    return groups_conflict(graph, row, a, b);
            }
            return true;
        }
    }
    return false;
}

/**
 * Calls f on every node of a group's footprint: its member GEMMs and
 * the tensors of its runs (a node may come up more than once).
 */
template <typename F>
void
for_each_footprint_node(const FusionGroup& g, F&& f)
{
    for (NodeId m : g.mms)
        f(m);
    for (const AdjacencyRun& r : g.runs)
        for (NodeId id : r.members)
            f(id);
}

/**
 * Conflict edges between groups, resolving single-tensor overlaps by
 * shrinking groups on the way (groups_conflict). Pairs are tested in
 * (i, j) order, as an all-pairs scan would, but only pairs whose
 * footprints share a node: every other pair is conflict-free with no
 * side effect. Because shrinking only removes footprint nodes, a
 * node -> groups index built from the footprints before any shrink
 * lists every pair that can overlap when it is tested. Row i holds
 * group i in a ConflictRow, reloaded only when a shrink changes it.
 */
std::vector<std::vector<size_t>>
analyze_conflicts(const Graph& graph, std::vector<FusionGroup>& groups)
{
    const size_t n = groups.size();
    const size_t num_nodes = static_cast<size_t>(graph.size());
    // The index is one flat array: node v's groups, ascending, are
    // groups_at[first_at[v], first_at[v + 1]).
    std::vector<size_t> first_at(num_nodes + 1, 0);
    std::vector<size_t> last_group(num_nodes);
    const auto for_each_node_group = [&](auto&& f) {  // each pair once
        std::fill(last_group.begin(), last_group.end(), n);
        for (size_t i = 0; i < n; ++i)
            for_each_footprint_node(groups[i], [&](NodeId id) {
                const size_t v = static_cast<size_t>(id);
                if (last_group[v] != i) {
                    last_group[v] = i;
                    f(v, i);
                }
            });
    };
    for_each_node_group([&](size_t v, size_t) { ++first_at[v + 1]; });
    std::partial_sum(first_at.begin(), first_at.end(), first_at.begin());
    std::vector<size_t> groups_at(first_at.back());
    std::vector<size_t> next_at(first_at.begin(), first_at.end() - 1);
    for_each_node_group(
        [&](size_t v, size_t i) { groups_at[next_at[v]++] = i; });

    // Row i's conflicting partners, in test order, are
    // conflicting[row_end[i - 1], row_end[i]).
    std::vector<size_t> conflicting, row_end(n);
    std::vector<size_t> listed_for(n, n);  // row that last listed j
    std::vector<size_t> partners;
    ConflictRow row(graph.size());
    int64_t pairs = 0;
    for (size_t i = 0; i < n; ++i) {
        row.load(groups[i]);
        partners.clear();
        for_each_footprint_node(groups[i], [&](NodeId id) {
            const size_t v = static_cast<size_t>(id);
            for (size_t e = first_at[v]; e < first_at[v + 1]; ++e) {
                const size_t j = groups_at[e];
                if (j > i && listed_for[j] != i) {
                    listed_for[j] = i;
                    partners.push_back(j);
                }
            }
        });
        std::sort(partners.begin(), partners.end());
        pairs += static_cast<int64_t>(partners.size());
        for (size_t j : partners)
            if (groups_conflict(graph, row, groups[i], groups[j]))
                conflicting.push_back(j);
        row_end[i] = conflicting.size();
    }
    obs::counter("enumerate.conflict_pairs").add(pairs);
    obs::counter("enumerate.conflict_edges")
        .add(static_cast<int64_t>(conflicting.size()));

    // Each group's list in one allocation, its edges in the order they
    // were found.
    const auto for_each_edge = [&](auto&& f) {
        for (size_t i = 0, e = 0; i < n; ++i)
            for (; e < row_end[i]; ++e)
                f(i, conflicting[e]);
    };
    std::vector<size_t> degree(n, 0);
    for_each_edge([&](size_t i, size_t j) {
        ++degree[i];
        ++degree[j];
    });
    std::vector<std::vector<size_t>> conflicts(n);
    for (size_t g = 0; g < n; ++g)
        conflicts[g].reserve(degree[g]);
    for_each_edge([&](size_t i, size_t j) {
        conflicts[i].push_back(j);
        conflicts[j].push_back(i);
    });
    return conflicts;
}

/**
 * One allocation strategy: walk the groups in `order`, enabling each
 * one that conflicts with no enabled group and whose runs merge into
 * the layout accumulated so far. A new run merges with the first
 * (lowest-index) accumulated run it overlaps: it is absorbed by a run
 * that contains it, widens a run it contains, and otherwise clashes,
 * which rejects the whole group. first_run[node] holds the lowest
 * index of an accumulated run containing the node, so that run is
 * found without scanning the layout; a group that clashes part-way is
 * rolled back from an undo log. Enabling a group blocks its conflict
 * neighbours; the lists are symmetric, so a group is blocked exactly
 * when an enabled group conflicts with it.
 */
AllocStrategy
build_strategy(const Graph& graph, const std::vector<FusionGroup>& groups,
               const std::vector<std::vector<size_t>>& conflicts,
               const std::vector<size_t>& order)
{
    constexpr size_t kNoRun = static_cast<size_t>(-1);
    AllocStrategy strat;
    strat.group_enabled.assign(groups.size(), false);
    std::vector<char> blocked(groups.size(), 0);
    std::vector<AdjacencyRun>& runs = strat.runs;
    std::vector<size_t> first_run(static_cast<size_t>(graph.size()), kNoRun);
    std::vector<std::pair<NodeId, size_t>> first_run_undo;
    std::vector<std::pair<size_t, AdjacencyRun>> widened_undo;
    const auto claim = [&](const AdjacencyRun& r, size_t idx) {
        for (NodeId id : r.members) {
            size_t& slot = first_run[static_cast<size_t>(id)];
            first_run_undo.emplace_back(id, slot);
            slot = idx;
        }
    };
    for (size_t gi : order) {
        if (blocked[gi])
            continue;
        const size_t runs_before = runs.size();
        first_run_undo.clear();
        widened_undo.clear();
        bool clash = false;
        for (const AdjacencyRun& r : groups[gi].runs) {
            size_t k = kNoRun;
            for (NodeId id : r.members)
                k = std::min(k, first_run[static_cast<size_t>(id)]);
            if (k == kNoRun) {
                claim(r, runs.size());
                runs.push_back(r);
                continue;
            }
            const RunRelation rel = run_relation(runs[k], r);
            ASTRA_ASSERT(rel != RunRelation::Disjoint);
            if (rel == RunRelation::Conflict) {
                clash = true;
                break;
            }
            if (rel == RunRelation::ContainedIn) {
                widened_undo.emplace_back(k, runs[k]);
                runs[k] = r;  // widen to the superset
                claim(r, k);
            }
        }
        if (clash) {
            for (auto it = widened_undo.rbegin(); it != widened_undo.rend();
                 ++it)
                runs[it->first] = std::move(it->second);
            runs.resize(runs_before);
            for (auto it = first_run_undo.rbegin();
                 it != first_run_undo.rend(); ++it)
                first_run[static_cast<size_t>(it->first)] = it->second;
            continue;
        }
        strat.group_enabled[gi] = true;
        for (size_t e : conflicts[gi])
            blocked[e] = 1;
    }
    return strat;
}

/** Greedy group orders expressing different static priorities. */
std::vector<std::vector<size_t>>
strategy_orders(const Graph& graph, const std::vector<FusionGroup>& groups)
{
    // Sort keys per group, read once: the pass of its first member and
    // whether it row-stacks.
    std::vector<Pass> pass(groups.size());
    std::vector<uint8_t> mstack(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
        pass[g] = graph.node(groups[g].mms[0]).pass;
        mstack[g] = groups[g].axis == FusionAxis::MStack;
    }
    std::vector<size_t> by_flops(groups.size());
    for (size_t i = 0; i < by_flops.size(); ++i)
        by_flops[i] = i;
    std::stable_sort(by_flops.begin(), by_flops.end(),
                     [&](size_t a, size_t b) {
                         return groups[a].flops > groups[b].flops;
                     });
    const auto refine = [&](auto before) {
        std::vector<size_t> order = by_flops;
        std::stable_sort(order.begin(), order.end(), before);
        return order;
    };
    return {
        by_flops,
        refine([&](size_t a, size_t b) { return pass[a] < pass[b]; }),
        refine([&](size_t a, size_t b) { return pass[a] > pass[b]; }),
        refine([&](size_t a, size_t b) {
            return groups[a].kind < groups[b].kind;  // batch first
        }),
        refine([&](size_t a, size_t b) {
            return groups[a].kind > groups[b].kind;  // ladders first
        }),
        // "One large GEMM" row-stacked groups amortize tile padding and
        // are usually the most profitable; try a layout that favors
        // them.
        refine([&](size_t a, size_t b) { return mstack[a] > mstack[b]; }),
    };
}

}  // namespace

SearchSpace
enumerate_search_space(const Graph& graph)
{
    obs::ScopedSpan obs_span(obs::Category::Enumerate,
                             "enumerate_search_space");
    const DependencyOracle oracle(graph);
    SearchSpace space;

    std::vector<FusionGroup> groups;
    {
        obs::ScopedSpan mine_span(obs::Category::Enumerate,
                                  "mine_fusion_groups");
        const MiningKeys keys = mining_keys(graph);
        groups = mine_batch_groups(graph, oracle, keys);
        std::vector<FusionGroup> ladders = mine_ladder_groups(graph, keys);
        groups.insert(groups.end(), std::make_move_iterator(ladders.begin()),
                      std::make_move_iterator(ladders.end()));
    }

    // ---- conflict analysis (§4.5.2) -------------------------------------
    // Resolve single-tensor run overlaps statically by shrinking the
    // smaller group; collect hard conflict edges for the rest and for
    // shared-member pairs.
    std::vector<std::vector<size_t>> conflicts;
    {
        obs::ScopedSpan conflict_span(obs::Category::Enumerate,
                                      "conflict_analysis");
        conflicts = analyze_conflicts(graph, groups);
    }

    // Drop groups that degenerated below two members.
    // (shrink_group refuses to go below 2, so just collect.)
    space.groups = std::move(groups);
    for (size_t i = 0; i < space.groups.size(); ++i) {
        space.groups[i].id = static_cast<int>(i);
        space.groups[i].key = "g" + std::to_string(i);
    }

    // ---- allocation strategies: maximal conflict-free subsets -----------
    {
        obs::ScopedSpan fork_span(obs::Category::Enumerate,
                                  "strategy_fork");
        std::set<std::vector<bool>> seen;
        for (const auto& order : strategy_orders(graph, space.groups)) {
            if (static_cast<int>(space.strategies.size()) >= kMaxStrategies)
                break;
            AllocStrategy s =
                build_strategy(graph, space.groups, conflicts, order);
            if (!seen.insert(s.group_enabled).second)
                continue;
            s.id = static_cast<int>(space.strategies.size());
            s.key = "s" + std::to_string(s.id);
            space.strategies.push_back(std::move(s));
        }
    }
    ASTRA_ASSERT(!space.strategies.empty());

    // ---- standalone GEMMs -------------------------------------------------
    std::vector<uint8_t> grouped(static_cast<size_t>(graph.size()), 0);
    for (const FusionGroup& g : space.groups)
        for (NodeId m : g.mms)
            grouped[static_cast<size_t>(m)] = 1;
    for (const Node& node : graph.nodes())
        if (node.is_matmul() && !grouped[static_cast<size_t>(node.id)])
            space.single_mms.push_back(node.id);

    obs::counter("enumerate.groups")
        .add(static_cast<int64_t>(space.groups.size()));
    obs::counter("enumerate.strategies")
        .add(static_cast<int64_t>(space.strategies.size()));
    obs::counter("enumerate.single_mms")
        .add(static_cast<int64_t>(space.single_mms.size()));

    return space;
}

std::vector<int>
gemm_owners(const SearchSpace& space, const AllocStrategy& strategy,
            int num_nodes)
{
    std::vector<int> owner(static_cast<size_t>(num_nodes), -1);
    for (const FusionGroup& g : space.groups)
        if (strategy.group_enabled[static_cast<size_t>(g.id)])
            for (NodeId m : g.mms)
                owner[static_cast<size_t>(m)] = g.id;
    for (const FusionGroup& g : space.groups)
        for (NodeId m : g.mms)
            if (owner[static_cast<size_t>(m)] < 0)
                owner[static_cast<size_t>(m)] = g.id;
    return owner;
}

DataParallelSpace
enumerate_dp_space(const Graph& graph)
{
    DataParallelSpace dp;
    for (NodeId id : graph.outputs()) {
        if (graph.node(id).pass != Pass::Backward)
            continue;
        dp.grad_nodes.push_back(id);
        dp.grad_bytes +=
            static_cast<int64_t>(graph.node(id).desc.bytes());
    }

    // Per-tensor, geometric midpoints, one-bucket — dedup keeps the
    // set small when the gradient volume is tiny.
    dp.bucket_options.push_back(0);
    for (const int64_t div : {8, 4, 2, 1}) {
        const int64_t cap = dp.grad_bytes / div;
        if (cap > 0 && cap != dp.bucket_options.back())
            dp.bucket_options.push_back(cap);
    }
    return dp;
}


}  // namespace astra

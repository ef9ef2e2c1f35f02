#include "core/search_space.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "obs/obs.h"
#include "runtime/executor.h"
#include "support/logging.h"

namespace astra {

namespace {

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
    std::ostringstream os;
    os << (n.trans_a ? "T" : "N") << (n.trans_b ? "T" : "N") << s.m << "x"
       << s.n << "x" << s.k;
    return os.str();
}

/** Chunk-size menu for a group of the given size (§4.8 range cap). */
std::vector<int>
make_chunk_options(int size, int max_options)
{
    std::vector<int> opts{1};
    for (int c = 2; c < size; c *= 2)
        opts.push_back(c);
    if (size > 1)
        opts.push_back(size);
    while (static_cast<int>(opts.size()) > max_options)
        opts.erase(opts.begin() + static_cast<long>(opts.size() / 2));
    return opts;
}

/**
 * Build a run from the given nodes; returns an empty run if the list
 * is degenerate (all identical: stride-0 addressing needs no layout),
 * or nullopt-like empty-with-flag if it mixes duplicates (unfusable).
 */
bool
make_run(const std::vector<NodeId>& nodes, AdjacencyRun* out)
{
    std::set<NodeId> distinct(nodes.begin(), nodes.end());
    if (distinct.size() == 1) {
        out->members.clear();  // stride-0: no constraint
        return true;
    }
    if (distinct.size() != nodes.size())
        return false;  // mixed duplicates: not uniform-stride addressable
    out->members = nodes;
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
finalize_group(const Graph& graph, FusionGroup* g,
               const EnumeratorOptions& opts)
{
    g->chunk_options =
        make_chunk_options(static_cast<int>(g->mms.size()),
                           opts.max_chunk_options);
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
                  const EnumeratorOptions& opts)
{
    std::vector<FusionGroup> out;
    for (const Node& shared : graph.nodes()) {
        for (int pos = 0; pos < 2; ++pos) {
            // Partition this node's MatMul consumers by fusability
            // signature (same shape/flags) and provenance scope.
            std::map<std::string, std::vector<NodeId>> parts;
            for (NodeId user : graph.users(shared.id)) {
                const Node& mm = graph.node(user);
                if (!mm.is_matmul() || mm.inputs[static_cast<size_t>(pos)]
                                           != shared.id)
                    continue;
                // Avoid double-listing mm(x, x) style self-pairs.
                if (mm.inputs[0] == mm.inputs[1] && pos == 1)
                    continue;
                parts[mm_signature(graph, mm) + "@" +
                      provenance_key(mm.scope)]
                    .push_back(user);
            }
            for (auto& [sig, members] : parts) {
                (void)sig;
                std::sort(members.begin(), members.end());
                members.erase(std::unique(members.begin(), members.end()),
                              members.end());
                if (static_cast<int>(members.size()) < 2)
                    continue;
                // Greedy mutually-independent subset, in id order.
                std::vector<NodeId> chosen;
                for (NodeId m : members) {
                    bool ok = true;
                    for (NodeId c : chosen)
                        ok &= oracle.independent(m, c);
                    if (ok)
                        chosen.push_back(m);
                    if (static_cast<int>(chosen.size()) >=
                        opts.max_group_size)
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
                finalize_group(graph, &g, opts);
                out.push_back(std::move(g));
            }
        }
    }
    return out;
}

/** Mine GEMM-accumulator ladders (§4.4.1 fusion ladders). */
std::vector<FusionGroup>
mine_ladder_groups(const Graph& graph, const EnumeratorOptions& opts)
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
        if (static_cast<int>(leaves.size()) < 2 ||
            static_cast<int>(leaves.size()) > opts.max_group_size)
            continue;

        // All leaves must be single-use MatMuls of identical shape.
        bool ok = true;
        std::string sig;
        for (NodeId l : leaves) {
            const Node& ln = graph.node(l);
            if (!ln.is_matmul() || graph.user_count(l) != 1) {
                ok = false;
                break;
            }
            const std::string s = mm_signature(graph, ln);
            if (sig.empty())
                sig = s;
            else if (s != sig)
                ok = false;
        }
        if (!ok)
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
        finalize_group(graph, &g, opts);
        out.push_back(std::move(g));
    }
    return out;
}

/** Relation between two adjacency runs. */
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
RunRelation
run_relation(const AdjacencyRun& a, const AdjacencyRun& b,
             NodeId* sole_overlap = nullptr)
{
    // Runs hold at most max_group_size members: a linear probe beats
    // building a set per pair.
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

/**
 * Remove one member (and its ladder Add, if any) from a group. The
 * group's footprint (members and run tensors) only ever shrinks: the
 * runs are rebuilt from a subset of the members.
 */
bool
shrink_group(const Graph& graph, FusionGroup* g, NodeId offending_member,
             const EnumeratorOptions& opts)
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
    finalize_group(graph, g, opts);
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
 * True when groups a and b cannot both be enabled (§4.5.2). They
 * conflict when they share a member GEMM (2-D fusion sets along
 * different axes, §4.4.1 / Fig. 1) or when two of their runs overlap
 * in a way no single layout satisfies. An overlap on a single tensor
 * is resolved instead, where possible, by dropping the member that
 * owns it from the smaller group (a on ties) and looking again.
 * Groups whose footprints share no node never conflict and are left
 * untouched.
 */
bool
groups_conflict(const Graph& graph, FusionGroup& a, FusionGroup& b,
                const EnumeratorOptions& opts)
{
    for (NodeId m : b.mms)
        if (std::find(a.mms.begin(), a.mms.end(), m) != a.mms.end())
            return true;
    for (const AdjacencyRun& ra : a.runs) {
        for (const AdjacencyRun& rb : b.runs) {
            NodeId sole = kInvalidNode;
            if (run_relation(ra, rb, &sole) != RunRelation::Conflict)
                continue;
            if (sole != kInvalidNode) {
                FusionGroup& victim = a.mms.size() <= b.mms.size() ? a : b;
                const NodeId owner = member_owning(graph, victim, sole);
                if (owner != kInvalidNode &&
                    shrink_group(graph, &victim, owner, opts))
                    return groups_conflict(graph, a, b, opts);
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
 * lists every pair that can overlap when it is tested.
 */
std::vector<std::vector<size_t>>
analyze_conflicts(const Graph& graph, std::vector<FusionGroup>& groups,
                  const EnumeratorOptions& opts)
{
    const size_t n = groups.size();
    std::vector<std::vector<size_t>> groups_at(
        static_cast<size_t>(graph.size()));
    for (size_t i = 0; i < n; ++i)
        for_each_footprint_node(groups[i], [&](NodeId id) {
            std::vector<size_t>& at = groups_at[static_cast<size_t>(id)];
            if (at.empty() || at.back() != i)
                at.push_back(i);
        });

    std::vector<std::vector<size_t>> conflicts(n);
    std::vector<size_t> listed_for(n, n);  // row that last listed j
    std::vector<size_t> partners;
    int64_t pairs = 0, edges = 0;
    for (size_t i = 0; i < n; ++i) {
        partners.clear();
        for_each_footprint_node(groups[i], [&](NodeId id) {
            for (size_t j : groups_at[static_cast<size_t>(id)])
                if (j > i && listed_for[j] != i) {
                    listed_for[j] = i;
                    partners.push_back(j);
                }
        });
        std::sort(partners.begin(), partners.end());
        pairs += static_cast<int64_t>(partners.size());
        for (size_t j : partners) {
            if (!groups_conflict(graph, groups[i], groups[j], opts))
                continue;
            conflicts[i].push_back(j);
            conflicts[j].push_back(i);
            ++edges;
        }
    }
    obs::counter("enumerate.conflict_pairs").add(pairs);
    obs::counter("enumerate.conflict_edges").add(edges);
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
 * rolled back from an undo log.
 */
AllocStrategy
build_strategy(const Graph& graph, const std::vector<FusionGroup>& groups,
               const std::vector<std::vector<size_t>>& conflicts,
               const std::vector<size_t>& order)
{
    constexpr size_t kNoRun = static_cast<size_t>(-1);
    AllocStrategy strat;
    strat.group_enabled.assign(groups.size(), false);
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
        if (std::any_of(conflicts[gi].begin(), conflicts[gi].end(),
                        [&](size_t e) { return strat.group_enabled[e]; }))
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
    }
    return strat;
}

/** Greedy group orders expressing different static priorities. */
std::vector<std::vector<size_t>>
strategy_orders(const Graph& graph, const std::vector<FusionGroup>& groups)
{
    const auto pass = [&](size_t g) {
        return graph.node(groups[g].mms[0]).pass;
    };
    const auto mstack = [&](size_t g) {
        return groups[g].axis == FusionAxis::MStack;
    };
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
        refine([&](size_t a, size_t b) { return pass(a) < pass(b); }),
        refine([&](size_t a, size_t b) { return pass(a) > pass(b); }),
        refine([&](size_t a, size_t b) {
            return groups[a].kind < groups[b].kind;  // batch first
        }),
        refine([&](size_t a, size_t b) {
            return groups[a].kind > groups[b].kind;  // ladders first
        }),
        // "One large GEMM" row-stacked groups amortize tile padding and
        // are usually the most profitable; try a layout that favors
        // them.
        refine([&](size_t a, size_t b) { return mstack(a) > mstack(b); }),
    };
}

}  // namespace

SearchSpace
enumerate_search_space(const Graph& graph, const EnumeratorOptions& opts)
{
    obs::ScopedSpan obs_span(obs::Category::Enumerate,
                             "enumerate_search_space");
    const DependencyOracle oracle(graph);
    SearchSpace space;

    std::vector<FusionGroup> groups;
    {
        obs::ScopedSpan mine_span(obs::Category::Enumerate,
                                  "mine_fusion_groups");
        groups = mine_batch_groups(graph, oracle, opts);
        std::vector<FusionGroup> ladders =
            mine_ladder_groups(graph, opts);
        groups.insert(groups.end(), ladders.begin(), ladders.end());
    }

    // ---- conflict analysis (§4.5.2) -------------------------------------
    // Resolve single-tensor run overlaps statically by shrinking the
    // smaller group; collect hard conflict edges for the rest and for
    // shared-member pairs.
    std::vector<std::vector<size_t>> conflicts;
    {
        obs::ScopedSpan conflict_span(obs::Category::Enumerate,
                                      "conflict_analysis");
        conflicts = analyze_conflicts(graph, groups, opts);
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
            if (static_cast<int>(space.strategies.size()) >=
                opts.max_strategies)
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
    std::set<NodeId> grouped;
    for (const FusionGroup& g : space.groups)
        for (NodeId m : g.mms)
            grouped.insert(m);
    for (const Node& node : graph.nodes())
        if (node.is_matmul() && !grouped.count(node.id))
            space.single_mms.push_back(node.id);

    obs::counter("enumerate.groups")
        .add(static_cast<int64_t>(space.groups.size()));
    obs::counter("enumerate.strategies")
        .add(static_cast<int64_t>(space.strategies.size()));
    obs::counter("enumerate.single_mms")
        .add(static_cast<int64_t>(space.single_mms.size()));

    return space;
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

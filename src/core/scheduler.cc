#include "core/scheduler.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>

#include "obs/obs.h"
#include "runtime/executor.h"
#include "runtime/plan_utils.h"
#include "runtime/wired.h"
#include "support/logging.h"

namespace astra {

namespace {

/**
 * Where a unit's library and profile key come from (DESIGN.md §5.3):
 * a GEMM unit's owning group, or the standalone GEMM itself; an
 * unfused ladder Add's ladder, for its key only; or nothing.
 */
struct UnitStamp
{
    enum class From : uint8_t
    {
        None,
        Group,
        Single,
        LadderAdd,
    };
    From from = From::None;
    int32_t id = -1;  ///< the group id, or the standalone MatMul's node
};

}  // namespace

/**
 * A binding's units and what only they decide. The units, their stamps
 * and their producers are fixed at construction; the stream space and
 * the descriptors also depend on the trial, so each is kept for the
 * last binding that asked and guarded by `mu`.
 */
struct Scheduler::PlanSkeleton
{
    /** Cycle-repaired units in dispatch order: stream 0, unstamped. */
    std::vector<PlanStep> units;

    /** Per unit, what its library and key are stamped from. */
    std::vector<UnitStamp> stamps;

    /** Per unit, its producer units (a kept skeleton's only). */
    UnitProducers producers;

    /**
     * The chain list the units were assembled with (the final repair
     * attempt's), with elementwise fusion; a new shape inherits it.
     */
    std::optional<ChainList> chains;

    mutable std::mutex mu;

    /** The stream space, for the binding `space_binding`. */
    mutable ScheduleConfig space_binding;
    mutable std::shared_ptr<const StreamSpace> space;

    /** The units' descriptors, for the device context last bound. */
    mutable std::shared_ptr<const UnitKernels> kernels;
};

Scheduler::Scheduler(const Graph& graph, const SearchSpace& space,
                     SchedulerOptions opts)
    : graph_(graph), space_(space), opts_(opts),
      elementwise_(static_cast<size_t>(graph.size())),
      ladder_add_group_(static_cast<size_t>(graph.size()), -1),
      skeletons_(space.strategies.size())
{
    for (const Node& n : graph_.nodes())
        elementwise_[static_cast<size_t>(n.id)] = op_is_elementwise(n.kind);
    // A chain's Adds belong to it alone; an unfused one is timed under
    // its ladder's key.
    for (const FusionGroup& g : space_.groups)
        for (NodeId a : g.adds)
            ladder_add_group_[static_cast<size_t>(a)] = g.id;
}

size_t
Scheduler::strategy_slot(int strategy) const
{
    ASTRA_ASSERT(strategy >= 0 &&
                 strategy < static_cast<int>(space_.strategies.size()));
    return static_cast<size_t>(strategy);
}

namespace {

/** Equivalence-class signature of a unit run under `lib` (§4.5.5). */
std::string
unit_signature(const Graph& graph, const PlanStep& unit, GemmLib lib)
{
    std::string sig = std::to_string(static_cast<int>(unit.kind));
    sig += "|" + std::to_string(unit.nodes.size());
    const Node& first = graph.node(unit.nodes[0]);
    sig += "|" + op_name(first.kind) + "|" + first.desc.shape.key();
    if (first.is_matmul())
        sig += "|" + gemm_lib_name(lib);
    return sig;
}

/** What each unit's library and key are stamped from, by its owner. */
std::vector<UnitStamp>
unit_stamps(const Graph& graph, const std::vector<PlanStep>& units,
            const std::vector<int>& owner,
            const std::vector<int>& ladder_add_group)
{
    std::vector<UnitStamp> stamps(units.size());
    for (size_t i = 0; i < units.size(); ++i) {
        const PlanStep& unit = units[i];
        const NodeId first = unit.nodes[0];
        const int g = owner[static_cast<size_t>(first)];
        if (unit.kind == StepKind::FusedGemm ||
            unit.kind == StepKind::LadderGemm ||
            (unit.kind == StepKind::Single && graph.node(first).is_matmul()))
            // Enabled groups are disjoint, so a fused chunk's group is
            // the owner of its every GEMM.
            stamps[i] = g >= 0 ? UnitStamp{UnitStamp::From::Group, g}
                               : UnitStamp{UnitStamp::From::Single, first};
        else if (unit.kind == StepKind::Single &&
                 graph.node(first).kind == OpKind::Add &&
                 ladder_add_group[static_cast<size_t>(first)] >= 0)
            stamps[i] = {UnitStamp::From::LadderAdd,
                         ladder_add_group[static_cast<size_t>(first)]};
    }
    return stamps;
}

/**
 * Fused elementwise chains (§5.3) of a graph whose GEMM chunks cover
 * the elementwise nodes `covered`, appended in scan order: chain c is
 * nodes[begin[c], begin[c + 1]).
 */
void
scan_chains(const Graph& graph, const std::vector<char>& elementwise,
            const std::vector<NodeId>& covered, std::vector<NodeId>& nodes,
            std::vector<int32_t>& begin)
{
    // Max chain length, and how far past the last member the scan may
    // look.
    constexpr int kMaxChain = 10;
    constexpr int kChainWindow = 48;
    // Per node, 1 while a chain may still take it.
    std::vector<char> open = elementwise;
    for (NodeId id : covered)
        open[static_cast<size_t>(id)] = 0;
    std::vector<NodeId> chain;  // ascending, so binary-searchable
    for (NodeId i = 0; i < graph.size(); ++i) {
        if (!open[static_cast<size_t>(i)])
            continue;
        chain.assign(1, i);
        // Scan ahead, skipping interleaved non-elementwise nodes, within
        // a bounded window past the last member. Joining is safe exactly
        // when every input predates the chain or is a member: no skipped
        // node can then sit on a path back into the chain, so
        // contracting it cannot create a cycle.
        for (NodeId j = i + 1;
             j < graph.size() &&
             static_cast<int>(chain.size()) < kMaxChain &&
             j - chain.back() <= kChainWindow;
             ++j) {
            if (!open[static_cast<size_t>(j)])
                continue;
            bool ok = true;
            for (NodeId in : graph.node(j).inputs)
                ok &= in < i ||
                      std::binary_search(chain.begin(), chain.end(), in);
            if (!ok)
                continue;
            chain.push_back(j);
        }
        if (chain.size() < 2)
            continue;
        for (NodeId id : chain)
            open[static_cast<size_t>(id)] = 0;
        nodes.insert(nodes.end(), chain.begin(), chain.end());
        begin.push_back(static_cast<int32_t>(nodes.size()));
    }
}

/** Stamp a unit's library and key (none: profile stays off). */
void
stamp(const UnitStamp& s, const ScheduleConfig& config, UnitStep& step)
{
    const auto take_key = [&step](const auto& keys, auto id) {
        const auto it = keys.find(id);
        if (it != keys.end()) {
            step.profile = true;
            step.key = it->second;
        }
    };
    switch (s.from) {
      case UnitStamp::From::None:
        break;
      case UnitStamp::From::Group:
        if (static_cast<size_t>(s.id) < config.group_lib.size())
            step.lib = config.group_lib[static_cast<size_t>(s.id)];
        take_key(config.group_keys, s.id);
        break;
      case UnitStamp::From::Single: {
        const auto lib = config.single_lib.find(s.id);
        if (lib != config.single_lib.end())
            step.lib = lib->second;
        take_key(config.single_keys, s.id);
        break;
      }
      case UnitStamp::From::LadderAdd:
        take_key(config.group_keys, s.id);
        break;
    }
}

}  // namespace

std::vector<PlanStep>
Scheduler::assemble_units(const ScheduleConfig& config,
                          const std::map<int, int>& forced_chunk,
                          std::optional<ChainList>* chains) const
{
    const AllocStrategy& strat =
        space_.strategies[strategy_slot(config.strategy)];

    std::vector<PlanStep> steps;
    std::vector<int> covered(static_cast<size_t>(graph_.size()), -1);
    auto cover = [&](const std::vector<NodeId>& nodes, int step_idx) {
        for (NodeId id : nodes) {
            ASTRA_ASSERT(covered[static_cast<size_t>(id)] < 0,
                         "node %", id, " covered twice");
            covered[static_cast<size_t>(id)] = step_idx;
        }
    };

    // ---- fused GEMM chunks ------------------------------------------------
    for (const FusionGroup& g : space_.groups) {
        const bool enabled =
            strat.group_enabled[static_cast<size_t>(g.id)];
        int chunk = g.id < static_cast<int>(config.group_chunk.size())
                        ? config.group_chunk[static_cast<size_t>(g.id)]
                        : 1;
        const auto forced = forced_chunk.find(g.id);
        if (forced != forced_chunk.end())
            chunk = std::min(chunk, forced->second);
        if (!enabled)
            chunk = 1;
        if (chunk <= 1)
            continue;
        // A group only fuses if its members aren't claimed by another
        // (conflicting) group that was scheduled first; strategies keep
        // enabled groups disjoint, so first-come is safe.
        bool members_free = true;
        for (NodeId m : g.mms)
            members_free &= covered[static_cast<size_t>(m)] < 0;
        if (g.kind == GroupKind::Ladder)
            for (NodeId a : g.adds)
                members_free &= covered[static_cast<size_t>(a)] < 0;
        if (!members_free)
            continue;

        const int n = static_cast<int>(g.mms.size());
        for (int lo = 0; lo < n; lo += chunk) {
            const int hi = std::min(lo + chunk, n);
            PlanStep step;
            if (hi - lo == 1 && g.kind == GroupKind::Batch) {
                step.kind = StepKind::Single;
                step.nodes = {g.mms[static_cast<size_t>(lo)]};
            } else if (g.kind == GroupKind::Batch) {
                step.kind = StepKind::FusedGemm;
                step.fused_axis = g.axis;
                step.nodes.assign(g.mms.begin() + lo, g.mms.begin() + hi);
            } else {
                if (hi - lo == 1) {
                    // A lone ladder leaf stays a single GEMM; its Add
                    // executes as a normal elementwise node.
                    step.kind = StepKind::Single;
                    step.nodes = {g.mms[static_cast<size_t>(lo)]};
                } else {
                    step.kind = StepKind::LadderGemm;
                    step.fused_axis = g.axis;
                    step.nodes.assign(g.mms.begin() + lo,
                                      g.mms.begin() + hi);
                    const int add_lo = std::max(lo - 1, 0);
                    const int add_hi = hi - 1;  // exclusive index + 1
                    for (int a = add_lo; a < add_hi; ++a)
                        step.nodes.push_back(
                            g.adds[static_cast<size_t>(a)]);
                }
            }
            const int idx = static_cast<int>(steps.size());
            cover(step.nodes, idx);
            steps.push_back(std::move(step));
        }
    }

    // ---- fused elementwise chains (§5.3) -----------------------------------
    // Chains scanned under the same covered ladder Adds are reused.
    if (config.elementwise_fusion) {
        std::vector<NodeId> adds;
        for (const PlanStep& step : steps)
            for (NodeId id : step.nodes)
                if (elementwise_[static_cast<size_t>(id)])
                    adds.push_back(id);
        std::sort(adds.begin(), adds.end());
        if (!chains->has_value() || (*chains)->covered != adds) {
            ChainList scanned;
            scan_chains(graph_, elementwise_, adds, scanned.nodes,
                        scanned.begin);
            scanned.covered = std::move(adds);
            *chains = std::move(scanned);
        }
        const ChainList& list = **chains;
        for (size_t c = 0; c + 1 < list.begin.size(); ++c) {
            PlanStep step;
            step.kind = StepKind::FusedElementwise;
            step.nodes.assign(list.nodes.begin() + list.begin[c],
                              list.nodes.begin() + list.begin[c + 1]);
            const int idx = static_cast<int>(steps.size());
            cover(step.nodes, idx);
            steps.push_back(std::move(step));
        }
    }

    // ---- singles ------------------------------------------------------------
    for (const Node& n : graph_.nodes()) {
        if (covered[static_cast<size_t>(n.id)] >= 0 ||
            op_is_source(n.kind))
            continue;
        PlanStep step;
        step.kind = StepKind::Single;
        step.nodes = {n.id};
        const int idx = static_cast<int>(steps.size());
        cover(step.nodes, idx);
        steps.push_back(std::move(step));
    }

    return steps;
}

std::vector<PlanStep>
Scheduler::repaired_units(const ScheduleConfig& config,
                          std::optional<ChainList>* chains) const
{
    obs::ScopedSpan span(obs::Category::Wire, "scheduler.build_units");
    // Contracting independently-minable fusion groups can still create
    // cycles *between* two fused steps (member A1 feeds member B1
    // while member B2 feeds member A2). The repair loop halves the
    // fusion chunk of every group caught in a cycle and re-assembles —
    // the standard fusion-clustering cycle-breaking strategy.
    std::map<int, int> forced_chunk;
    // Per GEMM, the first group listing it, made at the first cycle.
    std::vector<int> first_group;
    for (int attempt = 0; attempt < 64; ++attempt) {
        std::vector<PlanStep> unplaced;
        std::vector<PlanStep> ordered = topo_sort_steps(
            assemble_units(config, forced_chunk, chains), graph_,
            &unplaced);
        if (unplaced.empty())
            return ordered;

        // Cycle: shrink every fused group participating in it.
        if (first_group.empty()) {
            first_group.assign(static_cast<size_t>(graph_.size()), -1);
            for (const FusionGroup& g : space_.groups)
                for (NodeId mm : g.mms)
                    if (first_group[static_cast<size_t>(mm)] < 0)
                        first_group[static_cast<size_t>(mm)] = g.id;
        }
        bool shrunk = false;
        for (const PlanStep& step : unplaced) {
            if (step.kind != StepKind::FusedGemm &&
                step.kind != StepKind::LadderGemm)
                continue;
            // Identify the group by its first member GEMM, through the
            // first group listing it. That may be a disabled group,
            // which cannot fuse, and then the step's own group keeps its
            // chunk this attempt; reading the owner instead lowers
            // GNMT's tuned speed (DESIGN.md §5.3).
            const int gid = first_group[static_cast<size_t>(step.nodes[0])];
            const FusionGroup& g = space_.groups[static_cast<size_t>(gid)];
            const auto it = forced_chunk.find(g.id);
            const int current = it != forced_chunk.end()
                                    ? it->second
                                    : static_cast<int>(g.mms.size());
            if (current > 1) {
                forced_chunk[g.id] = current / 2;
                shrunk = true;
            }
        }
        ASTRA_ASSERT(shrunk,
                     "cycle in step graph not attributable to fusion");
    }
    panic("cycle repair failed to converge");
}

double
Scheduler::estimate_unit_ns(const PlanStep& unit) const
{
    // Purely static estimate (the paper's "static flops calculation"):
    // never measured, only used to calibrate super-epoch extents.
    constexpr double kLaunchNs = 6000.0;
    double ns = kLaunchNs;
    for (NodeId id : unit.nodes) {
        const Node& n = graph_.node(id);
        if (n.is_matmul())
            ns += matmul_flops(n, graph_) / (0.4 * 166.0 * 56.0);
        else
            ns += static_cast<double>(n.desc.shape.numel()) * 12.0 / 650.0;
    }
    return ns;
}

StreamSpace
Scheduler::stream_space(const std::vector<PlanStep>& units,
                        const std::vector<GemmLib>& libs,
                        int num_streams) const
{
    obs::ScopedSpan span(obs::Category::Wire, "scheduler.stream_space");
    ASTRA_ASSERT(num_streams >= 1);
    StreamSpace ss;
    const size_t n = units.size();
    if (n == 0)
        return ss;

    // Super-epoch partition by cumulative static cost.
    std::vector<int> se_of(n, 0);
    int se = 0;
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
        acc += estimate_unit_ns(units[i]);
        se_of[i] = se;
        if (acc >= opts_.super_epoch_ns) {
            ++se;
            acc = 0.0;
        }
    }
    ss.num_super_epochs = se_of[n - 1] + 1;

    // Producer unit of every node.
    std::vector<int> producer(static_cast<size_t>(graph_.size()), -1);
    for (size_t i = 0; i < n; ++i)
        for (NodeId id : units[i].nodes)
            producer[static_cast<size_t>(id)] = static_cast<int>(i);

    // Dependency level within each super-epoch.
    std::vector<int> level(n, 0);
    for (size_t i = 0; i < n; ++i) {
        int lv = 0;
        for (NodeId id : units[i].nodes) {
            for (NodeId in : graph_.node(id).inputs) {
                const int p = producer[static_cast<size_t>(in)];
                if (p >= 0 && static_cast<size_t>(p) != i &&
                    se_of[static_cast<size_t>(p)] == se_of[i])
                    lv = std::max(lv, level[static_cast<size_t>(p)] + 1);
            }
        }
        level[i] = lv;
    }

    // Epochs = (super-epoch, level) buckets, in order.
    std::map<std::pair<int, int>, EpochInfo> epochs;
    for (size_t i = 0; i < n; ++i) {
        EpochInfo& e = epochs[{se_of[i], level[i]}];
        e.super_epoch = se_of[i];
        e.level = level[i];
        e.units.push_back(i);
    }

    for (auto& [key, e] : epochs) {
        (void)key;
        // Equivalence classes inside the epoch.
        std::map<std::string, std::vector<size_t>> classes;
        std::vector<std::string> class_order;
        for (size_t local = 0; local < e.units.size(); ++local) {
            const size_t u = e.units[local];
            const std::string sig = unit_signature(graph_, units[u], libs[u]);
            if (!classes.count(sig))
                class_order.push_back(sig);
            classes[sig].push_back(local);
        }

        // Per-class split options (near-balanced first, §4.8). Each
        // option is a per-local-unit stream assignment for the class.
        std::vector<std::vector<std::vector<int>>> class_opts;
        for (const std::string& sig : class_order) {
            const auto& members = classes[sig];
            const int m = static_cast<int>(members.size());
            std::vector<std::vector<int>> opts_for_class;
            if (m == 1) {
                for (int s = 0; s < num_streams; ++s)
                    opts_for_class.push_back({s});
            } else if (num_streams == 1) {
                opts_for_class.push_back(
                    std::vector<int>(static_cast<size_t>(m), 0));
            } else if (num_streams == 2) {
                const int center = (m + 1) / 2;
                std::set<int> seen;
                // Near-balanced splits first (§4.8), plus the all-on-
                // one-stream opt-out so exploration can disable the
                // split where concurrency does not pay.
                for (int d : {0, -1, 1, -2, 2, m - center}) {
                    const int n0 = std::clamp(center + d, 0, m);
                    if (!seen.insert(n0).second)
                        continue;
                    std::vector<int> assign(
                        static_cast<size_t>(m), 1);
                    for (int j = 0; j < n0; ++j)
                        assign[static_cast<size_t>(j)] = 0;
                    opts_for_class.push_back(std::move(assign));
                }
            } else {
                // Wider machines: balanced round-robin over all S,
                // over two streams, and the serial opt-out.
                std::vector<int> over_s(static_cast<size_t>(m));
                std::vector<int> over_two(static_cast<size_t>(m));
                for (int j = 0; j < m; ++j) {
                    over_s[static_cast<size_t>(j)] = j % num_streams;
                    over_two[static_cast<size_t>(j)] = j % 2;
                }
                opts_for_class.push_back(std::move(over_s));
                opts_for_class.push_back(std::move(over_two));
                opts_for_class.push_back(
                    std::vector<int>(static_cast<size_t>(m), 0));
            }
            class_opts.push_back(std::move(opts_for_class));
        }

        // Cap the flattened product: trim the widest class until the
        // epoch fits the exhaustive budget.
        constexpr int64_t kMaxEpochOptions = 24;
        auto product = [&] {
            int64_t p = 1;
            for (const auto& c : class_opts)
                p *= static_cast<int64_t>(c.size());
            return p;
        };
        while (product() > kMaxEpochOptions) {
            size_t widest = 0;
            for (size_t c = 1; c < class_opts.size(); ++c)
                if (class_opts[c].size() > class_opts[widest].size())
                    widest = c;
            if (class_opts[widest].size() <= 1)
                break;
            class_opts[widest].pop_back();
        }

        // Flatten (mixed radix) into per-epoch options.
        const int64_t total = product();
        for (int64_t o = 0; o < total; ++o) {
            std::vector<int> streams(e.units.size(), 0);
            int64_t rem = o;
            for (size_t c = 0; c < class_opts.size(); ++c) {
                const int64_t radix =
                    static_cast<int64_t>(class_opts[c].size());
                const auto& assign =
                    class_opts[c][static_cast<size_t>(rem % radix)];
                rem /= radix;
                const auto& members = classes[class_order[c]];
                for (size_t j = 0; j < members.size(); ++j)
                    streams[members[j]] = assign[j];
            }
            e.options.push_back(std::move(streams));
        }
    }

    for (auto& [key, e] : epochs) {
        (void)key;
        ss.epochs.push_back(std::move(e));
    }
    return ss;
}

namespace {

/**
 * True when two configs agree on every field the skeleton's units or
 * its stream space read: the key of a kept stream space.
 */
bool
same_binding(const ScheduleConfig& a, const ScheduleConfig& b)
{
    return a.strategy == b.strategy &&
           a.elementwise_fusion == b.elementwise_fusion &&
           a.num_streams == b.num_streams &&
           a.group_chunk == b.group_chunk && a.group_lib == b.group_lib &&
           a.single_lib == b.single_lib && a.group_keys == b.group_keys &&
           a.single_keys == b.single_keys;
}

}  // namespace

std::shared_ptr<const Scheduler::PlanSkeleton>
Scheduler::kept_skeleton(const ScheduleConfig& config) const
{
    const SkeletonSlot& slot = skeletons_[strategy_slot(config.strategy)];
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (slot.value != nullptr &&
        slot.elementwise_fusion == config.elementwise_fusion &&
        slot.group_chunk == config.group_chunk)
        return slot.value;
    return nullptr;
}

std::optional<Scheduler::ChainList>
Scheduler::kept_chains(int strategy) const
{
    std::lock_guard<std::mutex> lock(cache_mu_);
    const SkeletonSlot& slot = skeletons_[strategy_slot(strategy)];
    if (slot.value == nullptr)
        return std::nullopt;
    return slot.value->chains;
}

std::unique_ptr<Scheduler::PlanSkeleton>
Scheduler::make_skeleton(const ScheduleConfig& config,
                         std::shared_ptr<const std::vector<int>>* owner) const
{
    if (*owner == nullptr) {
        std::lock_guard<std::mutex> lock(cache_mu_);
        *owner = skeletons_[strategy_slot(config.strategy)].owner;
    }
    if (*owner == nullptr)
        *owner = std::make_shared<const std::vector<int>>(gemm_owners(
            space_, space_.strategies[strategy_slot(config.strategy)],
            graph_.size()));
    std::optional<ChainList> chains = kept_chains(config.strategy);
    auto skel = std::make_unique<PlanSkeleton>();
    skel->units = repaired_units(config, &chains);
    skel->stamps =
        unit_stamps(graph_, skel->units, **owner, ladder_add_group_);
    if (config.elementwise_fusion)
        skel->chains = std::move(chains);
    return skel;
}

std::shared_ptr<const Scheduler::PlanSkeleton>
Scheduler::skeleton(const ScheduleConfig& config, bool* kept,
                    std::shared_ptr<const PlanSkeleton>* replaced) const
{
    std::shared_ptr<const PlanSkeleton> hit = kept_skeleton(config);
    if (kept != nullptr)
        *kept = hit != nullptr;
    if (hit != nullptr)
        return hit;
    std::shared_ptr<const std::vector<int>> owner;
    std::unique_ptr<PlanSkeleton> built = make_skeleton(config, &owner);
    // A kept skeleton serves trials, which compile over its producers.
    built->producers = unit_producers(built->units, graph_);
    std::shared_ptr<const PlanSkeleton> skel = std::move(built);
    std::shared_ptr<const PlanSkeleton> old;  // freed after the lock
    {
        SkeletonSlot& slot = skeletons_[strategy_slot(config.strategy)];
        std::lock_guard<std::mutex> lock(cache_mu_);
        slot.owner = std::move(owner);
        slot.group_chunk = config.group_chunk;
        slot.elementwise_fusion = config.elementwise_fusion;
        old = std::exchange(slot.value, skel);
    }
    if (replaced != nullptr)
        *replaced = std::move(old);
    return skel;
}

void
Scheduler::release_skeleton(int strategy) const
{
    SkeletonSlot released;  // freed after the lock is dropped
    std::lock_guard<std::mutex> lock(cache_mu_);
    std::swap(released, skeletons_[strategy_slot(strategy)]);
}

std::shared_ptr<const StreamSpace>
Scheduler::stream_space_of(const PlanSkeleton& skel,
                           const ScheduleConfig& config) const
{
    {
        std::lock_guard<std::mutex> lock(skel.mu);
        if (skel.space != nullptr && same_binding(skel.space_binding, config))
            return skel.space;
    }
    std::vector<GemmLib> libs(skel.units.size());
    for (size_t i = 0; i < libs.size(); ++i) {
        UnitStep step;
        stamp(skel.stamps[i], config, step);
        libs[i] = step.lib;
    }
    auto space = std::make_shared<const StreamSpace>(
        stream_space(skel.units, libs, config.num_streams));
    std::lock_guard<std::mutex> lock(skel.mu);
    skel.space_binding = config;
    skel.space = space;
    return space;
}

StreamSpace
Scheduler::stream_space(const ScheduleConfig& config) const
{
    return *stream_space_of(*skeleton(config), config);
}

std::vector<UnitStep>
Scheduler::unit_steps(const PlanSkeleton& skel, const ScheduleConfig& config,
                      const StreamSpace* ss) const
{
    const auto stamped = [&](size_t unit, int stream) {
        UnitStep step;
        step.unit = static_cast<int32_t>(unit);
        step.stream = stream;
        stamp(skel.stamps[unit], config, step);
        return step;
    };
    std::vector<UnitStep> steps;
    if (ss == nullptr) {
        steps.reserve(skel.units.size());
        for (size_t i = 0; i < skel.units.size(); ++i)
            steps.push_back(stamped(i, 0));
        return steps;
    }

    steps.reserve(skel.units.size() +
                  static_cast<size_t>(ss->num_super_epochs));
    std::vector<std::vector<size_t>> per_stream(
        static_cast<size_t>(config.num_streams));
    int prev_se = 0;
    for (const EpochInfo& e : ss->epochs) {
        if (e.super_epoch != prev_se) {
            // Super-epoch boundary: reset stream history (§4.5.3).
            steps.push_back(UnitStep{});
            prev_se = e.super_epoch;
        }
        const auto choice_it =
            config.epoch_choice.find({e.super_epoch, e.level});
        int opt = choice_it != config.epoch_choice.end()
                      ? choice_it->second
                      : 0;
        ASTRA_ASSERT(!e.options.empty());
        opt = std::clamp(opt, 0,
                         static_cast<int>(e.options.size()) - 1);
        const auto& streams = e.options[static_cast<size_t>(opt)];

        const auto key_it = config.epoch_keys.find(
            {e.super_epoch, e.level});

        // Emit this epoch's units interleaved across streams so the
        // host enqueue pipeline feeds every stream promptly (issuing
        // one stream's whole epoch first would starve the others).
        for (auto& list : per_stream)
            list.clear();
        for (size_t j = 0; j < e.units.size(); ++j)
            per_stream[static_cast<size_t>(streams[j])].push_back(
                e.units[j]);
        for (size_t rank = 0;; ++rank) {
            bool emitted = false;
            for (int s = 0; s < config.num_streams; ++s) {
                const auto& list = per_stream[static_cast<size_t>(s)];
                if (rank >= list.size())
                    continue;
                UnitStep step = stamped(list[rank], s);
                if (key_it != config.epoch_keys.end()) {
                    step.profile = true;
                    step.epoch_metric = true;
                    step.key = key_it->second;
                }
                steps.push_back(step);
                emitted = true;
            }
            if (!emitted)
                break;
        }
    }
    return steps;
}

namespace {

/** The plan steps `steps` name: each its unit, moved out of `units`. */
std::vector<PlanStep>
plan_steps(std::vector<PlanStep> units, const std::vector<UnitStep>& steps)
{
    std::vector<PlanStep> out;
    out.reserve(steps.size());
    for (const UnitStep& s : steps) {
        if (s.unit < 0) {
            PlanStep barrier;
            barrier.kind = StepKind::Barrier;
            out.push_back(std::move(barrier));
            continue;
        }
        // Every unit is named once.
        PlanStep step = std::move(units[static_cast<size_t>(s.unit)]);
        step.stream = s.stream;
        step.lib = s.lib;
        step.profile = s.profile;
        step.epoch_metric = s.epoch_metric;
        step.profile_key = s.key;
        out.push_back(std::move(step));
    }
    return out;
}

}  // namespace

ExecutionPlan
Scheduler::build(const ScheduleConfig& config) const
{
    obs::ScopedSpan span(obs::Category::Wire, "scheduler.build");
    // A kept skeleton's units are copied; one made here, moved.
    const std::shared_ptr<const PlanSkeleton> kept = kept_skeleton(config);
    std::shared_ptr<const std::vector<int>> owner;
    std::unique_ptr<PlanSkeleton> made =
        kept != nullptr ? nullptr : make_skeleton(config, &owner);
    const PlanSkeleton& skel = kept != nullptr ? *kept : *made;
    ExecutionPlan plan;
    plan.num_streams = config.use_streams ? config.num_streams : 1;
    const std::vector<UnitStep> steps = unit_steps(
        skel, config,
        config.use_streams ? stream_space_of(skel, config).get() : nullptr);
    if (made != nullptr)
        plan.steps = plan_steps(std::move(made->units), steps);
    else
        plan.steps = plan_steps(kept->units, steps);
    return plan;
}

std::vector<PlanStep>
Scheduler::build_units(const ScheduleConfig& config) const
{
    ScheduleConfig unstreamed = config;
    unstreamed.use_streams = false;
    return build(unstreamed).steps;
}

WiredBinary
Scheduler::bind(const ScheduleConfig& config, const TensorMap& tmap,
                const GpuConfig& gpu) const
{
    std::shared_ptr<const PlanSkeleton> skel, replaced;
    std::vector<UnitStep> steps;
    {
        obs::ScopedSpan span(obs::Category::Wire, "scheduler.build");
        bool kept = false;
        skel = skeleton(config, &kept, &replaced);
        if (obs::enabled()) {
            static obs::Counter& hits =
                obs::counter("scheduler.plan_cache.hits");
            static obs::Counter& misses =
                obs::counter("scheduler.plan_cache.misses");
            (kept ? hits : misses).add();
        }
        steps = unit_steps(
            *skel, config,
            config.use_streams ? stream_space_of(*skel, config).get()
                               : nullptr);
    }

    // A new skeleton starts with the descriptors of the one it replaced
    // wherever their units are equal, if they were built for this
    // device context.
    std::shared_ptr<const UnitKernels> inherited;
    if (replaced != nullptr) {
        std::lock_guard<std::mutex> lock(replaced->mu);
        if (replaced->kernels != nullptr &&
            replaced->kernels->serves(tmap, gpu))
            inherited = replaced->kernels;
    }
    std::shared_ptr<const UnitKernels> kernels;
    {
        std::lock_guard<std::mutex> lock(skel->mu);
        if (skel->kernels == nullptr || !skel->kernels->serves(tmap, gpu))
            skel->kernels =
                inherited != nullptr
                    ? std::make_shared<const UnitKernels>(
                          *inherited, replaced->units, skel->units,
                          static_cast<size_t>(graph_.size()))
                    : std::make_shared<const UnitKernels>(
                          tmap, gpu, skel->units.size());
        kernels = skel->kernels;
    }
    WiredBinary bound;
    bound.kernels = kernels->resolve(skel->units, steps, graph_, tmap, gpu);
    bound.program = compile_steps(
        steps, skel->producers, config.use_streams ? config.num_streams : 1,
        /*profiling=*/true);
    bound.owner = std::move(kernels);
    return bound;
}

std::shared_ptr<const WiredBinary>
Scheduler::wire_cached(const ScheduleConfig& config, const TensorMap& tmap,
                       const GpuConfig& gpu) const
{
    // Under cache_mu_: the binary lowered from an equal config, if any.
    const auto cached = [&]() -> std::shared_ptr<const WiredBinary> {
        for (const auto& [cfg, bin] : wired_cache_)
            if (cfg == config)
                return bin;
        return nullptr;
    };
    {
        std::lock_guard<std::mutex> lock(cache_mu_);
        if (std::shared_ptr<const WiredBinary> hit = cached())
            return hit;
    }
    // Lower outside the lock. Lowering ends in the legality verifier,
    // so a blob that would replay incorrectly never enters the cache. A
    // winner whose exploration ran one pipeline finds that pipeline's
    // skeleton kept, and binds from its units and the descriptors its
    // trials built.
    auto bin = std::make_shared<WiredBinary>(
        kept_skeleton(config) != nullptr
            ? lower_plan(build(config),
                         [&] { return bind(config, tmap, gpu); }, graph_,
                         tmap)
            : lower_plan(build(config), graph_, tmap, gpu));
    std::shared_ptr<const WiredBinary> out;
    {
        std::lock_guard<std::mutex> lock(cache_mu_);
        // A concurrent call may have lowered an equal config meanwhile.
        out = cached();
        if (out == nullptr) {
            wired_cache_.emplace_back(config, std::move(bin));
            out = wired_cache_.back().second;
        }
    }
    // A lowered winner keeps only its binary.
    release_skeleton(config.strategy);
    return out;
}

}  // namespace astra

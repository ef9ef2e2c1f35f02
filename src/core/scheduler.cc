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

Scheduler::Scheduler(const Graph& graph, const SearchSpace& space,
                     SchedulerOptions opts)
    : graph_(graph), space_(space), opts_(opts),
      elementwise_(static_cast<size_t>(graph.size())),
      skeletons_(space.strategies.size())
{
    for (const Node& n : graph_.nodes())
        elementwise_[static_cast<size_t>(n.id)] = op_is_elementwise(n.kind);
}

size_t
Scheduler::strategy_slot(int strategy) const
{
    ASTRA_ASSERT(strategy >= 0 &&
                 strategy < static_cast<int>(space_.strategies.size()));
    return static_cast<size_t>(strategy);
}

namespace {

/** Equivalence-class signature of a unit (§4.5.5). */
std::string
unit_signature(const Graph& graph, const PlanStep& unit)
{
    std::string sig = std::to_string(static_cast<int>(unit.kind));
    sig += "|" + std::to_string(unit.nodes.size());
    const Node& first = graph.node(unit.nodes[0]);
    sig += "|" + op_name(first.kind) + "|" + first.desc.shape.key();
    if (first.is_matmul())
        sig += "|" + gemm_lib_name(unit.lib);
    return sig;
}

}  // namespace

std::vector<PlanStep>
Scheduler::assemble_units(const ScheduleConfig& config,
                          const std::vector<int>& owner,
                          const std::map<int, int>& forced_chunk) const
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

    // The ladder of every ladder Add (a chain's Adds belong to it
    // alone), for its profile key when it executes unfused.
    std::vector<int> ladder_add_group(static_cast<size_t>(graph_.size()),
                                      -1);
    for (const FusionGroup& g : space_.groups)
        for (NodeId a : g.adds)
            ladder_add_group[static_cast<size_t>(a)] = g.id;

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
            step.lib = g.id < static_cast<int>(config.group_lib.size())
                           ? config.group_lib[static_cast<size_t>(g.id)]
                           : GemmLib::Cublas;
            const auto key_it = config.group_keys.find(g.id);
            if (key_it != config.group_keys.end()) {
                step.profile = true;
                step.profile_key = key_it->second;
            }
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
    if (config.elementwise_fusion) {
        // Max chain length, and how far past the last member the scan
        // may look.
        constexpr int kMaxChain = 10;
        constexpr int kChainWindow = 48;
        std::vector<NodeId> chain;  // ascending, so binary-searchable
        for (NodeId i = 0; i < graph_.size(); ++i) {
            if (covered[static_cast<size_t>(i)] >= 0 ||
                !elementwise_[static_cast<size_t>(i)])
                continue;
            chain.assign(1, i);
            // Scan ahead, skipping interleaved non-elementwise nodes,
            // within a bounded window past the last member. Joining is
            // safe exactly when every input predates the chain or is a
            // member: no skipped node can then sit on a path back into
            // the chain, so contracting it cannot create a cycle.
            for (NodeId j = i + 1;
                 j < graph_.size() &&
                 static_cast<int>(chain.size()) < kMaxChain &&
                 j - chain.back() <= kChainWindow;
                 ++j) {
                if (covered[static_cast<size_t>(j)] >= 0 ||
                    !elementwise_[static_cast<size_t>(j)])
                    continue;
                bool ok = true;
                for (NodeId in : graph_.node(j).inputs)
                    ok &= in < i || std::binary_search(chain.begin(),
                                                       chain.end(), in);
                if (!ok)
                    continue;
                chain.push_back(j);
            }
            if (chain.size() < 2)
                continue;
            PlanStep step;
            step.kind = StepKind::FusedElementwise;
            step.nodes = chain;
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
        if (n.is_matmul()) {
            // An unfused GEMM is timed and tuned by its owner.
            const int g = owner[static_cast<size_t>(n.id)];
            if (g >= 0) {
                step.lib =
                    g < static_cast<int>(config.group_lib.size())
                        ? config.group_lib[static_cast<size_t>(g)]
                        : GemmLib::Cublas;
                const auto key_it = config.group_keys.find(g);
                if (key_it != config.group_keys.end()) {
                    step.profile = true;
                    step.profile_key = key_it->second;
                }
            } else {
                const auto lib_it = config.single_lib.find(n.id);
                if (lib_it != config.single_lib.end())
                    step.lib = lib_it->second;
                const auto key_it = config.single_keys.find(n.id);
                if (key_it != config.single_keys.end()) {
                    step.profile = true;
                    step.profile_key = key_it->second;
                }
            }
        } else if (n.kind == OpKind::Add &&
                   ladder_add_group[static_cast<size_t>(n.id)] >= 0) {
            // Unfused ladder Adds count toward their group's metric so
            // chunk=1 is charged the accumulation cost fusion removes.
            const auto key_it = config.group_keys.find(
                ladder_add_group[static_cast<size_t>(n.id)]);
            if (key_it != config.group_keys.end()) {
                step.profile = true;
                step.profile_key = key_it->second;
            }
        }
        const int idx = static_cast<int>(steps.size());
        cover(step.nodes, idx);
        steps.push_back(std::move(step));
    }

    return steps;
}

std::vector<PlanStep>
Scheduler::build_units(const ScheduleConfig& config) const
{
    obs::ScopedSpan span(obs::Category::Wire, "scheduler.build_units");
    // Contracting independently-minable fusion groups can still create
    // cycles *between* two fused steps (member A1 feeds member B1
    // while member B2 feeds member A2). The repair loop halves the
    // fusion chunk of every group caught in a cycle and re-assembles —
    // the standard fusion-clustering cycle-breaking strategy.
    const std::vector<int> owner = gemm_owners(
        space_, space_.strategies[strategy_slot(config.strategy)],
        graph_.size());
    std::map<int, int> forced_chunk;
    for (int attempt = 0; attempt < 64; ++attempt) {
        std::vector<PlanStep> unplaced;
        std::vector<PlanStep> ordered = topo_sort_steps(
            assemble_units(config, owner, forced_chunk), graph_, &unplaced);
        if (unplaced.empty())
            return ordered;

        // Cycle: shrink every fused group participating in it.
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
            for (const FusionGroup& g : space_.groups) {
                if (std::find(g.mms.begin(), g.mms.end(),
                              step.nodes[0]) == g.mms.end())
                    continue;
                const auto it = forced_chunk.find(g.id);
                int current = it != forced_chunk.end()
                                  ? it->second
                                  : static_cast<int>(g.mms.size());
                if (current > 1) {
                    forced_chunk[g.id] = current / 2;
                    shrunk = true;
                }
                break;
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
            const std::string sig =
                unit_signature(graph_, units[e.units[local]]);
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
 * True when two configs agree on every field build_units() or
 * stream_space() reads: the key of a plan skeleton.
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
Scheduler::skeleton(const ScheduleConfig& config) const
{
    SkeletonSlot& slot = skeletons_[strategy_slot(config.strategy)];
    {
        std::lock_guard<std::mutex> lock(cache_mu_);
        if (slot.value != nullptr && same_binding(slot.binding, config))
            return slot.value;
    }
    auto built = std::make_shared<PlanSkeleton>();
    built->units = build_units(config);
    built->space = stream_space(built->units, config.num_streams);
    std::shared_ptr<const PlanSkeleton> skel = std::move(built);
    std::lock_guard<std::mutex> lock(cache_mu_);
    slot.value = skel;
    slot.binding = config;
    return skel;
}

void
Scheduler::release_skeleton(int strategy) const
{
    SkeletonSlot released;  // freed after the lock is dropped
    std::lock_guard<std::mutex> lock(cache_mu_);
    std::swap(released, skeletons_[strategy_slot(strategy)]);
}

StreamSpace
Scheduler::stream_space(const ScheduleConfig& config) const
{
    return skeleton(config)->space;
}

ExecutionPlan
Scheduler::build(const ScheduleConfig& config) const
{
    obs::ScopedSpan span(obs::Category::Wire, "scheduler.build");
    ExecutionPlan plan;
    if (!config.use_streams) {
        plan.num_streams = 1;
        plan.steps = build_units(config);
        return plan;
    }

    const std::shared_ptr<const PlanSkeleton> skel = skeleton(config);
    const std::vector<PlanStep>& units = skel->units;
    const StreamSpace& ss = skel->space;
    plan.num_streams = config.num_streams;
    plan.steps.reserve(units.size() +
                       static_cast<size_t>(ss.num_super_epochs));

    int prev_se = 0;
    for (const EpochInfo& e : ss.epochs) {
        if (e.super_epoch != prev_se) {
            // Super-epoch boundary: reset stream history (§4.5.3).
            PlanStep barrier;
            barrier.kind = StepKind::Barrier;
            plan.steps.push_back(std::move(barrier));
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
        std::vector<std::vector<size_t>> per_stream(
            static_cast<size_t>(plan.num_streams));
        for (size_t j = 0; j < e.units.size(); ++j)
            per_stream[static_cast<size_t>(streams[j])].push_back(
                e.units[j]);
        for (size_t rank = 0;; ++rank) {
            bool emitted = false;
            for (int s = 0; s < plan.num_streams; ++s) {
                const auto& list = per_stream[static_cast<size_t>(s)];
                if (rank >= list.size())
                    continue;
                PlanStep step = units[list[rank]];
                step.stream = s;
                if (key_it != config.epoch_keys.end()) {
                    step.profile = true;
                    step.epoch_metric = true;
                    step.profile_key = key_it->second;
                }
                plan.steps.push_back(std::move(step));
                emitted = true;
            }
            if (!emitted)
                break;
        }
    }
    return plan;
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
    // so a blob that would replay incorrectly never enters the cache.
    auto bin = std::make_shared<WiredBinary>(
        lower_plan(build(config), graph_, tmap, gpu));
    std::lock_guard<std::mutex> lock(cache_mu_);
    // A concurrent call may have lowered an equal config meanwhile.
    if (std::shared_ptr<const WiredBinary> raced = cached())
        return raced;
    wired_cache_.emplace_back(config, std::move(bin));
    return wired_cache_.back().second;
}

}  // namespace astra

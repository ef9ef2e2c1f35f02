/**
 * @file
 * Shared helpers for the test suite: a minimal value-executing runner
 * over the native plan, and tolerance-based comparisons.
 */
#pragma once

#include <algorithm>
#include <locale>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/astra.h"
#include "core/plan_store.h"
#include "models/models.h"
#include "runtime/dispatcher.h"
#include "runtime/native.h"
#include "runtime/wired.h"
#include "support/rng.h"

namespace astra::testutil {

/** Owns memory + tensor map for one graph and runs the native plan. */
class Runner
{
  public:
    explicit Runner(const Graph& graph,
                    std::vector<AdjacencyRun> runs = {})
        : graph_(graph),
          mem_(graph_tensor_bytes(graph) + (1 << 20)),
          tmap_(graph, mem_, runs)
    {
        cfg_.execute_kernels = true;
    }

    const TensorMap& tmap() const { return tmap_; }
    GpuConfig& config() { return cfg_; }

    DispatchResult
    run_native()
    {
        return dispatch_plan(native_plan(graph_), graph_, tmap_, cfg_);
    }

    DispatchResult
    run(const ExecutionPlan& plan)
    {
        return dispatch_plan(plan, graph_, tmap_, cfg_);
    }

    /** Scalar value of a [1]-shaped node (e.g. the loss). */
    float
    scalar(NodeId id) const
    {
        return tmap_.f32(id)[0];
    }

    /** Copy of a node's buffer. */
    std::vector<float>
    values(NodeId id) const
    {
        const int64_t n = graph_.node(id).desc.shape.numel();
        const float* p = tmap_.f32(id);
        return std::vector<float>(p, p + n);
    }

  private:
    const Graph& graph_;
    SimMemory mem_;
    TensorMap tmap_;
    GpuConfig cfg_;
};

/** Max absolute difference between two equally-sized vectors. */
inline double
max_abs_diff(const std::vector<float>& a, const std::vector<float>& b)
{
    if (a.size() != b.size())
        return 1e30;
    double worst = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst,
                         std::abs(static_cast<double>(a[i]) - b[i]));
    return worst;
}

/**
 * Canonical text of a search space: every FusionGroup field (flops in
 * hexfloat), each strategy's id, key, enabled bitmap and runs, and
 * single_mms. Two spaces dump equal exactly when they are equal field
 * for field.
 */
inline std::string
search_space_dump(const SearchSpace& space)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    const auto ids = [&os](const char* tag, const auto& v) {
        os << " " << tag << "[";
        for (size_t i = 0; i < v.size(); ++i)
            os << (i ? "," : "") << v[i];
        os << "]";
    };
    const auto runs = [&](const std::vector<AdjacencyRun>& rs) {
        os << " runs{";
        for (const AdjacencyRun& r : rs)
            ids("", r.members);
        os << " }";
    };
    for (const FusionGroup& g : space.groups) {
        os << "group " << g.id << " " << g.key << " kind "
           << static_cast<int>(g.kind) << " axis "
           << static_cast<int>(g.axis) << " shared " << g.shared_pos << ":"
           << g.shared_node << " flops " << std::hexfloat << g.flops
           << std::defaultfloat;
        ids("mms", g.mms);
        ids("adds", g.adds);
        ids("chunks", g.chunk_options);
        runs(g.runs);
        os << "\n";
    }
    for (const AllocStrategy& s : space.strategies) {
        os << "strategy " << s.id << " " << s.key << " enabled ";
        for (bool on : s.group_enabled)
            os << (on ? '1' : '0');
        runs(s.runs);
        os << "\n";
    }
    ids("single_mms", space.single_mms);
    os << "\n";
    return os.str();
}

/** FNV-1a digest of search_space_dump(), as 16 hex digits. */
inline std::string
search_space_digest(const SearchSpace& space)
{
    return hash_hex(fnv1a64(search_space_dump(space)));
}

/**
 * Canonical text of an execution plan: its stream count and every
 * PlanStep field, one step per line (doubles in hexfloat, strings
 * length-prefixed, profile keys as the ordinal of their first
 * appearance). Two plans dump equal exactly when they are equal field
 * for field, up to a renaming of keys.
 */
inline std::string
plan_dump(const ExecutionPlan& plan)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << std::hexfloat << "streams " << plan.num_streams << "\n";
    const auto str = [&os](const std::string& s) {
        os << s.size() << ":" << s;
    };
    std::map<ProfileKey, size_t> key_ordinal;
    for (const PlanStep& s : plan.steps) {
        os << "kind " << static_cast<int>(s.kind) << " nodes[";
        for (size_t i = 0; i < s.nodes.size(); ++i)
            os << (i ? "," : "") << s.nodes[i];
        os << "] lib " << static_cast<int>(s.lib) << " axis "
           << static_cast<int>(s.fused_axis) << " stream " << s.stream
           << " profile " << s.profile << " key "
           << key_ordinal.emplace(s.profile_key, key_ordinal.size())
                  .first->second;
        os << " epoch " << s.epoch_metric << " compound "
           << s.compound_cost.blocks << "/" << s.compound_cost.block_ns
           << "/" << s.compound_cost.setup_ns << "/"
           << s.compound_cost.max_sms << " ";
        str(s.compound_name);
        os << " setup " << s.extra_setup_ns << "\n";
    }
    return os.str();
}

/**
 * Canonical text of a bound plan: per step its descriptor's name
 * (length-prefixed), launch key (the ordinal of its first appearance),
 * blocks, max_sms, block_ns and setup_ns (hexfloat), "-" for a
 * barrier; then the command array. `kernel(i)` is step i's
 * descriptor.
 */
template <typename KernelAt>
std::string
bound_dump(const WiredProgram& program, const KernelAt& kernel)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << std::hexfloat;
    std::map<ProfileKey, size_t> key_ordinal;
    for (size_t i = 0; i < program.is_barrier.size(); ++i) {
        if (program.is_barrier[i]) {
            os << "-\n";
            continue;
        }
        const KernelDesc& k = kernel(i);
        os << k.name.size() << ":" << k.name << " "
           << key_ordinal.emplace(program.keys[i], key_ordinal.size())
                  .first->second
           << " " << k.blocks << " " << k.max_sms << " " << k.block_ns
           << " " << k.setup_ns << "\n";
    }
    for (const WiredCmd& c : program.cmds)
        os << static_cast<int>(c.op) << "," << c.stream << "," << c.arg
           << ";";
    os << "\n";
    return os.str();
}

/** bound_dump of a binary that owns its descriptors. */
inline std::string
bound_dump(const WiredBinary& bin)
{
    return bound_dump(bin.program, [&](size_t i) -> const KernelDesc& {
        return bin.kernels[i];
    });
}

/** bound_dump of a plan bound by reference (Scheduler::bind). */
inline std::string
bound_dump(const BoundPlan& bound)
{
    return bound_dump(bound.program, [&](size_t i) -> const KernelDesc& {
        return *bound.kernels[i];
    });
}

/**
 * The rest of a program's layout: step spans, barrier slots, event
 * and stream counts, and every profile readout recipe.
 */
inline std::string
program_layout_dump(const WiredProgram& program)
{
    std::ostringstream os;
    for (int32_t b : program.step_begin)
        os << b << ",";
    os << "|";
    for (int32_t b : program.barrier_slots)
        os << b << ",";
    os << "|" << program.num_events << "|" << program.num_streams << "|";
    for (const WiredProfile& p : program.profiles)
        os << p.key.bits() << "/" << p.epoch_metric << "/" << p.start_slot
           << "/" << p.end_slot << "/" << p.barrier_begin << "/"
           << p.barrier_end << ";";
    return os.str();
}

/** The wirer's root-context key for `kind` variable `index`, choice 0. */
inline ProfileKey
wirer_key(WirerVariable kind, int index)
{
    return ProfileKey(0, wirer_variable_id(kind, index), 0);
}

/**
 * The attribution oracle: how many GEMM units of `units` (build_units
 * of `cfg`) disagree with the variable that decides them, and the
 * first few, or empty. A MatMul's owner is the config strategy's
 * enabled group listing it, else the first group listing it, else the
 * MatMul itself. A unit takes its owner's library and key: group_lib /
 * group_keys for a group, single_lib / single_keys for a standalone
 * GEMM, and no profile without a key. A fused unit's members share
 * one owner, and a ladder Add run on its own carries its ladder's key.
 * Derived from the space here, apart from the scheduler's own
 * gemm_owners().
 */
inline std::string
attribution_errors(const Graph& graph, const SearchSpace& space,
                   const ScheduleConfig& cfg,
                   const std::vector<PlanStep>& units)
{
    const std::vector<bool>& enabled =
        space.strategies[static_cast<size_t>(cfg.strategy)].group_enabled;
    std::map<NodeId, int> owner, ladder_of;
    for (const FusionGroup& g : space.groups)
        for (NodeId m : g.mms)
            if (enabled[static_cast<size_t>(g.id)])
                owner[m] = g.id;
    for (const FusionGroup& g : space.groups) {
        for (NodeId m : g.mms)
            owner.emplace(m, g.id);
        for (NodeId a : g.adds)
            ladder_of.emplace(a, g.id);
    }
    const auto owner_of = [&](NodeId id) {
        const auto it = owner.find(id);
        return it == owner.end() ? -1 : it->second;
    };
    const auto key_of = [](const auto& keys, const auto& who) {
        const auto it = keys.find(who);
        return it == keys.end() ? ProfileKey() : it->second;
    };
    std::vector<std::string> bad;
    const auto name = [](int who) {
        return who >= 0 ? "g" + std::to_string(who) : std::string("itself");
    };
    const auto key_name = [](ProfileKey key) {
        return key.valid() ? to_string(key) : std::string("unkeyed");
    };
    for (const PlanStep& u : units) {
        const ProfileKey got = u.profile ? u.profile_key : ProfileKey();
        const NodeId first = u.nodes[0];
        if (!graph.node(first).is_matmul()) {
            const auto ladder = ladder_of.find(first);
            if (u.kind == StepKind::Single && ladder != ladder_of.end() &&
                got != key_of(cfg.group_keys, ladder->second))
                bad.push_back("add %" + std::to_string(first) +
                              " not keyed by its ladder " +
                              name(ladder->second));
            continue;
        }
        const int who = owner_of(first);
        for (NodeId id : u.nodes)
            if (graph.node(id).is_matmul() && owner_of(id) != who)
                bad.push_back("unit at %" + std::to_string(first) +
                              " fuses %" + std::to_string(id) +
                              " of another owner");
        GemmLib lib = GemmLib::Cublas;
        ProfileKey key;
        if (who >= 0) {
            if (static_cast<size_t>(who) < cfg.group_lib.size())
                lib = cfg.group_lib[static_cast<size_t>(who)];
            key = key_of(cfg.group_keys, who);
        } else {
            const auto it = cfg.single_lib.find(first);
            if (it != cfg.single_lib.end())
                lib = it->second;
            key = key_of(cfg.single_keys, first);
        }
        if (u.lib != lib || got != key)
            bad.push_back("unit at %" + std::to_string(first) + " runs " +
                          gemm_lib_name(u.lib) + " " + key_name(got) +
                          ", its owner " + name(who) + " says " +
                          gemm_lib_name(lib) + " " + key_name(key));
    }
    std::string out;
    for (size_t i = 0; i < std::min<size_t>(bad.size(), 4); ++i)
        out += "; " + bad[i];
    return bad.empty() ? out
                       : std::to_string(bad.size()) + " misattributed" + out;
}

/** numpunct facet of a de_DE-style locale: ',' decimal, '.' grouping. */
class CommaDecimal : public std::numpunct<char>
{
  protected:
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
};

/** RAII global-locale override (restored even on ASSERT failure). */
class ScopedGlobalLocale
{
  public:
    explicit ScopedGlobalLocale(const std::locale& loc)
        : prev_(std::locale::global(loc))
    {
    }
    ~ScopedGlobalLocale() { std::locale::global(prev_); }

    ScopedGlobalLocale(const ScopedGlobalLocale&) = delete;
    ScopedGlobalLocale& operator=(const ScopedGlobalLocale&) = delete;

  private:
    std::locale prev_;
};

/** The repo benchmark's zoo shape: batch 16, seq 8, hidden 128. */
inline ModelConfig
zoo_shape()
{
    return {.batch = 16, .seq_len = 8, .hidden = 128, .embed_dim = 128,
            .vocab = 1000};
}

/**
 * Every group at its `chunk_option`-th chunk choice (clamped to the
 * largest), cuBLAS everywhere, one stream.
 */
inline ScheduleConfig
default_config(const SearchSpace& space, int chunk_option = 0)
{
    ScheduleConfig cfg;
    cfg.group_chunk.assign(space.groups.size(), 1);
    cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
    for (const FusionGroup& g : space.groups) {
        const size_t pick = std::min<size_t>(
            static_cast<size_t>(chunk_option),
            g.chunk_options.size() - 1);
        cfg.group_chunk[static_cast<size_t>(g.id)] =
            g.chunk_options[pick];
    }
    return cfg;
}

/**
 * The configs the paper-model pins digest: the unstreamed default;
 * max chunks, streamed, every epoch on choice 0; and three seeded
 * random epoch choices with every epoch keyed (a stage-C trial).
 */
inline std::vector<ScheduleConfig>
pinned_configs(const SearchSpace& space, const Scheduler& sched)
{
    std::vector<ScheduleConfig> cfgs{default_config(space)};
    ScheduleConfig streamed = default_config(space, 1 << 20);
    streamed.use_streams = true;
    const StreamSpace ss = sched.stream_space(streamed);
    for (const EpochInfo& e : ss.epochs)
        streamed.epoch_choice[{e.super_epoch, e.level}] = 0;
    cfgs.push_back(streamed);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed);
        ScheduleConfig drawn = streamed;
        for (size_t i = 0; i < ss.epochs.size(); ++i) {
            const EpochInfo& e = ss.epochs[i];
            const std::pair<int, int> key{e.super_epoch, e.level};
            drawn.epoch_choice[key] =
                static_cast<int>(rng.next_below(e.options.size()));
            drawn.epoch_keys[key] =
                wirer_key(WirerVariable::EpochSplit, static_cast<int>(i));
        }
        cfgs.push_back(std::move(drawn));
    }
    return cfgs;
}

}  // namespace astra::testutil

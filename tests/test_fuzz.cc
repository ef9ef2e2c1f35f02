/**
 * @file
 * Randomized structural testing: generate random dataflow graphs
 * (seeded, reproducible), push them through the full pipeline —
 * enumerate, schedule under random configurations (epoch stream
 * choices included), dispatch with values — and check the global
 * invariants: every plan covers every node exactly once in topological
 * order, a scheduler warmed on a sibling configuration emits and binds
 * the same plan as a fresh one, every configuration is bit-identical to
 * the native dispatch, and its lowered binary verifies and replays to
 * the same values and timings as dispatching the plan. This is where
 * grouping edge cases the hand-written models never produce get
 * caught. OracleFuzz checks the enumerator's MatMul reachability
 * oracle against a graph search on those graphs and the model zoo.
 *
 * RecordFuzz mutates a valid sample of every text format read from
 * outside the program (config, plan-store entry, fault spec): it
 * truncates, swaps tokens for hostile numbers and flips
 * bits. Each mutant must read back or be rejected with a
 * "<unit> N: reason" diagnostic, and never abort.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <regex>
#include <set>

#include "autodiff/autodiff.h"
#include "core/astra.h"
#include "core/config_io.h"
#include "core/plan_store.h"
#include "graph/builder.h"
#include "models/data.h"
#include "models/models.h"
#include "runtime/wired.h"
#include "tests/util.h"

namespace astra {
namespace {

/**
 * Random layered DAG with fusable sibling GEMMs and add chains. Its
 * ladders draw 2-4 leaves, or with `long_ladders` 17-40, past the
 * largest fused kernel (kMaxGroupSize), and then the first layer is
 * always a ladder.
 */
GraphBuilder
random_graph(uint64_t seed, bool long_ladders = false)
{
    Rng rng(seed);
    GraphBuilder b;
    const int64_t dim = 8 << rng.next_below(2);  // 8 or 16
    const int64_t batch = 4;

    std::vector<NodeId> live;
    live.push_back(b.input({batch, dim}));
    live.push_back(b.input({batch, dim}));

    const int layers = 3 + static_cast<int>(rng.next_below(3));
    for (int layer = 0; layer < layers; ++layer) {
        GraphBuilder::Scoped scope(b, "L" + std::to_string(layer));
        const NodeId x =
            live[rng.next_below(live.size())];
        const uint64_t kind = rng.next_below(4);
        switch (long_ladders && layer == 0 ? 1 : kind) {
          case 0: {  // sibling GEMMs off one operand (batch-fusable)
            const int n = 2 + static_cast<int>(rng.next_below(3));
            for (int i = 0; i < n; ++i)
                live.push_back(
                    b.sigmoid(b.matmul(x, b.param({dim, dim}))));
            break;
          }
          case 1: {  // accumulation ladder (ladder-fusable)
            if (long_ladders) {
                // An RNN weight-gradient shape: one weight, a fresh
                // operand per leaf (a leaf may not repeat one), so the
                // backward pass accumulates the weight's gradient
                // through as long a ladder.
                const int n = 17 + static_cast<int>(rng.next_below(24));
                const NodeId w = b.param({dim, dim});
                NodeId acc = b.matmul(b.tanh(x), w);
                for (int i = 1; i < n; ++i)
                    acc = b.add(acc, b.matmul(b.tanh(live[rng.next_below(
                                                  live.size())]),
                                              w));
                live.push_back(acc);
                break;
            }
            const int n = 2 + static_cast<int>(rng.next_below(3));
            NodeId acc = b.matmul(x, b.param({dim, dim}));
            for (int i = 1; i < n; ++i)
                acc = b.add(acc, b.matmul(
                                     live[rng.next_below(live.size())],
                                     b.param({dim, dim})));
            live.push_back(acc);
            break;
          }
          case 2: {  // elementwise chain
            NodeId t = b.tanh(x);
            t = b.mul(t, x);
            t = b.scale(t, 0.5f);
            live.push_back(t);
            break;
          }
          default: {  // binary mix of two live values
            const NodeId y = live[rng.next_below(live.size())];
            live.push_back(b.add(x, y));
            break;
          }
        }
        if (live.size() > 6)
            live.erase(live.begin(),
                       live.begin() + static_cast<long>(live.size()) - 6);
    }
    // Loss head so autodiff applies.
    const NodeId logits = b.matmul(live.back(), b.param({dim, 24}));
    const NodeId labels = b.input_ids(batch, 24);
    const NodeId loss = b.cross_entropy(logits, labels);
    b.graph().mark_output(loss);
    append_backward(b, loss);
    return b;
}

/**
 * Six random configurations of one random graph, through the whole
 * pipeline. Each must cover every node exactly once in topological
 * order, be emitted the same by a warm and a fresh scheduler, attribute
 * every GEMM unit to its owner (testutil::attribution_errors), match
 * the native dispatch's loss bit for bit, lower to a binary that
 * replays to the same loss and timings, and bind on a scheduler warmed
 * by a sibling of other chunks and then one of other libraries and
 * keys exactly as a fresh plan binds.
 */
void
check_random_configs(const Graph& g, const SearchSpace& space,
                     uint64_t seed)
{
    // Native reference values.
    testutil::Runner native(g);
    Rng data_rng(seed ^ 0xabcdef);
    bind_all(g, native.tmap(), data_rng);
    native.run_native();
    NodeId loss = kInvalidNode;
    for (const Node& n : g.nodes())
        if (n.kind == OpKind::CrossEntropy)
            loss = n.id;
    ASSERT_NE(loss, kInvalidNode);
    const float expect = native.scalar(loss);
    ASSERT_TRUE(std::isfinite(expect));

    SchedulerOptions sopts;
    sopts.super_epoch_ns = 50000.0;
    const Scheduler sched(g, space, sopts);

    Rng cfg_rng(seed * 31 + 7);
    // Epoch choices and standalone libraries draw from their own
    // streams, so the bindings above stay the ones the space digests
    // were taken with.
    Rng choice_rng(seed * 131 + 3);
    Rng single_rng(seed * 71 + 5);
    const auto draw_choices = [&](ScheduleConfig cfg) {
        const StreamSpace ss = sched.stream_space(cfg);
        for (const EpochInfo& e : ss.epochs)
            cfg.epoch_choice[{e.super_epoch, e.level}] =
                static_cast<int>(choice_rng.next_below(e.options.size()));
        return cfg;
    };
    for (int trial = 0; trial < 6; ++trial) {
        ScheduleConfig cfg;
        cfg.strategy = static_cast<int>(
            cfg_rng.next_below(space.strategies.size()));
        cfg.elementwise_fusion = cfg_rng.next_below(2) == 0;
        cfg.use_streams = cfg_rng.next_below(2) == 0;
        cfg.group_chunk.assign(space.groups.size(), 1);
        cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
        for (const FusionGroup& grp : space.groups) {
            cfg.group_chunk[static_cast<size_t>(grp.id)] =
                grp.chunk_options[cfg_rng.next_below(
                    grp.chunk_options.size())];
            cfg.group_lib[static_cast<size_t>(grp.id)] =
                static_cast<GemmLib>(cfg_rng.next_below(kNumGemmLibs));
            // Keyed groups (and epochs below) give the replay check a
            // profile map to compare.
            cfg.group_keys[grp.id] =
                testutil::wirer_key(WirerVariable::GroupChunk, grp.id);
        }
        for (size_t i = 0; i < space.single_mms.size(); ++i) {
            const NodeId id = space.single_mms[i];
            cfg.single_lib[id] =
                static_cast<GemmLib>(single_rng.next_below(kNumGemmLibs));
            cfg.single_keys[id] = testutil::wirer_key(
                WirerVariable::SingleLib, static_cast<int>(i));
        }
        if (cfg.use_streams) {
            // Warm the shared scheduler on a sibling (same binding,
            // other epoch choices): the plan it then emits from the
            // cached skeleton must equal a fresh scheduler's.
            (void)sched.build(draw_choices(cfg));
            cfg = draw_choices(cfg);
            const StreamSpace ss = sched.stream_space(cfg);
            for (size_t i = 0; i < ss.epochs.size(); ++i)
                cfg.epoch_keys[{ss.epochs[i].super_epoch,
                                ss.epochs[i].level}] =
                    testutil::wirer_key(WirerVariable::EpochSplit,
                                        static_cast<int>(i));
        }
        const ExecutionPlan plan = sched.build(cfg);
        EXPECT_EQ(testutil::plan_dump(plan),
                  testutil::plan_dump(Scheduler(g, space, sopts).build(cfg)))
            << "seed " << seed << " trial " << trial;

        // Coverage + order invariant, and attribution.
        const auto units = sched.build_units(cfg);
        std::set<NodeId> covered;
        for (const PlanStep& u : units)
            for (NodeId id : u.nodes) {
                ASSERT_FALSE(covered.count(id));
                covered.insert(id);
            }
        for (const Node& n : g.nodes())
            if (!op_is_source(n.kind)) {
                ASSERT_TRUE(covered.count(n.id)) << "node %" << n.id;
            }
        EXPECT_EQ(testutil::attribution_errors(g, space, cfg, units), "")
            << "seed " << seed << " trial " << trial;

        // Value invariant, on the strategy's own layout. The device is
        // pinned to base clock and no faults: the timing identity below
        // holds only there.
        testutil::Runner cand(
            g, space.strategies[static_cast<size_t>(cfg.strategy)].runs);
        cand.config().autoboost = false;
        cand.config().faults = FaultPlan();
        Rng data_rng2(seed ^ 0xabcdef);
        bind_all(g, cand.tmap(), data_rng2);
        const DispatchResult dispatched = cand.run(plan);
        ASSERT_EQ(cand.scalar(loss), expect)
            << "seed " << seed << " trial " << trial;

        // Steady state: the lowered binary (which lower_plan proves
        // with verify_wired) replays to the same loss (recomputed, not
        // left over) and the same timings.
        const WiredBinary bin =
            lower_plan(plan, g, cand.tmap(), cand.config());
        cand.tmap().f32(loss)[0] = std::nanf("");
        const DispatchResult replayed = replay_wired(bin, cand.config());
        EXPECT_EQ(cand.scalar(loss), expect)
            << "seed " << seed << " trial " << trial;
        EXPECT_EQ(replayed.total_ns, dispatched.total_ns)
            << "seed " << seed << " trial " << trial;
        EXPECT_EQ(replayed.profile_ns, dispatched.profile_ns)
            << "seed " << seed << " trial " << trial;

        // Reuse: the shared scheduler, warmed on a sibling of stage-A
        // shape (other chunks, so the trial's skeleton replaces its
        // skeleton and inherits what they share) and then on one of
        // stage-B shape (the same units, other libraries and keys),
        // binds the trial exactly as a fresh scheduler's plan binds,
        // command for command and descriptor field for field, and the
        // trial dispatches to the same result and values.
        ScheduleConfig chunks = cfg;
        for (const FusionGroup& grp : space.groups) {
            const std::vector<int>& options = grp.chunk_options;
            int& chunk = chunks.group_chunk[static_cast<size_t>(grp.id)];
            const auto at = std::find(options.begin(), options.end(), chunk);
            chunk = options[static_cast<size_t>(at - options.begin() + 1) %
                            options.size()];
        }
        (void)sched.bind(chunks, cand.tmap(), cand.config());
        ScheduleConfig sibling = cfg;
        const auto next_lib = [](GemmLib lib) {
            return static_cast<GemmLib>((static_cast<int>(lib) + 1) %
                                        kNumGemmLibs);
        };
        for (GemmLib& lib : sibling.group_lib)
            lib = next_lib(lib);
        for (auto& [id, lib] : sibling.single_lib)
            lib = next_lib(lib);
        for (auto& [gid, key] : sibling.group_keys)
            key = testutil::wirer_key(WirerVariable::GroupLib, gid);
        sibling.single_keys.clear();
        (void)sched.bind(sibling, cand.tmap(), cand.config());
        const WiredBinary bound = sched.bind(cfg, cand.tmap(), cand.config());
        const WiredBinary fresh =
            bind_plan(Scheduler(g, space, sopts).build(cfg), g, cand.tmap(),
                      cand.config(), /*profiling=*/true);
        EXPECT_EQ(testutil::bound_dump(bound), testutil::bound_dump(fresh))
            << "seed " << seed << " trial " << trial;
        EXPECT_EQ(testutil::program_layout_dump(bound.program),
                  testutil::program_layout_dump(fresh.program))
            << "seed " << seed << " trial " << trial;
        cand.tmap().f32(loss)[0] = std::nanf("");
        const DispatchResult rebound = dispatch_plan(
            [&] { return sched.bind(cfg, cand.tmap(), cand.config()); },
            cand.config());
        EXPECT_EQ(cand.scalar(loss), expect)
            << "seed " << seed << " trial " << trial;
        EXPECT_EQ(rebound.total_ns, dispatched.total_ns)
            << "seed " << seed << " trial " << trial;
        EXPECT_EQ(rebound.profile_ns, dispatched.profile_ns)
            << "seed " << seed << " trial " << trial;
        EXPECT_EQ(rebound.stats.kernels_launched,
                  dispatched.stats.kernels_launched);
        EXPECT_EQ(rebound.stats.events_recorded,
                  dispatched.stats.events_recorded);
        EXPECT_EQ(rebound.stats.busy_sm_ns, dispatched.stats.busy_sm_ns);
        EXPECT_EQ(rebound.clock_multiplier, dispatched.clock_multiplier);
    }
}

class FuzzPipeline : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzPipeline, EveryConfigurationIsValueIdentical)
{
    GraphBuilder gb = random_graph(GetParam());
    const Graph& g = gb.graph();
    g.validate();

    const SearchSpace space = enumerate_search_space(g);
    // The enumerator's output, pinned byte for byte per seed
    // (testutil::search_space_dump): the space the wirer explores
    // changes only on purpose.
    static const char* const kSpaceDigests[] = {
        "5dcbcb9509b4af14", "28e0948245cd5c8b", "4227d37dcc6fda79",
        "6f15c9c81bd34bdb", "7b98ac7d3537c5a4", "02b829a88ba93c9b",
        "bcfc869012c70d90", "a5f3d8c3f151954d", "58db41f197cb64c8",
        "c0cf1e74d050c963", "5560a64df7f6e8ac", "2d815ee8b0ff6362",
        "0a9633840941e42f", "9d6b87f17208f9ec", "970d3da2a24bfc8a",
        "1c058d621f927191", "995978cb13e12be4", "4eb5991b7d0d5710",
        "64e52a981b83d15b", "1f685bf06c8accf9", "b50e5f21a58429ee",
        "45ebac4d8e02efa3", "52081ae8c9f69e68", "71977b1d211764e8",
    };
    ASSERT_LE(GetParam(), std::size(kSpaceDigests));
    EXPECT_EQ(testutil::search_space_digest(space),
              kSpaceDigests[GetParam() - 1])
        << "seed " << GetParam();
    check_random_configs(g, space, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<uint64_t>(1, 25));

class FuzzLongLadders : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzLongLadders, SplitLaddersAreValueIdentical)
{
    // Ladders longer than one fused kernel are split into chunks of at
    // most kMaxGroupSize leaves, each later chunk carrying in the
    // previous chunk's partial sum.
    GraphBuilder gb = random_graph(GetParam(), /*long_ladders=*/true);
    const Graph& g = gb.graph();
    g.validate();
    const SearchSpace space = enumerate_search_space(g);
    size_t longest = 0;
    for (const FusionGroup& grp : space.groups) {
        EXPECT_LE(grp.chunk_options.size(),
                  static_cast<size_t>(kMaxChunkOptions));
        EXPECT_LE(grp.chunk_options.back(), kMaxGroupSize);
        if (grp.kind == GroupKind::Ladder)
            longest = std::max(longest, grp.mms.size());
    }
    EXPECT_GT(longest, static_cast<size_t>(kMaxGroupSize))
        << "seed " << GetParam();
    check_random_configs(g, space, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLongLadders,
                         ::testing::Range<uint64_t>(1, 9));

// ---- the dependency oracle against graph search ---------------------------

/**
 * MatMul pairs (a, b) on which the oracle's depends_on(b, a) disagrees
 * with a depth-first search from a over the users lists.
 */
int64_t
oracle_disagreements(const Graph& g)
{
    const DependencyOracle oracle(g);
    std::vector<NodeId> mms;
    for (const Node& n : g.nodes())
        if (n.is_matmul())
            mms.push_back(n.id);
    int64_t wrong = 0;
    std::vector<char> reached;
    std::vector<NodeId> stack;
    for (NodeId a : mms) {
        reached.assign(static_cast<size_t>(g.size()), 0);
        stack.assign(1, a);
        while (!stack.empty()) {
            const NodeId v = stack.back();
            stack.pop_back();
            for (NodeId u : g.users(v))
                if (!reached[static_cast<size_t>(u)]) {
                    reached[static_cast<size_t>(u)] = 1;
                    stack.push_back(u);
                }
        }
        for (NodeId b : mms)
            wrong += oracle.depends_on(b, a) !=
                     (reached[static_cast<size_t>(b)] != 0);
    }
    return wrong;
}

TEST(OracleFuzz, MatMulReachabilityAgreesWithGraphSearch)
{
    const ModelConfig shape{.batch = 4, .seq_len = 8, .hidden = 16,
                            .embed_dim = 16, .vocab = 50};
    for (const ModelKind kind :
         {ModelKind::Scrnn, ModelKind::MiLstm, ModelKind::SubLstm,
          ModelKind::StackedLstm, ModelKind::Gnmt, ModelKind::Rhn,
          ModelKind::AttnLstm})
        EXPECT_EQ(oracle_disagreements(build_model(kind, shape).graph()), 0)
            << model_name(kind);
    for (uint64_t seed = 1; seed <= 24; ++seed)
        EXPECT_EQ(oracle_disagreements(random_graph(seed).graph()), 0)
            << "seed " << seed;
}

// ---- record readers under mutation ----------------------------------------

/**
 * One text format: a valid sample, and a reader that either rejects a
 * text (filling the diagnostic) or accepts it and writes it back out.
 */
struct RecordFormat
{
    std::string name;
    std::string sample;
    std::function<bool(const std::string& text, std::string* error,
                       std::string* rewritten)>
        read;
};

ScheduleConfig
sample_config(const SearchSpace& space)
{
    ScheduleConfig cfg;
    cfg.group_chunk.assign(space.groups.size(), 1);
    cfg.group_lib.assign(space.groups.size(), GemmLib::Oai1);
    for (NodeId id : space.single_mms)
        cfg.single_lib[id] = GemmLib::Cublas;
    cfg.epoch_choice[{0, 1}] = 2;
    cfg.use_streams = true;
    return cfg;
}

/** The plan-store frame around a payload, recomputed for each mutant. */
std::string
frame(const std::string& payload)
{
    return "astra-plan-store v2 " + std::to_string(payload.size()) + " " +
           hash_hex(fnv1a64(payload)) + "\n" + payload;
}

std::vector<RecordFormat>
record_formats()
{
    const BuiltModel model = build_model(
        ModelKind::Scrnn, {.batch = 4, .seq_len = 2, .hidden = 8,
                           .embed_dim = 8, .vocab = 16});
    const SearchSpace space = enumerate_search_space(model.graph());
    const ScheduleConfig cfg = sample_config(space);

    PlanStoreEntry entry;
    entry.key = {0x1111, 0x2222, 0x3333, 0x4444, 1.5e9};
    entry.config = cfg;
    entry.best_ns = 1.0 / 3.0;
    const std::string framed = PlanStore::entry_to_string(entry);

    std::vector<RecordFormat> formats;
    formats.push_back(
        {"config", config_to_string(cfg),
         [](const std::string& text, std::string* error, std::string* out) {
             ScheduleConfig c;
             if (!config_from_string(text, &c, error))
                 return false;
             *out = config_to_string(c);
             return true;
         }});
    // Mutations apply to the payload; the frame is rebuilt so each one
    // reaches the payload parser instead of failing the checksum.
    formats.push_back(
        {"plan-store payload", framed.substr(framed.find('\n') + 1),
         [](const std::string& text, std::string* error, std::string* out) {
             PlanStoreEntry e;
             if (!PlanStore::entry_from_string(frame(text), &e, error))
                 return false;
             const std::string again = PlanStore::entry_to_string(e);
             *out = again.substr(again.find('\n') + 1);
             return true;
         }});
    formats.push_back(
        {"fault spec",
         "seed=3;retries=4;backoff_us=25;kernel:p=0.01,name=gemm;"
         "straggler:p=0.5,x=4;alloc:p=0,x=1.5,at=2;comm:p=0.25,x=3;"
         "replica_death:r=1,at_ns=5e+06;replica_flap:r=0,at_ns=1e+06,"
         "down_ns=200000,up_ns=800000,count=3",
         [](const std::string& text, std::string* error, std::string* out) {
             FaultPlan plan;
             if (!FaultPlan::parse(text, &plan, error))
                 return false;
             *out = plan.to_string();
             return true;
         }});
    return formats;
}

bool
is_separator(char c)
{
    return std::string_view(" \t\n;,=:").find(c) != std::string_view::npos;
}

/** Truncations at every line (or clause), token swaps and bit flips. */
std::vector<std::string>
mutants(const std::string& sample, uint64_t seed)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < sample.size(); ++i)
        if (sample[i] == '\n' || sample[i] == ';') {
            out.push_back(sample.substr(0, i));
            out.push_back(sample.substr(0, i + 1));
        }
    const char* hostile[] = {"999999999999999", "-1", "nan", "inf",
                             "1x",              "+1", "0x"};
    for (size_t i = 0; i < sample.size();) {
        if (is_separator(sample[i])) {
            ++i;
            continue;
        }
        size_t j = i;
        while (j < sample.size() && !is_separator(sample[j]))
            ++j;
        for (const char* h : hostile)
            out.push_back(sample.substr(0, i) + h + sample.substr(j));
        i = j;
    }
    Rng rng(seed);
    for (int flip = 0; flip < 300; ++flip) {
        std::string m = sample;
        m[rng.next_below(m.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
        out.push_back(std::move(m));
    }
    return out;
}

TEST(RecordFuzz, MutatedInputsAreRejectedOrRead)
{
    const std::regex diagnostic("(line|token) [0-9]+: [\\s\\S]+");
    for (const RecordFormat& f : record_formats()) {
        std::string error;
        std::string written;
        ASSERT_TRUE(f.read(f.sample, &error, &written))
            << f.name << ": " << error;
        EXPECT_EQ(written, f.sample) << f.name;

        int accepted = 0;
        int rejected = 0;
        for (const std::string& m : mutants(f.sample, 17)) {
            error.clear();
            if (!f.read(m, &error, &written)) {
                ++rejected;
                EXPECT_TRUE(std::regex_match(error, diagnostic))
                    << f.name << " rejected without a diagnostic ('"
                    << error << "'):\n"
                    << m;
                continue;
            }
            // What a reader accepts, it must write back readably, and
            // the rewrite is a fixed point.
            ++accepted;
            std::string again;
            ASSERT_TRUE(f.read(written, &error, &again))
                << f.name << ": " << error << "\n" << written;
            EXPECT_EQ(again, written) << f.name;
        }
        EXPECT_GT(rejected, 0) << f.name;
        EXPECT_GT(accepted, 0) << f.name;
    }
}

}  // namespace
}  // namespace astra

/**
 * @file
 * Randomized structural testing: generate random dataflow graphs
 * (seeded, reproducible), push them through the full pipeline —
 * enumerate, schedule under random configurations (epoch stream
 * choices included), dispatch with values — and check the global
 * invariants: every plan covers every node exactly once in topological
 * order, a scheduler warmed on a sibling configuration emits the same
 * plan as a fresh one, every configuration is bit-identical to the
 * native dispatch, and its lowered binary verifies and replays to the
 * same values and timings as dispatching the plan. This is where
 * grouping edge cases the hand-written models never produce get
 * caught.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>

#include "autodiff/autodiff.h"
#include "core/astra.h"
#include "graph/builder.h"
#include "models/data.h"
#include "runtime/wired.h"
#include "tests/util.h"

namespace astra {
namespace {

/** Random layered DAG with fusable sibling GEMMs and add chains. */
GraphBuilder
random_graph(uint64_t seed)
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
        switch (rng.next_below(4)) {
          case 0: {  // sibling GEMMs off one operand (batch-fusable)
            const int n = 2 + static_cast<int>(rng.next_below(3));
            for (int i = 0; i < n; ++i)
                live.push_back(
                    b.sigmoid(b.matmul(x, b.param({dim, dim}))));
            break;
          }
          case 1: {  // accumulation ladder (ladder-fusable)
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

class FuzzPipeline : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzPipeline, EveryConfigurationIsValueIdentical)
{
    GraphBuilder gb = random_graph(GetParam());
    const Graph& g = gb.graph();
    g.validate();

    // Native reference values.
    testutil::Runner native(g);
    Rng data_rng(GetParam() ^ 0xabcdef);
    bind_all(g, native.tmap(), data_rng);
    native.run_native();
    NodeId loss = kInvalidNode;
    for (const Node& n : g.nodes())
        if (n.kind == OpKind::CrossEntropy)
            loss = n.id;
    ASSERT_NE(loss, kInvalidNode);
    const float expect = native.scalar(loss);
    ASSERT_TRUE(std::isfinite(expect));

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
    SchedulerOptions sopts;
    sopts.super_epoch_ns = 50000.0;
    const Scheduler sched(g, space, sopts);

    Rng cfg_rng(GetParam() * 31 + 7);
    // Epoch choices draw from their own stream, so the bindings above
    // stay the ones the space digests were taken with.
    Rng choice_rng(GetParam() * 131 + 3);
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
            cfg.group_keys[grp.id] = "fz|g" + std::to_string(grp.id);
        }
        if (cfg.use_streams) {
            // Warm the shared scheduler on a sibling (same binding,
            // other epoch choices): the plan it then emits from the
            // cached skeleton must equal a fresh scheduler's.
            sched.build_cached(draw_choices(cfg));
            cfg = draw_choices(cfg);
            for (const EpochInfo& e : sched.stream_space(cfg).epochs)
                cfg.epoch_keys[{e.super_epoch, e.level}] =
                    "fz|e" + std::to_string(e.super_epoch) + "." +
                    std::to_string(e.level);
        }
        const ExecutionPlan plan = sched.build(cfg);
        EXPECT_EQ(testutil::plan_dump(plan),
                  testutil::plan_dump(Scheduler(g, space, sopts).build(cfg)))
            << "seed " << GetParam() << " trial " << trial;

        // Coverage + order invariant.
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

        // Value invariant, on the strategy's own layout. The device is
        // pinned to base clock and no faults: the timing identity below
        // holds only there.
        testutil::Runner cand(
            g, space.strategies[static_cast<size_t>(cfg.strategy)].runs);
        cand.config().autoboost = false;
        cand.config().faults = FaultPlan();
        Rng data_rng2(GetParam() ^ 0xabcdef);
        bind_all(g, cand.tmap(), data_rng2);
        const DispatchResult dispatched = cand.run(plan);
        ASSERT_EQ(cand.scalar(loss), expect)
            << "seed " << GetParam() << " trial " << trial;

        // Steady state: the lowered binary verifies without control
        // edges and replays to the same loss (recomputed, not left
        // over) and the same timings.
        const WiredBinary bin =
            lower_plan(plan, g, cand.tmap(), cand.config());
        const WiredVerdict verdict = verify_wired(bin);
        ASSERT_TRUE(verdict.ok)
            << verdict.why << " (seed " << GetParam() << " trial " << trial
            << ")";
        EXPECT_EQ(bin.control_edges, 0)
            << "seed " << GetParam() << " trial " << trial;
        cand.tmap().f32(loss)[0] = std::nanf("");
        const DispatchResult replayed = replay_wired(bin, cand.config());
        EXPECT_EQ(cand.scalar(loss), expect)
            << "seed " << GetParam() << " trial " << trial;
        EXPECT_EQ(replayed.total_ns, dispatched.total_ns)
            << "seed " << GetParam() << " trial " << trial;
        EXPECT_EQ(replayed.profile_ns, dispatched.profile_ns)
            << "seed " << GetParam() << " trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace astra

/**
 * @file
 * Enumerator tests (paper §4.4.1): common-argument fusion-set mining,
 * fusion-ladder detection, provenance/independence filters, 2-D fusion
 * conflicts, single-tensor static resolution and allocation-strategy
 * forking (§4.5.2).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/search_space.h"
#include "core/search_space_detail.h"
#include "models/models.h"
#include "obs/obs.h"
#include "tests/util.h"

namespace astra {
namespace {

/** The five paper models, largest first. */
constexpr ModelKind kPaperModels[] = {
    ModelKind::Gnmt, ModelKind::StackedLstm, ModelKind::MiLstm,
    ModelKind::Scrnn, ModelKind::SubLstm,
};

using testutil::zoo_shape;

TEST(Enumerator, MinesCommonArgumentSiblings)
{
    // The paper's own example: %10 = mm(%1, %5); %11 = mm(%1, %6).
    GraphBuilder b;
    const NodeId x = b.input({8, 16});
    const NodeId w1 = b.param({16, 32});
    const NodeId w2 = b.param({16, 32});
    const NodeId m1 = b.matmul(x, w1);
    const NodeId m2 = b.matmul(x, w2);
    const SearchSpace space = enumerate_search_space(b.graph());
    ASSERT_EQ(space.groups.size(), 1u);
    const FusionGroup& g = space.groups[0];
    EXPECT_EQ(g.kind, GroupKind::Batch);
    EXPECT_EQ(g.shared_pos, 0);
    EXPECT_EQ(g.shared_node, x);
    EXPECT_EQ(g.mms, (std::vector<NodeId>{m1, m2}));
    // Runs: the non-shared weights and the outputs.
    ASSERT_EQ(g.runs.size(), 2u);
    EXPECT_EQ(g.runs[0].members, (std::vector<NodeId>{w1, w2}));
    EXPECT_EQ(g.runs[1].members, (std::vector<NodeId>{m1, m2}));
    EXPECT_TRUE(space.single_mms.empty());
}

TEST(Enumerator, DependentSiblingsAreNotFused)
{
    // mm2 consumes mm1's output (transitively): no fusion.
    GraphBuilder b;
    const NodeId x = b.input({8, 8});
    const NodeId m1 = b.matmul(x, b.param({8, 8}));
    const NodeId h = b.sigmoid(m1);
    const NodeId m2 = b.matmul(x, b.matmul(h, b.param({8, 8})));
    (void)m2;
    const SearchSpace space = enumerate_search_space(b.graph());
    for (const FusionGroup& g : space.groups) {
        const bool has_m1 =
            std::count(g.mms.begin(), g.mms.end(), m1) > 0;
        const bool has_m2 =
            std::count(g.mms.begin(), g.mms.end(), m2) > 0;
        EXPECT_FALSE(has_m1 && has_m2);
    }
}

TEST(Enumerator, DifferentScopesAreNotFused)
{
    GraphBuilder b;
    const NodeId x = b.input({8, 16});
    NodeId m1, m2;
    {
        GraphBuilder::Scoped s(b, "encoder");
        m1 = b.matmul(x, b.param({16, 16}));
    }
    {
        GraphBuilder::Scoped s(b, "decoder");
        m2 = b.matmul(x, b.param({16, 16}));
    }
    (void)m1;
    (void)m2;
    const SearchSpace space = enumerate_search_space(b.graph());
    EXPECT_TRUE(space.groups.empty());
    EXPECT_EQ(space.single_mms.size(), 2u);
}

TEST(Enumerator, TimestepScopesDoFuse)
{
    // Provenance ignores unrolled-timestep components: the same cell
    // at t0/t1 is one provenance, enabling cross-timestep fusion sets
    // (the input-projection trick cuDNN uses for LSTMs).
    GraphBuilder b;
    const NodeId w = b.param({16, 16});
    NodeId m1, m2;
    {
        GraphBuilder::Scoped s(b, "cell/t0");
        m1 = b.matmul(b.input({8, 16}), w);
    }
    {
        GraphBuilder::Scoped s(b, "cell/t1");
        m2 = b.matmul(b.input({8, 16}), w);
    }
    const SearchSpace space = enumerate_search_space(b.graph());
    ASSERT_EQ(space.groups.size(), 1u);
    EXPECT_EQ(space.groups[0].mms, (std::vector<NodeId>{m1, m2}));
    // Shared second operand, no transpose: one tall GEMM.
    EXPECT_EQ(space.groups[0].axis, FusionAxis::MStack);
}

TEST(Enumerator, DifferentShapesAreNotFused)
{
    GraphBuilder b;
    const NodeId x = b.input({8, 16});
    b.matmul(x, b.param({16, 16}));
    b.matmul(x, b.param({16, 32}));
    const SearchSpace space = enumerate_search_space(b.graph());
    EXPECT_TRUE(space.groups.empty());
}

TEST(Enumerator, MinesFusionLadders)
{
    // %12 = add(%10, %11) over mm leaves (§4.4.1 ladder example).
    GraphBuilder b;
    const NodeId m1 = b.matmul(b.input({4, 8}), b.param({8, 8}));
    const NodeId m2 = b.matmul(b.input({4, 8}), b.param({8, 8}));
    const NodeId m3 = b.matmul(b.input({4, 8}), b.param({8, 8}));
    const NodeId s1 = b.add(m1, m2);
    const NodeId s2 = b.add(s1, m3);
    b.graph().mark_output(s2);
    const SearchSpace space = enumerate_search_space(b.graph());
    const FusionGroup* ladder = nullptr;
    for (const FusionGroup& g : space.groups)
        if (g.kind == GroupKind::Ladder)
            ladder = &g;
    ASSERT_NE(ladder, nullptr);
    EXPECT_EQ(ladder->mms, (std::vector<NodeId>{m1, m2, m3}));
    EXPECT_EQ(ladder->adds, (std::vector<NodeId>{s1, s2}));
}

TEST(Enumerator, LadderRejectedWhenLeafReused)
{
    GraphBuilder b;
    const NodeId m1 = b.matmul(b.input({4, 8}), b.param({8, 8}));
    const NodeId m2 = b.matmul(b.input({4, 8}), b.param({8, 8}));
    const NodeId s1 = b.add(m1, m2);
    b.sigmoid(m1);  // m1 escapes: fusing would lose its value
    b.graph().mark_output(s1);
    const SearchSpace space = enumerate_search_space(b.graph());
    for (const FusionGroup& g : space.groups)
        EXPECT_NE(g.kind, GroupKind::Ladder);
}

TEST(Enumerator, ChunkOptionsAscendWithOne)
{
    GraphBuilder b;
    const NodeId x = b.input({8, 16});
    std::vector<NodeId> mms;
    for (int i = 0; i < 8; ++i)
        mms.push_back(b.matmul(x, b.param({16, 16})));
    const SearchSpace space = enumerate_search_space(b.graph());
    ASSERT_EQ(space.groups.size(), 1u);
    const auto& opts = space.groups[0].chunk_options;
    ASSERT_GE(opts.size(), 2u);
    EXPECT_EQ(opts.front(), 1);
    EXPECT_EQ(opts.back(), 8);
    EXPECT_TRUE(std::is_sorted(opts.begin(), opts.end()));
    EXPECT_LE(opts.size(), 4u);
}

TEST(Enumerator, MaxGroupSizeCaps)
{
    // 40 fusable siblings: the batch group stops at the cap.
    GraphBuilder b;
    const NodeId x = b.input({8, 16});
    for (int i = 0; i < 40; ++i)
        b.matmul(x, b.param({16, 16}));
    const SearchSpace space = enumerate_search_space(b.graph());
    ASSERT_FALSE(space.groups.empty());
    size_t largest = 0;
    for (const FusionGroup& g : space.groups)
        largest = std::max(largest, g.mms.size());
    EXPECT_EQ(largest, static_cast<size_t>(kMaxGroupSize));
}

TEST(Enumerator, TwoDimensionalConflictForksStrategies)
{
    // The Fig. 1 situation: the same tensors are groupable along two
    // axes. Rows: mm(x_t, W_g) shares x_t across g (per-t batch);
    // columns: an add-chain per g across t (per-g ladder). The ladders
    // want {y_g_t for t} adjacent; the batches want outputs {y_g_t for
    // g} adjacent -> overlap of 2+ tensors -> strategy fork.
    GraphBuilder b;
    constexpr int kT = 3, kG = 3;
    NodeId x[kT];
    NodeId w[kG];
    for (int t = 0; t < kT; ++t)
        x[t] = b.input({4, 8});
    for (int g = 0; g < kG; ++g)
        w[g] = b.param({8, 8});
    NodeId y[kT][kG];
    for (int t = 0; t < kT; ++t) {
        GraphBuilder::Scoped s(b, "t" + std::to_string(t));
        for (int g = 0; g < kG; ++g)
            y[t][g] = b.matmul(x[t], w[g]);
    }
    // Ladder per g across t (like dW accumulation).
    for (int g = 0; g < kG; ++g) {
        NodeId acc = b.add(y[0][g], y[1][g]);
        acc = b.add(acc, y[2][g]);
        b.graph().mark_output(acc);
    }
    const SearchSpace space = enumerate_search_space(b.graph());
    int batches = 0, ladders = 0;
    for (const FusionGroup& g : space.groups) {
        batches += g.kind == GroupKind::Batch;
        ladders += g.kind == GroupKind::Ladder;
    }
    EXPECT_GE(batches, kT);
    EXPECT_GE(ladders, kG);
    // The member-sharing conflict must fork the allocation space.
    EXPECT_GE(space.strategies.size(), 2u);
    // And within any one strategy, enabled groups never share a GEMM.
    for (const AllocStrategy& s : space.strategies) {
        std::set<NodeId> used;
        for (const FusionGroup& g : space.groups) {
            if (!s.group_enabled[static_cast<size_t>(g.id)])
                continue;
            for (NodeId mm : g.mms) {
                EXPECT_FALSE(used.count(mm));
                used.insert(mm);
            }
        }
    }
}

TEST(Enumerator, StrategyRunsAreDisjoint)
{
    std::vector<BuiltModel> models;
    models.push_back(build_model(ModelKind::SubLstm,
                                 {.batch = 8, .seq_len = 4, .hidden = 64,
                                  .embed_dim = 64, .vocab = 100}));
    for (ModelKind kind : kPaperModels)
        models.push_back(build_model(kind, zoo_shape()));
    for (const BuiltModel& m : models) {
        const SearchSpace space = enumerate_search_space(m.graph());
        for (const AllocStrategy& s : space.strategies) {
            std::set<NodeId> seen;
            for (const AdjacencyRun& r : s.runs)
                for (NodeId id : r.members) {
                    EXPECT_FALSE(seen.count(id))
                        << m.name << " " << s.key << " node %" << id;
                    seen.insert(id);
                }
        }
    }
}

TEST(Enumerator, PaperModelSearchSpacesArePinned)
{
    // FNV-1a of testutil::search_space_dump at the zoo shape: groups,
    // strategies (bitmaps and runs) and standalone GEMMs, byte for
    // byte. The wirer explores exactly this space, so a change here is
    // a change in what gets measured; update a digest only on purpose.
    const std::pair<ModelKind, const char*> pinned[] = {
        {ModelKind::Gnmt, "9ce15993d6f3a9d2"},
        {ModelKind::StackedLstm, "fa264e9d32439fca"},
        {ModelKind::MiLstm, "2716f41e958ce61e"},
        {ModelKind::Scrnn, "10f97fc61002bc9b"},
        {ModelKind::SubLstm, "d9b88260cefe0cb5"},
    };
    for (const auto& [kind, digest] : pinned) {
        const BuiltModel m = build_model(kind, zoo_shape());
        EXPECT_EQ(testutil::search_space_digest(
                      enumerate_search_space(m.graph())),
                  digest)
            << model_name(kind);
    }
}

TEST(Enumerator, ExtraModelAndServingBucketSearchSpacesArePinned)
{
    // The pins above stay below kMaxGroupSize (16) everywhere. These
    // add RHN and AttnLSTM at the zoo shape and the repo benchmark's
    // serving buckets (subLSTM, batch 8, hidden = embed 64, vocab 1000):
    // at seq 24 and 32 batch groups stop at 16 members, and the longer
    // ladders keep every leaf with chunks of at most 16.
    const std::pair<ModelKind, const char*> zoo[] = {
        {ModelKind::Rhn, "db71d0af2e1b81b5"},
        {ModelKind::AttnLstm, "fb544696f992bacb"},
    };
    for (const auto& [kind, digest] : zoo) {
        const BuiltModel m = build_model(kind, zoo_shape());
        EXPECT_EQ(testutil::search_space_digest(
                      enumerate_search_space(m.graph())),
                  digest)
            << model_name(kind);
    }
    const std::pair<int64_t, const char*> buckets[] = {
        {8, "176b5cf8680d8639"},
        {16, "cab400b9beaded4a"},
        {24, "213a248835bbe4a7"},
        {32, "4f30e7e132487341"},
    };
    for (const auto& [seq, digest] : buckets) {
        const BuiltModel m = build_model(
            ModelKind::SubLstm, {.batch = 8, .seq_len = seq, .hidden = 64,
                                 .embed_dim = 64, .vocab = 1000});
        EXPECT_EQ(testutil::search_space_digest(
                      enumerate_search_space(m.graph())),
                  digest)
            << "seq " << seq;
    }
}

/** `n` distinct nodes drawn from [0, universe) minus `avoid`. */
std::vector<NodeId>
draw_nodes(Rng& rng, int universe, size_t n,
           const std::vector<NodeId>& avoid = {})
{
    std::vector<NodeId> pool;
    for (NodeId id = 0; id < universe; ++id)
        if (std::find(avoid.begin(), avoid.end(), id) == avoid.end())
            pool.push_back(id);
    n = std::min(n, pool.size());
    for (size_t i = 0; i < n; ++i)
        std::swap(pool[i], pool[i + rng.next_below(pool.size() - i)]);
    pool.resize(n);
    return pool;
}

TEST(Enumerator, ConflictRowMatchesRunRelation)
{
    // Conflict analysis relates runs through a node-indexed row; the
    // strategy fork calls run_relation. Both must give the same
    // relation and sole overlap on every pair of runs, including a
    // group with a node in both of its runs (a ladder of mm(x, x)).
    using detail::ConflictRow;
    using detail::RunRelation;
    constexpr int kUniverse = 24;
    Rng rng(20);
    ConflictRow row(kUniverse);  // reloaded every trial
    std::map<RunRelation, int> seen;
    int sole_overlaps = 0, shared_across_runs = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        FusionGroup g;
        g.mms = draw_nodes(rng, kUniverse, 2 + rng.next_below(4));
        AdjacencyRun r0{draw_nodes(rng, kUniverse, 1 + rng.next_below(8))};
        g.runs.push_back(r0);
        switch (rng.next_below(4)) {
          case 0:
            break;  // one run
          case 1:   // both runs hold the same nodes
            g.runs.push_back(r0);
            break;
          case 2: {  // one node in both runs
            AdjacencyRun r1{draw_nodes(rng, kUniverse, rng.next_below(6),
                                       r0.members)};
            r1.members.insert(
                r1.members.begin() +
                    static_cast<long>(rng.next_below(r1.members.size() + 1)),
                r0.members[rng.next_below(r0.members.size())]);
            g.runs.push_back(r1);
            break;
          }
          default:
            g.runs.push_back(
                {draw_nodes(rng, kUniverse, 1 + rng.next_below(8))});
        }
        if (g.runs.size() > 1)
            shared_across_runs += std::any_of(
                r0.members.begin(), r0.members.end(), [&](NodeId id) {
                    return std::count(g.runs[1].members.begin(),
                                      g.runs[1].members.end(), id) > 0;
                });
        row.load(g);
        for (NodeId id = 0; id < kUniverse; ++id)
            EXPECT_EQ(row.is_member(id),
                      std::count(g.mms.begin(), g.mms.end(), id) == 1);

        for (int partner = 0; partner < 4; ++partner) {
            const std::vector<NodeId>& ra =
                g.runs[rng.next_below(g.runs.size())].members;
            const size_t start = rng.next_below(ra.size());
            const size_t len = 1 + rng.next_below(ra.size() - start);
            AdjacencyRun b;
            switch (rng.next_below(7)) {
              case 0:  // unrelated
                b.members = draw_nodes(rng, kUniverse, 1 + rng.next_below(8));
                break;
              case 1:  // identical
                b.members = ra;
                break;
              case 2:  // a slice of the run
                b.members.assign(ra.begin() + static_cast<long>(start),
                                 ra.begin() + static_cast<long>(start + len));
                break;
              case 3: {  // the run inside a longer one
                b.members = draw_nodes(rng, kUniverse, rng.next_below(4), ra);
                const std::vector<NodeId> tail =
                    draw_nodes(rng, kUniverse, rng.next_below(4), ra);
                const size_t at = rng.next_below(b.members.size() + 1);
                b.members.insert(b.members.begin() + static_cast<long>(at),
                                 ra.begin(), ra.end());
                for (NodeId id : tail)
                    if (std::count(b.members.begin(), b.members.end(), id) ==
                        0)
                        b.members.push_back(id);
                break;
              }
              case 4:  // a slice in reverse order
                b.members.assign(ra.begin() + static_cast<long>(start),
                                 ra.begin() + static_cast<long>(start + len));
                std::reverse(b.members.begin(), b.members.end());
                break;
              case 5: {  // a shared prefix, then other nodes
                b.members.assign(ra.begin(),
                                 ra.begin() + static_cast<long>(len));
                for (NodeId id : draw_nodes(rng, kUniverse,
                                            1 + rng.next_below(4), ra))
                    b.members.push_back(id);
                break;
              }
              default: {  // one shared tensor among others
                b.members = draw_nodes(rng, kUniverse, 1 + rng.next_below(6),
                                       ra);
                b.members.insert(
                    b.members.begin() + static_cast<long>(rng.next_below(
                                            b.members.size() + 1)),
                    ra[rng.next_below(ra.size())]);
              }
            }
            for (size_t k = 0; k < g.runs.size(); ++k) {
                NodeId sole = kInvalidNode, want_sole = kInvalidNode;
                const RunRelation got = row.relation(k, b, &sole);
                const RunRelation want =
                    detail::run_relation(g.runs[k], b, &want_sole);
                ASSERT_EQ(got, want) << "trial " << trial << " run " << k;
                ASSERT_EQ(sole, want_sole)
                    << "trial " << trial << " run " << k;
                ++seen[want];
                sole_overlaps += want_sole != kInvalidNode;
            }
        }
    }
    EXPECT_EQ(seen.size(), 5u);  // every relation came up
    for (const auto& [rel, count] : seen)
        EXPECT_GT(count, 100) << static_cast<int>(rel);
    EXPECT_GT(sole_overlaps, 100);
    EXPECT_GT(shared_across_runs, 100);
}

TEST(Enumerator, ShrunkGroupsKeepTheChunkOptionCap)
{
    // Single-tensor conflict resolution shrinks StackedLSTM batch
    // groups at this shape; the re-finalized groups must still honor
    // the chunk-option cap.
    const BuiltModel m = build_model(ModelKind::StackedLstm, zoo_shape());
    const SearchSpace space = enumerate_search_space(m.graph());
    ASSERT_FALSE(space.groups.empty());
    for (const FusionGroup& g : space.groups)
        EXPECT_LE(g.chunk_options.size(),
                  static_cast<size_t>(kMaxChunkOptions))
            << g.key << " (" << g.mms.size() << " members)";
}

TEST(Enumerator, ConflictAnalysisTestsOnlyPairsSharingATensor)
{
    // Only group pairs whose footprints share a node are tested: about
    // a fifth of all pairs here (about 5% on GNMT, where it matters).
    const BuiltModel m = build_model(ModelKind::StackedLstm, zoo_shape());
    obs::reset();
    obs::set_enabled(true);
    const SearchSpace space = enumerate_search_space(m.graph());
    obs::set_enabled(false);
    const std::map<std::string, int64_t> counters = obs::counter_values();
    obs::reset();
    const int64_t n = static_cast<int64_t>(space.groups.size());
    const int64_t pairs = counters.at("enumerate.conflict_pairs");
    const int64_t edges = counters.at("enumerate.conflict_edges");
    EXPECT_GT(edges, 0);
    EXPECT_LE(edges, pairs);
    EXPECT_LT(pairs * 4, n * (n - 1) / 2)
        << pairs << " of " << n * (n - 1) / 2 << " pairs tested";
}

TEST(Enumerator, LstmGateGroupsFound)
{
    const BuiltModel m =
        build_model(ModelKind::StackedLstm,
                    {.batch = 8, .seq_len = 3, .hidden = 64,
                     .embed_dim = 64, .vocab = 100, .layers = 2});
    const SearchSpace space = enumerate_search_space(m.graph());
    // Forward: per (layer, t) there is an x-gates group and an h-gates
    // group of 4 GEMMs each; plus backward groups/ladders.
    int forward_batch4 = 0;
    for (const FusionGroup& g : space.groups) {
        if (g.kind == GroupKind::Batch && g.mms.size() == 4 &&
            m.graph().node(g.mms[0]).pass == Pass::Forward)
            ++forward_batch4;
    }
    EXPECT_GE(forward_batch4, 2 * 3 * 2);  // layers x steps x {x,h}
    // Backward accumulation ladders across time must exist.
    int ladders = 0;
    for (const FusionGroup& g : space.groups)
        ladders += g.kind == GroupKind::Ladder;
    EXPECT_GT(ladders, 0);
}

TEST(Enumerator, GroupFlopsPopulated)
{
    GraphBuilder b;
    const NodeId x = b.input({8, 16});
    b.matmul(x, b.param({16, 32}));
    b.matmul(x, b.param({16, 32}));
    const SearchSpace space = enumerate_search_space(b.graph());
    ASSERT_EQ(space.groups.size(), 1u);
    EXPECT_DOUBLE_EQ(space.groups[0].flops, 2.0 * 2 * 8 * 32 * 16);
}

}  // namespace
}  // namespace astra

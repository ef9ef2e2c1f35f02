/**
 * @file
 * Tests for the liveness-based memory planner (buffer reuse) and the
 * §3.4 recompute-for-memory rewrite: value preservation, peak-memory
 * reduction, and the compute-vs-memory trade itself; the OOM ladder;
 * and a timing-only session over a pool the host cannot back.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "autodiff/recompute.h"
#include "models/data.h"
#include "models/models.h"
#include "runtime/dispatcher.h"
#include "runtime/native.h"
#include "tests/util.h"

namespace astra {
namespace {

TEST(ReusePlanner, RecyclesDeadBuffers)
{
    // x -> a -> b -> c: 'a' dies once 'b' executed, so 'c' can reuse
    // its slot; peak is well below the bump total.
    GraphBuilder b;
    const NodeId x = b.input({64, 64});
    const NodeId a = b.sigmoid(x);
    const NodeId c = b.tanh(a);
    const NodeId d = b.relu(c);
    b.graph().mark_output(d);

    SimMemory bump_mem(1 << 22);
    TensorMap bump(b.graph(), bump_mem, {}, MemoryPlanMode::Bump);
    SimMemory reuse_mem(1 << 22);
    TensorMap reuse(b.graph(), reuse_mem, {}, MemoryPlanMode::Reuse);
    EXPECT_LT(reuse.peak_bytes(), bump.peak_bytes());
    // x (live forever) + d (output) + two interior slots at most.
    EXPECT_LE(reuse.peak_bytes(), 3 * 64 * 64 * 4 + 3 * 256);
}

TEST(ReusePlanner, NeverAliasesLiveBuffers)
{
    // Random-ish DAG: check no two simultaneously-live buffers overlap.
    const BuiltModel m =
        build_model(ModelKind::SubLstm,
                    {.batch = 4, .seq_len = 3, .hidden = 16,
                     .embed_dim = 16, .vocab = 30});
    const Graph& g = m.graph();
    SimMemory mem(64 << 20);
    TensorMap tmap(g, mem, {}, MemoryPlanMode::Reuse);

    // last_use computation mirroring the planner.
    std::vector<NodeId> last(static_cast<size_t>(g.size()), 0);
    for (const Node& n : g.nodes()) {
        last[static_cast<size_t>(n.id)] = n.id;
        for (NodeId in : n.inputs)
            last[static_cast<size_t>(in)] =
                std::max(last[static_cast<size_t>(in)], n.id);
    }
    for (const Node& n : g.nodes())
        if (op_is_source(n.kind))
            last[static_cast<size_t>(n.id)] = g.size();
    for (NodeId out : g.outputs())
        last[static_cast<size_t>(out)] = g.size();

    for (const Node& a : g.nodes()) {
        for (const Node& c : g.nodes()) {
            if (a.id >= c.id)
                continue;
            // Overlapping lifetimes?
            const bool live_together =
                c.id <= last[static_cast<size_t>(a.id)];
            if (!live_together)
                continue;
            const int64_t a0 = tmap.ptr(a.id);
            const int64_t a1 = a0 + static_cast<int64_t>(a.desc.bytes());
            const int64_t c0 = tmap.ptr(c.id);
            const int64_t c1 = c0 + static_cast<int64_t>(c.desc.bytes());
            ASSERT_TRUE(a1 <= c0 || c1 <= a0)
                << "live buffers %" << a.id << " and %" << c.id
                << " overlap";
        }
    }
}

TEST(ReusePlanner, ValuesStillCorrect)
{
    const BuiltModel m =
        build_model(ModelKind::Scrnn,
                    {.batch = 4, .seq_len = 3, .hidden = 16,
                     .embed_dim = 16, .vocab = 30});
    // Bump reference.
    testutil::Runner bump(m.graph());
    Rng rng(5);
    bind_all(m.graph(), bump.tmap(), rng);
    bump.run_native();

    // Reuse arena.
    SimMemory mem(graph_tensor_bytes(m.graph()) + (1 << 20));
    TensorMap reuse(m.graph(), mem, {}, MemoryPlanMode::Reuse);
    Rng rng2(5);
    bind_all(m.graph(), reuse, rng2);
    GpuConfig cfg;
    dispatch_plan(native_plan(m.graph()), m.graph(), reuse, cfg);
    EXPECT_EQ(bump.tmap().f32(m.loss)[0], reuse.f32(m.loss)[0]);
}

TEST(ReusePlanner, HonorsAdjacencyRuns)
{
    GraphBuilder b;
    const NodeId x = b.input({2, 4});
    const NodeId w1 = b.param({4, 4});
    const NodeId w2 = b.param({4, 4});
    (void)x;
    SimMemory mem(1 << 16);
    TensorMap tmap(b.graph(), mem, {AdjacencyRun{{w1, w2}}},
                   MemoryPlanMode::Reuse);
    EXPECT_TRUE(tmap.adjacent({w1, w2}));
}

/** T-timestep model: recompute shrinks peak roughly with T. */
BuiltModel
rnn(int64_t t)
{
    return build_model(ModelKind::SubLstm,
                       {.batch = 8, .seq_len = t, .hidden = 32,
                        .embed_dim = 32, .vocab = 40});
}

TEST(Recompute, ValueIdenticalToOriginal)
{
    const BuiltModel m = rnn(4);
    RecomputePlan plan = apply_recompute(m.graph(), m.grads);
    EXPECT_GT(plan.cloned_nodes, 0);
    EXPECT_GT(plan.graph().size(), m.graph().size());

    testutil::Runner original(m.graph());
    Rng rng(19);
    bind_all(m.graph(), original.tmap(), rng);
    original.run_native();

    testutil::Runner rewritten(plan.graph());
    Rng rng2(19);
    bind_all(plan.graph(), rewritten.tmap(), rng2);
    rewritten.run_native();

    const NodeId new_loss = plan.remap[static_cast<size_t>(m.loss)];
    EXPECT_EQ(original.scalar(m.loss), rewritten.scalar(new_loss));
    // Every parameter gradient must match bit for bit.
    for (const auto& [param, grad] : m.grads.param_grads) {
        const NodeId new_grad = plan.param_grads.at(
            plan.remap[static_cast<size_t>(param)]);
        EXPECT_EQ(testutil::max_abs_diff(original.values(grad),
                                         rewritten.values(new_grad)),
                  0.0)
            << "grad of param %" << param;
    }
}

TEST(Recompute, ShrinksPeakMemoryUnderReusePlanner)
{
    const BuiltModel m = rnn(10);
    RecomputePlan plan = apply_recompute(m.graph(), m.grads);

    SimMemory mem1(256 << 20);
    TensorMap original(m.graph(), mem1, {}, MemoryPlanMode::Reuse);
    SimMemory mem2(256 << 20);
    TensorMap rewritten(plan.graph(), mem2, {}, MemoryPlanMode::Reuse);

    // Interior forward activations no longer survive to the backward
    // pass, so the high-water mark drops despite the larger graph.
    EXPECT_LT(rewritten.peak_bytes(), original.peak_bytes() * 0.85);
}

TEST(Recompute, CostsExtraComputeTime)
{
    const BuiltModel m = rnn(6);
    RecomputePlan plan = apply_recompute(m.graph(), m.grads);

    GpuConfig cfg;
    cfg.execute_kernels = false;
    SimMemory mem1(64 << 20, false);
    TensorMap t1(m.graph(), mem1);
    const double original =
        dispatch_plan(native_plan(m.graph()), m.graph(), t1, cfg)
            .total_ns;
    SimMemory mem2(64 << 20, false);
    TensorMap t2(plan.graph(), mem2);
    const double rewritten =
        dispatch_plan(native_plan(plan.graph()), plan.graph(), t2, cfg)
            .total_ns;
    // The trade: recompute must cost time (that is the whole point of
    // adapting over it instead of always enabling it).
    EXPECT_GT(rewritten, original * 1.1);
}

TEST(Recompute, AstraOptimizesRewrittenGraph)
{
    // The rewrite composes with the whole pipeline: the enumerator
    // mines the clone region too (it carries forward provenance), the
    // wirer explores, and the tuned result still matches the original
    // graph's native values bit for bit.
    const BuiltModel m = rnn(4);
    RecomputePlan plan = apply_recompute(m.graph(), m.grads);

    AstraOptions opts;
    opts.features = features_fk();
    opts.gpu.execute_kernels = true;
    AstraSession session(plan.graph(), opts);
    const WirerResult r = session.optimize();
    EXPECT_GT(r.minibatches, 3);

    const TensorMap& tuned = session.tensor_map(r.best_config.strategy);
    Rng rng(23);
    bind_all(plan.graph(), tuned, rng);
    session.run(r.best_config);

    testutil::Runner native(m.graph());
    Rng rng2(23);
    bind_all(m.graph(), native.tmap(), rng2);
    native.run_native();

    const NodeId new_loss = plan.remap[static_cast<size_t>(m.loss)];
    EXPECT_EQ(native.scalar(m.loss), tuned.f32(new_loss)[0]);
}

TEST(OomLadder, InjectedAllocFaultDegradesToReuse)
{
    // An injected allocation failure (the simulated cudaMalloc error)
    // must not abort the session: the ladder retries the strategy with
    // liveness-based reuse. `at=0` fires once per strategy's injector,
    // so every strategy degrades exactly one rung.
    const BuiltModel m = rnn(4);
    AstraOptions opts;
    ASSERT_TRUE(FaultPlan::parse("alloc:at=0", &opts.gpu.faults));
    AstraSession session(m.graph(), opts);
    ASSERT_GT(session.space().strategies.size(), 0u);
    for (size_t s = 0; s < session.space().strategies.size(); ++s)
        EXPECT_EQ(session.plan_mode(static_cast<int>(s)),
                  MemoryPlanMode::Reuse);
    EXPECT_FALSE(session.used_recompute());
}

TEST(OomLadder, GenuineExhaustionDegradesToReuse)
{
    // Size the pool between the bump total and the reuse peak: rung 1
    // cannot fit, rung 2 can.
    const BuiltModel m = rnn(10);
    SimMemory probe(256 << 20, false);
    TensorMap bump(m.graph(), probe, {}, MemoryPlanMode::Bump);
    SimMemory probe2(256 << 20, false);
    TensorMap reuse(m.graph(), probe2, {}, MemoryPlanMode::Reuse);
    ASSERT_LT(reuse.peak_bytes(), bump.peak_bytes());

    AstraOptions opts;
    opts.hbm_bytes =
        (bump.peak_bytes() + reuse.peak_bytes()) / 2;
    AstraSession session(m.graph(), opts);
    EXPECT_EQ(session.plan_mode(0), MemoryPlanMode::Reuse);
    EXPECT_FALSE(session.used_recompute());
}

TEST(OomLadder, RecomputeRungWhenReuseCannotFit)
{
    // Pool smaller than even the reuse peak: only the §3.4 recompute
    // rewrite (smaller activation footprint) can fit the device. The
    // session lays out every strategy of the fork, so probe each
    // strategy's Reuse peak on both graphs and size the pool between
    // the largest of each.
    const BuiltModel m = rnn(10);
    const auto largest_reuse_peak = [](const Graph& graph) {
        const SearchSpace space = enumerate_search_space(graph);
        int64_t peak = 0;
        for (const AllocStrategy& strat : space.strategies) {
            SimMemory probe(256 << 20, false);
            const TensorMap reuse(graph, probe, strat.runs,
                                  MemoryPlanMode::Reuse);
            peak = std::max(peak, reuse.peak_bytes());
        }
        return peak;
    };
    const int64_t orig_peak = largest_reuse_peak(m.graph());
    RecomputePlan plan = apply_recompute(m.graph(), m.grads);
    const int64_t rew_peak = largest_reuse_peak(plan.graph());
    ASSERT_LT(rew_peak, orig_peak);

    AstraOptions opts;
    opts.hbm_bytes = (orig_peak + rew_peak) / 2;

    // Without the backward structure the last rung is disabled and the
    // failure propagates as a typed, catchable error.
    EXPECT_THROW(AstraSession(m.graph(), opts), MemoryError);

    opts.grads = &m.grads;
    AstraSession session(m.graph(), opts);
    EXPECT_TRUE(session.used_recompute());
    EXPECT_GT(session.graph().size(), m.graph().size());
}

TEST(SimulatedHbm, TimingOnlySessionModelsAPoolTheHostCannotBack)
{
    // A session that only times kernels never reads its tensors'
    // bytes, so each strategy's simulated HBM gets no host memory: a
    // 1 TiB device wires on any host.
    const BuiltModel m = rnn(4);
    AstraOptions opts;
    opts.hbm_bytes = int64_t{1} << 40;
    opts.gpu.execute_kernels = false;
    opts.gpu.autoboost = false;
    opts.gpu.faults = FaultPlan();
    AstraSession session(m.graph(), opts);
    const WirerResult r = session.optimize();
    EXPECT_EQ(r.termination, WirerTermination::Complete);
    EXPECT_GT(r.minibatches, 0);
    EXPECT_EQ(session.tensor_map(0).memory().capacity(), opts.hbm_bytes);
}

TEST(Recompute, CheckpointsAreStateTensors)
{
    const BuiltModel m = rnn(3);
    RecomputePlan plan = apply_recompute(m.graph(), m.grads);
    // The rewrite clones strictly less than the whole forward pass:
    // checkpoints (recurrent states crossing timestep scopes) stay.
    int fwd = 0;
    for (const Node& n : m.graph().nodes())
        fwd += n.pass == Pass::Forward && !op_is_source(n.kind);
    EXPECT_LT(plan.cloned_nodes, fwd);
    EXPECT_GT(plan.cloned_nodes, fwd / 3);
}

}  // namespace
}  // namespace astra

/**
 * @file
 * Runtime tests: memory planning with adjacency runs, native-plan
 * value correctness, dispatcher cross-stream synchronization, fused
 * step value preservation, and profiling measurements.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "graph/builder.h"
#include "models/data.h"
#include "runtime/executor.h"
#include "runtime/plan_utils.h"
#include "tests/util.h"

namespace astra {
namespace {

using testutil::Runner;

TEST(TensorMap, DefaultAllocationInNodeOrder)
{
    GraphBuilder b;
    const NodeId x = b.input({2, 2});
    const NodeId y = b.sigmoid(x);
    SimMemory mem(1 << 16);
    TensorMap tmap(b.graph(), mem);
    EXPECT_GE(tmap.ptr(y), tmap.ptr(x));
}

TEST(TensorMap, AdjacencyRunsAreContiguous)
{
    GraphBuilder b;
    const NodeId x = b.input({2, 4});
    const NodeId w1 = b.param({4, 4});
    const NodeId w2 = b.param({4, 4});
    const NodeId w3 = b.param({4, 4});
    (void)x;
    SimMemory mem(1 << 16);
    AdjacencyRun run;
    run.members = {w1, w3, w2};  // specific (non-id) order
    TensorMap tmap(b.graph(), mem, {run});
    EXPECT_TRUE(tmap.adjacent({w1, w3, w2}));
    EXPECT_FALSE(tmap.adjacent({w1, w2, w3}));
    EXPECT_EQ(tmap.ptr(w3), tmap.ptr(w1) + 64);
    EXPECT_EQ(tmap.ptr(w2), tmap.ptr(w1) + 128);
}

TEST(TensorMap, OverlappingRunsPanic)
{
    GraphBuilder b;
    const NodeId w1 = b.param({4, 4});
    const NodeId w2 = b.param({4, 4});
    const NodeId w3 = b.param({4, 4});
    SimMemory mem(1 << 16);
    AdjacencyRun r1{{w1, w2}};
    AdjacencyRun r2{{w2, w3}};
    EXPECT_DEATH(TensorMap(b.graph(), mem, {r1, r2}), "two adjacency");
}

/** Small forward graph exercising most op kinds. */
struct OpSoup
{
    GraphBuilder b;
    NodeId out;
};

OpSoup
make_soup()
{
    OpSoup s;
    GraphBuilder& b = s.b;
    const NodeId table = b.param({20, 8});
    const NodeId ids = b.input_ids(4, 20);
    const NodeId e = b.embedding(table, ids);
    const NodeId w = b.param({8, 8});
    const NodeId mm = b.matmul(e, w);
    const NodeId bias = b.param({8});
    const NodeId act = b.tanh(b.bias_add(mm, bias));
    const NodeId soft = b.softmax(act);
    const NodeId cat = b.concat({act, soft});
    const NodeId sl = b.slice(cat, 4, 8);
    const NodeId sum = b.sum_rows(sl);
    (void)sum;
    s.out = sl;
    b.graph().mark_output(sl);
    return s;
}

TEST(NativePlan, CoversEveryComputeNodeOnce)
{
    OpSoup s = make_soup();
    const ExecutionPlan plan = native_plan(s.b.graph());
    std::vector<int> seen(static_cast<size_t>(s.b.graph().size()), 0);
    for (const PlanStep& step : plan.steps) {
        EXPECT_EQ(step.kind, StepKind::Single);
        EXPECT_EQ(step.stream, 0);
        for (NodeId id : step.nodes)
            ++seen[static_cast<size_t>(id)];
    }
    for (const Node& n : s.b.graph().nodes())
        EXPECT_EQ(seen[static_cast<size_t>(n.id)],
                  op_is_source(n.kind) ? 0 : 1);
}

TEST(Dispatcher, NativeValuesMatchDirectReference)
{
    OpSoup s = make_soup();
    Runner r(s.b.graph());
    Rng rng(21);
    bind_all(s.b.graph(), r.tmap(), rng);
    r.run_native();
    // Recompute the final slice by hand through reference math.
    const Graph& g = s.b.graph();
    std::vector<float> expect;
    {
        // Re-run each node compute directly in topo order on a second
        // memory arena.
        SimMemory mem2(graph_tensor_bytes(g) + (1 << 20));
        TensorMap t2(g, mem2);
        Rng rng2(21);
        bind_all(g, t2, rng2);
        for (const Node& n : g.nodes()) {
            if (op_is_source(n.kind))
                continue;
            auto f = make_node_compute(g, n.id, t2);
            ASSERT_TRUE(static_cast<bool>(f));
            f();
        }
        const float* p = t2.f32(s.out);
        expect.assign(p, p + g.node(s.out).desc.shape.numel());
    }
    EXPECT_EQ(testutil::max_abs_diff(r.values(s.out), expect), 0.0);
}

TEST(Dispatcher, CrossStreamDependencyIsSynchronized)
{
    GraphBuilder b;
    const NodeId x = b.input({8, 8});
    const NodeId y = b.sigmoid(x);   // producer
    const NodeId z = b.tanh(y);      // consumer on another stream
    ExecutionPlan plan;
    plan.num_streams = 2;
    PlanStep p1;
    p1.nodes = {y};
    p1.stream = 0;
    PlanStep p2;
    p2.nodes = {z};
    p2.stream = 1;
    plan.steps = {p1, p2};

    SimMemory mem(1 << 16);
    TensorMap tmap(b.graph(), mem);
    float* xp = tmap.f32(x);
    for (int i = 0; i < 64; ++i)
        xp[i] = 0.3f;
    GpuConfig cfg;
    const DispatchResult res = dispatch_plan(plan, b.graph(), tmap, cfg);
    // Correct value implies the consumer saw the producer's output.
    const float expect = std::tanh(1.0f / (1.0f + std::exp(-0.3f)));
    EXPECT_NEAR(tmap.f32(z)[0], expect, 1e-6);
    // And the makespan serializes the two kernels.
    EXPECT_GT(res.total_ns, 2 * cfg.launch_overhead_ns);
}

TEST(Dispatcher, OutOfOrderPlanPanics)
{
    GraphBuilder b;
    const NodeId x = b.input({2, 2});
    const NodeId y = b.sigmoid(x);
    const NodeId z = b.tanh(y);
    ExecutionPlan plan;
    PlanStep p1;
    p1.nodes = {z};
    PlanStep p2;
    p2.nodes = {y};
    plan.steps = {p1, p2};
    SimMemory mem(1 << 16);
    TensorMap tmap(b.graph(), mem);
    EXPECT_DEATH(dispatch_plan(plan, b.graph(), tmap, GpuConfig{}),
                 "plan order");
}

TEST(Dispatcher, IndependentStreamsOverlap)
{
    // Two medium GEMMs that each fill under half the SM pool and run
    // far longer than a launch: streams genuinely overlap them.
    GraphBuilder b;
    const NodeId x = b.input({64, 512});
    const NodeId a = b.matmul(x, b.param({512, 1536}));
    const NodeId c = b.matmul(x, b.param({512, 1536}));
    auto timed = [&](int streams) {
        ExecutionPlan plan;
        plan.num_streams = streams;
        PlanStep p1;
        p1.nodes = {a};
        p1.stream = 0;
        PlanStep p2;
        p2.nodes = {c};
        p2.stream = streams > 1 ? 1 : 0;
        plan.steps = {p1, p2};
        SimMemory mem(8 << 20);
        TensorMap tmap(b.graph(), mem);
        GpuConfig cfg;
        cfg.execute_kernels = false;
        return dispatch_plan(plan, b.graph(), tmap, cfg).total_ns;
    };
    EXPECT_LT(timed(2), timed(1));
}

TEST(Dispatcher, ProfileSumsOverSteps)
{
    GraphBuilder b;
    const NodeId x = b.input({64, 64});
    const NodeId a = b.sigmoid(x);
    const NodeId c = b.tanh(a);
    ExecutionPlan plan;
    PlanStep p1;
    p1.nodes = {a};
    p1.profile = true;
    const ProfileKey grp(0, 1, 0);
    p1.profile_key = grp;
    PlanStep p2;
    p2.nodes = {c};
    p2.profile = true;
    p2.profile_key = grp;
    plan.steps = {p1, p2};
    SimMemory mem(1 << 20);
    TensorMap tmap(b.graph(), mem);
    GpuConfig cfg;
    cfg.execute_kernels = false;
    const DispatchResult res = dispatch_plan(plan, b.graph(), tmap, cfg);
    ASSERT_TRUE(res.profile_ns.count(grp));
    // Two kernels, each at least one launch overhead long.
    EXPECT_GT(res.profile_ns.at(grp), 2 * cfg.launch_overhead_ns);
    EXPECT_LE(res.profile_ns.at(grp), res.total_ns);
}

TEST(Dispatcher, BarrierResetsEpochMetricBase)
{
    GraphBuilder b;
    const NodeId x = b.input({64, 64});
    const NodeId a = b.sigmoid(x);
    const NodeId c = b.tanh(a);
    ExecutionPlan plan;
    plan.num_streams = 2;
    PlanStep p1;
    p1.nodes = {a};
    plan.steps.push_back(p1);
    PlanStep barrier;
    barrier.kind = StepKind::Barrier;
    plan.steps.push_back(barrier);
    PlanStep p2;
    p2.nodes = {c};
    p2.profile = true;
    p2.epoch_metric = true;
    const ProfileKey epoch0(0, 2, 0);
    p2.profile_key = epoch0;
    plan.steps.push_back(p2);
    SimMemory mem(1 << 20);
    TensorMap tmap(b.graph(), mem);
    GpuConfig cfg;
    cfg.execute_kernels = false;
    const DispatchResult res = dispatch_plan(plan, b.graph(), tmap, cfg);
    ASSERT_TRUE(res.profile_ns.count(epoch0));
    // Metric is measured from the barrier, not from time zero.
    EXPECT_LT(res.profile_ns.at(epoch0), res.total_ns);
    EXPECT_GT(res.profile_ns.at(epoch0), 0.0);
}

TEST(Dispatcher, EpochMetricMatchesHandComputedEventTimes)
{
    // Pin the epoch_metric measurement (barrier-anchored max over a
    // key) against exactly composed sim times. All host/event
    // overheads are zeroed so every dispatch is pure kernel time, and
    // the kernels are tiny enough to hold their SMs without contention
    // — durations compose additively and exactly.
    GpuConfig cfg;
    cfg.execute_kernels = false;
    cfg.autoboost = false;
    cfg.launch_overhead_ns = 0.0;
    cfg.event_enqueue_ns = 0.0;
    cfg.event_record_ns = 0.0;

    GraphBuilder b;
    const NodeId x = b.input({8, 8});
    const NodeId y = b.input({16, 16});
    const NodeId a = b.sigmoid(x);   // pre-barrier, stream 0
    const NodeId c = b.tanh(a);      // post-barrier, stream 0
    const NodeId d = b.tanh(y);      // post-barrier, stream 1...
    const NodeId e = b.sigmoid(d);   // ...a two-kernel chain
    SimMemory mem(1 << 20);
    TensorMap tmap(b.graph(), mem);

    // Duration of a serial chain of single-node steps, alone under the
    // same config.
    const auto solo = [&](std::vector<NodeId> nodes) {
        ExecutionPlan p;
        p.num_streams = 1;
        for (NodeId id : nodes) {
            PlanStep s;
            s.nodes = {id};
            p.steps.push_back(s);
        }
        return dispatch_plan(p, b.graph(), tmap, cfg).total_ns;
    };
    const double d1 = solo({a});
    const double d2 = solo({c});
    const double d3 = solo({d, e});
    ASSERT_GT(d1, 0.0);
    ASSERT_GT(d3, d2);  // the chain is longer: the max is meaningful

    ExecutionPlan plan;
    plan.num_streams = 2;
    PlanStep p1;
    p1.nodes = {a};
    plan.steps.push_back(p1);
    PlanStep barrier;
    barrier.kind = StepKind::Barrier;
    plan.steps.push_back(barrier);
    PlanStep p2;
    p2.nodes = {c};
    p2.profile = true;
    p2.epoch_metric = true;
    const ProfileKey ek(0, 3, 0);
    p2.profile_key = ek;
    plan.steps.push_back(p2);
    PlanStep p3;
    p3.nodes = {d};
    p3.stream = 1;
    plan.steps.push_back(p3);
    PlanStep p4;  // chain tail: its epoch metric spans d + e
    p4.nodes = {e};
    p4.stream = 1;
    p4.profile = true;
    p4.epoch_metric = true;
    p4.profile_key = ek;
    plan.steps.push_back(p4);

    const DispatchResult res = dispatch_plan(plan, b.graph(), tmap, cfg);
    ASSERT_TRUE(res.profile_ns.count(ek));
    // Hand-composed timeline: the barrier arrives when p1 ends (d1);
    // both epoch steps start there and run concurrently, so the
    // barrier-anchored max-over-key metric is max(d2, d3) and the
    // whole dispatch is d1 + max(d2, d3).
    EXPECT_DOUBLE_EQ(res.profile_ns.at(ek), std::max(d2, d3));
    EXPECT_DOUBLE_EQ(res.total_ns, d1 + std::max(d2, d3));
}

TEST(FusedSteps, BatchGemmBitIdenticalToSingles)
{
    GraphBuilder b;
    const NodeId x = b.input({4, 8});
    const NodeId w1 = b.param({8, 8});
    const NodeId w2 = b.param({8, 8});
    const NodeId m1 = b.matmul(x, w1);
    const NodeId m2 = b.matmul(x, w2);
    b.graph().mark_output(m1);
    b.graph().mark_output(m2);

    Runner single(b.graph());
    Rng rng(7);
    bind_all(b.graph(), single.tmap(), rng);
    single.run_native();

    Runner fused(b.graph(), {AdjacencyRun{{w1, w2}},
                             AdjacencyRun{{m1, m2}}});
    Rng rng2(7);
    bind_all(b.graph(), fused.tmap(), rng2);
    ExecutionPlan plan;
    PlanStep step;
    step.kind = StepKind::FusedGemm;
    step.nodes = {m1, m2};
    plan.steps = {step};
    fused.run(plan);

    EXPECT_EQ(testutil::max_abs_diff(single.values(m1),
                                     fused.values(m1)), 0.0);
    EXPECT_EQ(testutil::max_abs_diff(single.values(m2),
                                     fused.values(m2)), 0.0);
}

TEST(FusedSteps, LadderGemmBitIdenticalToAddChain)
{
    GraphBuilder b;
    const NodeId a1 = b.input({4, 8});
    const NodeId a2 = b.input({4, 8});
    const NodeId a3 = b.input({4, 8});
    const NodeId w1 = b.param({8, 8});
    const NodeId w2 = b.param({8, 8});
    const NodeId w3 = b.param({8, 8});
    const NodeId m1 = b.matmul(a1, w1);
    const NodeId m2 = b.matmul(a2, w2);
    const NodeId m3 = b.matmul(a3, w3);
    const NodeId s1 = b.add(m1, m2);
    const NodeId s2 = b.add(s1, m3);
    b.graph().mark_output(s2);

    Runner chain(b.graph());
    Rng rng(11);
    bind_all(b.graph(), chain.tmap(), rng);
    chain.run_native();

    Runner ladder(b.graph());
    Rng rng2(11);
    bind_all(b.graph(), ladder.tmap(), rng2);
    ExecutionPlan plan;
    PlanStep step;
    step.kind = StepKind::LadderGemm;
    step.nodes = {m1, m2, m3, s1, s2};
    plan.steps = {step};
    ladder.run(plan);

    EXPECT_EQ(testutil::max_abs_diff(chain.values(s2),
                                     ladder.values(s2)), 0.0);
}

TEST(FusedSteps, PartialLadderChunkUsesBase)
{
    GraphBuilder b;
    std::vector<NodeId> mms;
    for (int i = 0; i < 4; ++i)
        mms.push_back(b.matmul(b.input({2, 4}), b.param({4, 4})));
    const NodeId s1 = b.add(mms[0], mms[1]);
    const NodeId s2 = b.add(s1, mms[2]);
    const NodeId s3 = b.add(s2, mms[3]);
    b.graph().mark_output(s3);

    Runner chain(b.graph());
    Rng rng(13);
    bind_all(b.graph(), chain.tmap(), rng);
    chain.run_native();

    Runner part(b.graph());
    Rng rng2(13);
    bind_all(b.graph(), part.tmap(), rng2);
    ExecutionPlan plan;
    PlanStep c1;
    c1.kind = StepKind::LadderGemm;
    c1.nodes = {mms[0], mms[1], s1};  // chunk [0,2)
    PlanStep c2;
    c2.kind = StepKind::LadderGemm;
    c2.nodes = {mms[2], mms[3], s2, s3};  // chunk [2,4), base = s1
    plan.steps = {c1, c2};
    part.run(plan);
    EXPECT_EQ(testutil::max_abs_diff(chain.values(s3),
                                     part.values(s3)), 0.0);
}

TEST(FusedSteps, ElementwiseChainIdentical)
{
    GraphBuilder b;
    const NodeId x = b.input({4, 16});
    const NodeId y = b.input({4, 16});
    const NodeId a = b.add(x, y);
    const NodeId s = b.sigmoid(a);
    const NodeId m = b.mul(s, x);
    b.graph().mark_output(m);

    Runner singles(b.graph());
    Rng rng(17);
    bind_all(b.graph(), singles.tmap(), rng);
    singles.run_native();

    Runner fused(b.graph());
    Rng rng2(17);
    bind_all(b.graph(), fused.tmap(), rng2);
    ExecutionPlan plan;
    PlanStep step;
    step.kind = StepKind::FusedElementwise;
    step.nodes = {a, s, m};
    plan.steps = {step};
    fused.run(plan);
    EXPECT_EQ(testutil::max_abs_diff(singles.values(m),
                                     fused.values(m)), 0.0);
}

TEST(Dispatcher, TransientKernelFaultRetriesAndRestoresValues)
{
    // The mini-batch transaction: a kernel fault skips its compute
    // callback (wrong values), the dispatcher replays the whole
    // mini-batch on a fresh device with a re-salted injector, and the
    // surviving attempt's values are bit-identical to a fault-free run.
    GraphBuilder b;
    const NodeId x = b.input({8, 8});
    const NodeId y = b.sigmoid(x);
    const NodeId z = b.tanh(y);
    const NodeId w = b.relu(z);
    b.graph().mark_output(w);

    Runner clean(b.graph());
    Rng rng(31);
    bind_all(b.graph(), clean.tmap(), rng);
    clean.run_native();

    SimMemory mem(1 << 20);
    TensorMap tmap(b.graph(), mem);
    Rng rng2(31);
    bind_all(b.graph(), tmap, rng2);
    GpuConfig cfg;
    ASSERT_TRUE(FaultPlan::parse("seed=2;kernel:p=0.4", &cfg.faults));
    cfg.fault_salt = 9;  // pin the draw strand: deterministic test
    const DispatchResult res =
        dispatch_plan(native_plan(b.graph()), b.graph(), tmap, cfg);

    EXPECT_FALSE(res.faulted);        // a clean attempt survived
    EXPECT_GE(res.fault_attempts, 1); // ...and at least one did not
    EXPECT_GE(res.faults_seen, 1);
    EXPECT_GT(res.backoff_ns, 0.0);
    const float* p = tmap.f32(w);
    const std::vector<float> got(
        p, p + b.graph().node(w).desc.shape.numel());
    EXPECT_EQ(testutil::max_abs_diff(clean.values(w), got), 0.0);
}

TEST(Dispatcher, FaultBudgetExhaustionReportsFaulted)
{
    GraphBuilder b;
    const NodeId x = b.input({8, 8});
    const NodeId y = b.sigmoid(x);
    b.graph().mark_output(y);
    SimMemory mem(1 << 20);
    TensorMap tmap(b.graph(), mem);
    GpuConfig cfg;
    cfg.execute_kernels = false;
    ASSERT_TRUE(FaultPlan::parse("retries=2;kernel:p=1", &cfg.faults));
    cfg.fault_salt = 1;
    const DispatchResult res =
        dispatch_plan(native_plan(b.graph()), b.graph(), tmap, cfg);
    EXPECT_TRUE(res.faulted);
    EXPECT_EQ(res.fault_attempts, 3);  // retries + 1, all faulted
    EXPECT_GE(res.faults_seen, 3);
    // Exponential backoff: 50us * (1 + 2 + 4).
    EXPECT_DOUBLE_EQ(res.backoff_ns, 50.0 * 1e3 * 7.0);
    // The faulted result still carries timing (kernel faults are
    // timing-invisible): the caller can account the mini-batch.
    EXPECT_GT(res.total_ns, 0.0);
}

TEST(Dispatcher, ArmedButSilentPlanChangesNothing)
{
    GraphBuilder b;
    const NodeId x = b.input({8, 8});
    const NodeId y = b.sigmoid(x);
    b.graph().mark_output(y);
    SimMemory mem(1 << 20);
    TensorMap tmap(b.graph(), mem);
    GpuConfig cfg;
    cfg.execute_kernels = false;
    cfg.faults = FaultPlan();  // ASTRA_FAULTS arms every default config
    cfg.autoboost = false;     // cross-dispatch clock drift would differ
    const double plain =
        dispatch_plan(native_plan(b.graph()), b.graph(), tmap, cfg)
            .total_ns;
    ASSERT_TRUE(FaultPlan::parse("kernel:p=0", &cfg.faults));
    cfg.fault_salt = 3;
    const DispatchResult res =
        dispatch_plan(native_plan(b.graph()), b.graph(), tmap, cfg);
    EXPECT_FALSE(res.faulted);
    EXPECT_EQ(res.fault_attempts, 0);
    EXPECT_EQ(res.faults_seen, 0);
    EXPECT_DOUBLE_EQ(res.backoff_ns, 0.0);
    EXPECT_DOUBLE_EQ(res.total_ns, plain);
}

TEST(PlanUtils, TopoSortRepairsProgramOrder)
{
    GraphBuilder b;
    const NodeId x = b.input({2, 2});
    const NodeId y = b.sigmoid(x);
    const NodeId z = b.tanh(y);
    std::vector<PlanStep> steps(2);
    steps[0].nodes = {z};
    steps[1].nodes = {y};
    const auto sorted = topo_sort_steps(std::move(steps), b.graph());
    EXPECT_EQ(sorted[0].nodes[0], y);
    EXPECT_EQ(sorted[1].nodes[0], z);
}

TEST(FusedElementwisePasses, CountsExternalTensors)
{
    GraphBuilder b;
    const NodeId x = b.input({4, 4});
    const NodeId y = b.input({4, 4});
    const NodeId a = b.add(x, y);
    const NodeId s = b.sigmoid(a);   // a is internal (single use)
    b.graph().mark_output(s);
    PlanStep step;
    step.kind = StepKind::FusedElementwise;
    step.nodes = {a, s};
    // 2 external inputs (x, y) + 1 escaping output (s).
    EXPECT_EQ(fused_elementwise_passes(step, b.graph()), 3);
}

}  // namespace
}  // namespace astra

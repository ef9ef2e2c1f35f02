/**
 * @file
 * Compiled-dispatch tests: WiredProgram compilation structure, static
 * arena planning, replay-vs-dispatch bit-identity across the model zoo
 * (fused, streamed, profiled and recompute variants), value
 * preservation with executing kernels, the scheduler's wired-binary
 * cache behind AstraSession::run, and — critically — *non-vacuous*
 * adversarial checks that the verifier rejects each class of illegal
 * lowering it claims to catch (cross-stream reuse without a control
 * edge, stale event slots, use-before-def, arena overlap while live).
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "autodiff/recompute.h"
#include "core/astra.h"
#include "models/data.h"
#include "models/models.h"
#include "runtime/memory_static.h"
#include "runtime/wired.h"
#include "sim/memory.h"
#include "tests/util.h"

namespace astra {
namespace {

/**
 * Identity tests pin autoboost and fault injection: a dispatch and a
 * replay draw independent process-wide salts, so bit-identity is a
 * base-clock, fault-free property (the CI fault/autoboost matrix
 * re-runs everything else under jitter).
 */
GpuConfig
pinned_gpu()
{
    GpuConfig g;
    g.execute_kernels = false;
    g.autoboost = false;
    g.faults = FaultPlan();
    return g;
}

void
expect_bit_identical(const DispatchResult& generic,
                     const DispatchResult& wired)
{
    EXPECT_EQ(generic.total_ns, wired.total_ns);
    EXPECT_EQ(generic.clock_multiplier, wired.clock_multiplier);
    EXPECT_EQ(generic.stats.kernels_launched,
              wired.stats.kernels_launched);
    EXPECT_EQ(generic.stats.events_recorded, wired.stats.events_recorded);
    EXPECT_EQ(generic.stats.busy_sm_ns, wired.stats.busy_sm_ns);
    ASSERT_EQ(generic.profile_ns.size(), wired.profile_ns.size());
    for (const auto& [key, v] : generic.profile_ns) {
        const auto it = wired.profile_ns.find(key);
        ASSERT_NE(it, wired.profile_ns.end()) << "missing key " << key;
        EXPECT_EQ(v, it->second) << "profile key " << key;
    }
}

// ---- compile_plan structure ----------------------------------------------

TEST(CompilePlan, CrossStreamDependencyEmitsRecordWaitPair)
{
    GraphBuilder b;
    const NodeId x = b.input({4, 4});
    const NodeId a = b.sigmoid(x);
    const NodeId c = b.tanh(a);
    ExecutionPlan plan;
    plan.num_streams = 2;
    PlanStep s0;
    s0.nodes = {a};
    s0.stream = 0;
    PlanStep s1;
    s1.nodes = {c};
    s1.stream = 1;
    plan.steps = {s0, s1};

    const WiredProgram prog =
        compile_plan(plan, b.graph(), /*profiling=*/false);
    ASSERT_EQ(prog.step_begin.size(), 3u);
    EXPECT_EQ(prog.num_streams, 2);
    EXPECT_EQ(prog.num_events, 1);
    // Step 0: one launch, then the done-event record.
    ASSERT_EQ(prog.step_begin[1] - prog.step_begin[0], 2);
    EXPECT_EQ(prog.cmds[0].op, WiredOp::Launch);
    EXPECT_EQ(prog.cmds[0].stream, 0);
    EXPECT_EQ(prog.cmds[1].op, WiredOp::Record);
    EXPECT_EQ(prog.cmds[1].stream, 0);
    // Step 1: wait on the producer's slot, then launch on stream 1.
    ASSERT_EQ(prog.step_begin[2] - prog.step_begin[1], 2);
    EXPECT_EQ(prog.cmds[2].op, WiredOp::Wait);
    EXPECT_EQ(prog.cmds[2].stream, 1);
    EXPECT_EQ(prog.cmds[2].arg, prog.cmds[1].arg);
    EXPECT_EQ(prog.cmds[3].op, WiredOp::Launch);
    EXPECT_EQ(prog.cmds[3].stream, 1);
}

TEST(CompilePlan, BarrierRendezvousesEveryStreamPair)
{
    GraphBuilder b;
    const NodeId x = b.input({4, 4});
    const NodeId a = b.sigmoid(x);
    const NodeId c = b.tanh(x);
    ExecutionPlan plan;
    plan.num_streams = 2;
    PlanStep s0;
    s0.nodes = {a};
    s0.stream = 0;
    PlanStep bar;
    bar.kind = StepKind::Barrier;
    PlanStep s1;
    s1.nodes = {c};
    s1.stream = 1;
    plan.steps = {s0, bar, s1};

    const WiredProgram prog =
        compile_plan(plan, b.graph(), /*profiling=*/false);
    ASSERT_EQ(prog.is_barrier.size(), 3u);
    EXPECT_EQ(prog.is_barrier[1], 1);
    // Per stream one rendezvous record, then all-pairs waits (2 for
    // 2 streams).
    EXPECT_EQ(prog.barrier_slots.size(), 2u);
    int records = 0, waits = 0;
    for (int32_t i = prog.step_begin[1]; i < prog.step_begin[2]; ++i) {
        const WiredCmd& cmd = prog.cmds[static_cast<size_t>(i)];
        records += cmd.op == WiredOp::Record;
        waits += cmd.op == WiredOp::Wait;
    }
    EXPECT_EQ(records, 2);
    EXPECT_EQ(waits, 2);
}

// ---- static arena planner ------------------------------------------------

TEST(StaticArena, DisjointLifetimesShareBytes)
{
    StaticBuffer a;
    a.bytes = 1000;
    a.def_step = 0;
    a.last_use_step = 1;
    a.use_steps = {1};
    StaticBuffer b;
    b.bytes = 1000;
    b.def_step = 2;
    b.last_use_step = 3;
    b.use_steps = {3};
    // Single-stream program order: everything is ordered.
    const auto ordered = [](int from, int to) { return from < to; };
    const StaticArenaResult r = plan_static_arena({a, b}, ordered);
    EXPECT_EQ(r.offsets[0], r.offsets[1]);
    EXPECT_EQ(r.high_water, 1024);  // one aligned slot, not two
    EXPECT_TRUE(r.control_edges.empty());
}

TEST(StaticArena, UnprovenReuseEmitsControlEdge)
{
    StaticBuffer a;
    a.bytes = 512;
    a.def_step = 0;
    a.last_use_step = 1;
    a.use_steps = {1};
    StaticBuffer b;
    b.bytes = 512;
    b.def_step = 2;
    b.last_use_step = 3;
    b.use_steps = {3};
    // Oracle that can prove nothing: the reuse still happens (that is
    // what keeps the packing tight) but must be fenced explicitly.
    const auto unordered = [](int, int) { return false; };
    const StaticArenaResult r = plan_static_arena({a, b}, unordered);
    EXPECT_EQ(r.offsets[0], r.offsets[1]);
    ASSERT_FALSE(r.control_edges.empty());
    bool guards_last_use = false;
    for (const ControlEdge& e : r.control_edges) {
        EXPECT_EQ(e.to_step, 2);
        guards_last_use |= e.from_step == 1;
    }
    EXPECT_TRUE(guards_last_use)
        << "previous occupant's last access must gate the reuse";
}

TEST(StaticArena, LiveBuffersNeverShareBytes)
{
    // Entry-live parameter (never recycled) plus two overlapping-
    // lifetime activations: three distinct extents.
    StaticBuffer p;
    p.bytes = 256;
    p.def_step = -1;
    p.last_use_step = 4;  // one-past-last step: survives the batch
    StaticBuffer a;
    a.bytes = 256;
    a.def_step = 0;
    a.last_use_step = 2;
    a.use_steps = {1, 2};
    StaticBuffer b;
    b.bytes = 256;
    b.def_step = 1;
    b.last_use_step = 3;
    b.use_steps = {3};
    const auto ordered = [](int from, int to) { return from < to; };
    const StaticArenaResult r = plan_static_arena({p, a, b}, ordered);
    const std::set<int64_t> offsets(r.offsets.begin(), r.offsets.end());
    EXPECT_EQ(offsets.size(), 3u);
    EXPECT_EQ(r.high_water, 3 * 256);
    EXPECT_TRUE(r.control_edges.empty());
}

// ---- adversarial verifier checks (must be non-vacuous) -------------------

/**
 * Hand-built two-step binary: steps 0 and 1 launch on different
 * streams with no synchronization; both define 1 KiB at arena offset
 * 0. Without a control edge this is exactly the cross-stream reuse the
 * verifier exists to reject.
 */
WiredBinary
cross_stream_reuse_binary()
{
    WiredBinary bin;
    WiredProgram& p = bin.program;
    p.num_streams = 2;
    p.cmds = {{WiredOp::Launch, 0, 0}, {WiredOp::Launch, 1, 1}};
    p.step_begin = {0, 1, 2};
    p.is_barrier = {0, 0};
    bin.kernels.resize(2);
    bin.kernels[0].name = "k0";
    bin.kernels[1].name = "k1";
    ArenaInterval i0;
    i0.node = 0;
    i0.offset = 0;
    i0.bytes = 1024;
    i0.def_step = 0;
    i0.last_use_step = 0;
    ArenaInterval i1 = i0;
    i1.node = 1;
    i1.def_step = 1;
    i1.last_use_step = 1;
    bin.intervals = {i0, i1};
    bin.defs = {0, 1};
    bin.access = {{0, 0, 0, 1}, {0, 0, 1, 2}};
    bin.arena_bytes = 1024;
    return bin;
}

TEST(VerifyWired, CatchesCrossStreamReuseWithoutControlEdge)
{
    WiredBinary bin = cross_stream_reuse_binary();
    const WiredVerdict bad = verify_wired(bin);
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.why.find("overlap"), std::string::npos) << bad.why;

    // The fix lowering would apply — an explicit control edge — must
    // flip the verdict, proving the check keys on the ordering and not
    // on some structural accident.
    insert_control_edges(bin.program, {{0, 1}});
    const WiredVerdict good = verify_wired(bin);
    EXPECT_TRUE(good.ok) << good.why;
}

TEST(VerifyWired, CatchesStaleEventSlot)
{
    WiredBinary bin;
    WiredProgram& p = bin.program;
    p.num_streams = 2;
    p.num_events = 1;
    // Stream 1 waits on slot 0, which nothing ever records: deadlock.
    p.cmds = {{WiredOp::Launch, 0, 0},
              {WiredOp::Wait, 1, 0},
              {WiredOp::Launch, 1, 1}};
    p.step_begin = {0, 1, 3};
    p.is_barrier = {0, 0};
    bin.kernels.resize(2);
    const WiredVerdict v = verify_wired(bin);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.why.find("stale event slot"), std::string::npos) << v.why;
}

TEST(VerifyWired, CatchesUseBeforeDef)
{
    WiredBinary bin = cross_stream_reuse_binary();
    // Step 1 now *reads* interval 0 (defined by step 0 on the other
    // stream) instead of overlapping it.
    bin.intervals[1].offset = 4096;
    bin.uses = {0};
    bin.access = {{0, 0, 0, 1}, {0, 1, 1, 2}};
    const WiredVerdict bad = verify_wired(bin);
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.why.find("use-before-def"), std::string::npos)
        << bad.why;

    insert_control_edges(bin.program, {{0, 1}});
    const WiredVerdict good = verify_wired(bin);
    EXPECT_TRUE(good.ok) << good.why;
}

TEST(VerifyWired, CatchesArenaOverlapWhileLive)
{
    // Single stream, fully ordered — yet interval 0 is still live
    // (step 2 reads it) when step 1 defines overlapping bytes. Program
    // order alone cannot make this legal.
    WiredBinary bin;
    WiredProgram& p = bin.program;
    p.num_streams = 1;
    p.cmds = {{WiredOp::Launch, 0, 0},
              {WiredOp::Launch, 0, 1},
              {WiredOp::Launch, 0, 2}};
    p.step_begin = {0, 1, 2, 3};
    p.is_barrier = {0, 0, 0};
    bin.kernels.resize(3);
    ArenaInterval i0;
    i0.node = 0;
    i0.offset = 0;
    i0.bytes = 512;
    i0.def_step = 0;
    i0.last_use_step = 2;
    ArenaInterval i1 = i0;
    i1.node = 1;
    i1.def_step = 1;
    i1.last_use_step = 1;
    bin.intervals = {i0, i1};
    bin.defs = {0, 1};
    bin.uses = {0};
    bin.access = {{0, 0, 0, 1}, {0, 0, 1, 2}, {0, 1, 2, 2}};
    bin.arena_bytes = 512;
    const WiredVerdict v = verify_wired(bin);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.why.find("overlap-while-live"), std::string::npos)
        << v.why;
}

TEST(VerifyWired, SameStepOverlapNeedsATensorThatDiesInTheStep)
{
    // Step 0 defines two intervals on the same bytes. Its kernel
    // computes its nodes in order, so that is legal while interval 0
    // dies inside step 0 — and an overlap while live once step 1 reads
    // it too.
    WiredBinary bin;
    WiredProgram& p = bin.program;
    p.num_streams = 1;
    p.cmds = {{WiredOp::Launch, 0, 0}, {WiredOp::Launch, 0, 1}};
    p.step_begin = {0, 1, 2};
    p.is_barrier = {0, 0};
    bin.kernels.resize(2);
    ArenaInterval i0;
    i0.node = 0;
    i0.offset = 0;
    i0.bytes = 512;
    i0.def_step = 0;
    i0.last_use_step = 0;
    ArenaInterval i1 = i0;
    i1.node = 1;
    i1.last_use_step = 1;
    bin.intervals = {i0, i1};
    bin.defs = {0, 1};
    bin.uses = {1};
    bin.access = {{0, 0, 0, 2}, {0, 1, 2, 2}};
    bin.arena_bytes = 512;
    const WiredVerdict good = verify_wired(bin);
    EXPECT_TRUE(good.ok) << good.why;

    bin.intervals[0].last_use_step = 1;
    bin.uses = {0, 1};
    bin.access = {{0, 0, 0, 2}, {0, 2, 2, 2}};
    const WiredVerdict bad = verify_wired(bin);
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.why.find("overlap-while-live"), std::string::npos)
        << bad.why;
}

// ---- replay bit-identity across the zoo ----------------------------------

ModelConfig
tiny_config()
{
    ModelConfig cfg;
    cfg.batch = 8;
    cfg.seq_len = 4;
    cfg.hidden = 32;
    cfg.embed_dim = 32;
    cfg.vocab = 50;
    return cfg;
}

/** Dispatch both paths for one config and assert bit-identity. */
void
check_identity(AstraSession& session, const ScheduleConfig& cfg)
{
    const auto plan = session.scheduler().build_cached(cfg);
    const TensorMap& tmap = session.tensor_map(cfg.strategy);
    const DispatchResult generic = dispatch_plan(
        *plan, session.graph(), tmap, session.options().gpu);

    const WiredBinary bin = lower_plan(*plan, session.graph(), tmap,
                                       session.options().gpu);
    const WiredVerdict v = verify_wired(bin);
    ASSERT_TRUE(v.ok) << v.why;
    // Real layouts are dependency-ordered by construction (Bump, or
    // the ancestor-guarded Reuse planner): no control edge needed.
    EXPECT_EQ(bin.control_edges, 0);
    const DispatchResult wired =
        replay_wired(bin, session.options().gpu);
    expect_bit_identical(generic, wired);
}

TEST(ReplayWired, BitIdenticalAcrossZooFusedStreamedProfiled)
{
    const ModelKind kinds[] = {ModelKind::Scrnn, ModelKind::MiLstm,
                               ModelKind::SubLstm,
                               ModelKind::StackedLstm, ModelKind::Gnmt};
    for (ModelKind kind : kinds) {
        SCOPED_TRACE(model_name(kind));
        const BuiltModel m = build_model(kind, tiny_config());
        AstraOptions opts;
        opts.gpu = pinned_gpu();
        AstraSession session(m.graph(), opts);
        const SearchSpace& space = session.space();

        // Plain: single stream, no fusion.
        ScheduleConfig plain;
        plain.group_chunk.assign(space.groups.size(), 1);
        plain.group_lib.assign(space.groups.size(), GemmLib::Cublas);
        check_identity(session, plain);

        // Fused + profiled: max chunk per group, every group keyed.
        ScheduleConfig fused = plain;
        for (const FusionGroup& g : space.groups) {
            fused.group_chunk[static_cast<size_t>(g.id)] =
                g.chunk_options.back();
            fused.group_keys[g.id] = "w|" + g.key;
        }
        check_identity(session, fused);

        // Streamed + epoch metrics: two streams, every epoch keyed so
        // the barrier-relative readout path is exercised.
        ScheduleConfig streamed = fused;
        streamed.use_streams = true;
        streamed.num_streams = 2;
        const StreamSpace ss = session.scheduler().stream_space(streamed);
        for (const EpochInfo& e : ss.epochs)
            streamed.epoch_keys[{e.super_epoch, e.level}] =
                "ep|" + std::to_string(e.super_epoch) + "." +
                std::to_string(e.level);
        check_identity(session, streamed);
    }
}

TEST(ReplayWired, BitIdenticalOnRecomputeRewrite)
{
    const BuiltModel m = build_model(ModelKind::SubLstm, tiny_config());
    const RecomputePlan rp = apply_recompute(m.graph(), m.grads);
    AstraOptions opts;
    opts.gpu = pinned_gpu();
    AstraSession session(rp.graph(), opts);
    ScheduleConfig cfg;
    cfg.group_chunk.assign(session.space().groups.size(), 1);
    cfg.group_lib.assign(session.space().groups.size(),
                         GemmLib::Cublas);
    check_identity(session, cfg);
}

TEST(ReplayWired, ReuseArenaRecyclesBytesInsideAFusedStep)
{
    // The Reuse planner may hand a fused step's output the bytes of a
    // tensor that dies inside the same step (its last readers are the
    // output's ancestors). The step's kernel computes its nodes in
    // order, so lowering must accept the overlap without a control
    // edge and replay exactly like a dispatch.
    const BuiltModel m = build_model(ModelKind::SubLstm, tiny_config());
    const SearchSpace space = enumerate_search_space(m.graph());
    SimMemory mem(graph_tensor_bytes(m.graph()) + (1 << 20), false);
    const TensorMap tmap(m.graph(), mem, space.strategies[0].runs,
                         MemoryPlanMode::Reuse);
    const Scheduler sched(m.graph(), space);
    ScheduleConfig cfg;
    cfg.group_chunk.assign(space.groups.size(), 1);
    cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
    const ExecutionPlan plan = sched.build(cfg);
    const GpuConfig gpu = pinned_gpu();

    const WiredBinary bin = lower_plan(plan, m.graph(), tmap, gpu);
    int same_step_overlaps = 0;
    for (const ArenaInterval& a : bin.intervals)
        for (const ArenaInterval& b : bin.intervals)
            same_step_overlaps +=
                &a < &b && a.def_step >= 0 && a.def_step == b.def_step &&
                a.offset < b.offset + b.bytes &&
                b.offset < a.offset + a.bytes;
    ASSERT_GT(same_step_overlaps, 0) << "no intra-step reuse to check";
    const WiredVerdict v = verify_wired(bin);
    ASSERT_TRUE(v.ok) << v.why;
    EXPECT_EQ(bin.control_edges, 0);
    expect_bit_identical(dispatch_plan(plan, m.graph(), tmap, gpu),
                         replay_wired(bin, gpu));
}

TEST(ReplayWired, ValuesMatchGenericDispatchExactly)
{
    // Two independent sessions over the same graph, identically
    // seeded; one dispatches the plan (bind + walk), one replays the
    // session's cached wired binary, with kernels executing. Outputs
    // must agree bit-exactly.
    const BuiltModel m = build_model(ModelKind::Scrnn, tiny_config());
    AstraOptions opts;
    opts.gpu = pinned_gpu();
    opts.gpu.execute_kernels = true;
    AstraSession generic(m.graph(), opts);
    AstraSession compiled(m.graph(), opts);

    Rng r1(33), r2(33);
    bind_all(m.graph(), generic.tensor_map(0), r1);
    bind_all(m.graph(), compiled.tensor_map(0), r2);

    ScheduleConfig cfg;
    cfg.group_chunk.assign(generic.space().groups.size(), 1);
    cfg.group_lib.assign(generic.space().groups.size(),
                         GemmLib::Cublas);
    const DispatchResult a =
        dispatch_plan(*generic.scheduler().build_cached(cfg), m.graph(),
                      generic.tensor_map(0), opts.gpu);
    const DispatchResult b = compiled.run(cfg);
    EXPECT_EQ(a.total_ns, b.total_ns);

    ASSERT_FALSE(m.graph().outputs().empty());
    for (NodeId out : m.graph().outputs()) {
        const int64_t n = m.graph().node(out).desc.shape.numel();
        const float* pa = generic.tensor_map(0).f32(out);
        const float* pb = compiled.tensor_map(0).f32(out);
        for (int64_t i = 0; i < n; ++i)
            ASSERT_EQ(pa[i], pb[i]) << "output %" << out << "[" << i
                                    << "]";
    }
}

// ---- session wiring ------------------------------------------------------

TEST(CompiledDispatch, SessionCachesLoweredBinary)
{
    const BuiltModel m = build_model(ModelKind::Scrnn, tiny_config());
    AstraOptions opts;
    opts.gpu = pinned_gpu();
    AstraSession session(m.graph(), opts);
    ScheduleConfig cfg;
    cfg.group_chunk.assign(session.space().groups.size(), 1);
    cfg.group_lib.assign(session.space().groups.size(),
                         GemmLib::Cublas);

    const DispatchResult first = session.run(cfg);
    const DispatchResult second = session.run(cfg);
    EXPECT_EQ(first.total_ns, second.total_ns);
    EXPECT_EQ(session.scheduler().wired_cache_misses(), 1);
    EXPECT_EQ(session.scheduler().wired_cache_hits(), 1);

    // A different configuration lowers its own binary.
    ScheduleConfig other = cfg;
    other.elementwise_fusion = false;
    session.run(other);
    EXPECT_EQ(session.scheduler().wired_cache_misses(), 2);
}

TEST(CompiledDispatch, MatchesGenericSessionPath)
{
    const BuiltModel m = build_model(ModelKind::MiLstm, tiny_config());
    AstraOptions opts;
    opts.gpu = pinned_gpu();
    AstraSession session(m.graph(), opts);

    ScheduleConfig cfg;
    cfg.group_chunk.assign(session.space().groups.size(), 1);
    cfg.group_lib.assign(session.space().groups.size(),
                         GemmLib::Cublas);
    for (const FusionGroup& g : session.space().groups)
        cfg.group_keys[g.id] = "w|" + g.key;
    expect_bit_identical(
        dispatch_plan(*session.scheduler().build_cached(cfg), m.graph(),
                      session.tensor_map(cfg.strategy), opts.gpu),
        session.run(cfg));
}

}  // namespace
}  // namespace astra

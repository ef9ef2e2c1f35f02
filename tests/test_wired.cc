/**
 * @file
 * Compiled-dispatch tests: WiredProgram compilation structure, bound
 * kernel descriptors pinned on the paper models,
 * replay-vs-dispatch bit-identity across the model zoo
 * (fused, streamed, profiled and recompute variants, on Bump and
 * Reuse arenas), value
 * preservation with executing kernels, the scheduler's wired-binary
 * cache behind AstraSession::run and the config equality that keys it,
 * and — critically — *non-vacuous* adversarial checks that the
 * verifier rejects each class of illegal lowering it claims to catch
 * (cross-stream reuse without a record/wait edge, stale event slots,
 * use-before-def, arena overlap while live).
 */
#include <gtest/gtest.h>

#include <locale>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/recompute.h"
#include "core/astra.h"
#include "models/data.h"
#include "models/models.h"
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

// ---- adversarial verifier checks (must be non-vacuous) -------------------

/**
 * Hand-built two-step binary: steps 0 and 1 launch on different
 * streams with no synchronization; both define 1 KiB at arena offset
 * 0 (`table`). Without a record/wait edge this is exactly the
 * cross-stream reuse the verifier exists to reject.
 */
WiredBinary
cross_stream_reuse_binary(ArenaTable& table)
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
    table.intervals = {i0, i1};
    table.use_begin = {0, 0, 0};
    return bin;
}

/**
 * Order step 1 of cross_stream_reuse_binary after step 0 by hand: step
 * 0 records event slot 0 on stream 0, and step 1 waits on it on stream
 * 1 before it launches.
 */
void
order_step1_after_step0(WiredProgram& p)
{
    p.num_events = 1;
    p.cmds = {{WiredOp::Launch, 0, 0},
              {WiredOp::Record, 0, 0},
              {WiredOp::Wait, 1, 0},
              {WiredOp::Launch, 1, 1}};
    p.step_begin = {0, 2, 4};
}

TEST(VerifyWired, CatchesCrossStreamReuseWithoutOrdering)
{
    ArenaTable table;
    WiredBinary bin = cross_stream_reuse_binary(table);
    const WiredVerdict bad = verify_wired(bin, table);
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.why.find("overlap"), std::string::npos) << bad.why;

    // Ordering the two steps by hand must flip the verdict, proving the
    // check keys on the ordering and not on some structural accident.
    order_step1_after_step0(bin.program);
    const WiredVerdict good = verify_wired(bin, table);
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
    const WiredVerdict v = verify_wired(bin, ArenaTable());
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.why.find("stale event slot"), std::string::npos) << v.why;
}

TEST(VerifyWired, CatchesUseBeforeDef)
{
    ArenaTable table;
    WiredBinary bin = cross_stream_reuse_binary(table);
    // Step 1 now *reads* interval 0 (defined by step 0 on the other
    // stream) instead of overlapping it.
    table.intervals[1].offset = 4096;
    table.uses = {0};
    table.use_begin = {0, 0, 1};
    const WiredVerdict bad = verify_wired(bin, table);
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.why.find("use-before-def"), std::string::npos)
        << bad.why;

    order_step1_after_step0(bin.program);
    const WiredVerdict good = verify_wired(bin, table);
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
    ArenaTable table;
    table.intervals = {i0, i1};
    table.uses = {0};
    table.use_begin = {0, 0, 0, 1};
    const WiredVerdict v = verify_wired(bin, table);
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
    ArenaTable table;
    table.intervals = {i0, i1};
    table.uses = {1};
    table.use_begin = {0, 0, 1};
    const WiredVerdict good = verify_wired(bin, table);
    EXPECT_TRUE(good.ok) << good.why;

    table.intervals[0].last_use_step = 1;
    table.uses = {0, 1};
    table.use_begin = {0, 0, 2};
    const WiredVerdict bad = verify_wired(bin, table);
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

/**
 * Dispatch both paths for one config and assert bit-identity. The
 * lowering proves itself (lower_plan panics on an illegal binary).
 */
void
check_identity(AstraSession& session, const ScheduleConfig& cfg)
{
    const ExecutionPlan plan = session.scheduler().build(cfg);
    const TensorMap& tmap = session.tensor_map(cfg.strategy);
    const GpuConfig gpu = pinned_gpu();
    const DispatchResult generic =
        dispatch_plan(plan, session.graph(), tmap, gpu);
    const WiredBinary bin = lower_plan(plan, session.graph(), tmap, gpu);
    expect_bit_identical(generic, replay_wired(bin, gpu));
}

TEST(ReplayWired, BitIdenticalAcrossZooFusedStreamedProfiled)
{
    // Every configuration on a Bump arena and on a liveness-reuse one:
    // a fault on the first allocation drops the session to the Reuse
    // rung, whose recycled bytes the schedule must already order.
    const ModelKind kinds[] = {ModelKind::Scrnn, ModelKind::MiLstm,
                               ModelKind::SubLstm,
                               ModelKind::StackedLstm, ModelKind::Gnmt};
    for (const MemoryPlanMode mode :
         {MemoryPlanMode::Bump, MemoryPlanMode::Reuse}) {
        for (ModelKind kind : kinds) {
            SCOPED_TRACE(std::string(model_name(kind)) +
                         (mode == MemoryPlanMode::Reuse ? " reuse"
                                                        : " bump"));
            const BuiltModel m = build_model(kind, tiny_config());
            AstraOptions opts;
            opts.gpu = pinned_gpu();
            if (mode == MemoryPlanMode::Reuse) {
                ASSERT_TRUE(
                    FaultPlan::parse("alloc:at=0", &opts.gpu.faults));
            }
            AstraSession session(m.graph(), opts);
            ASSERT_EQ(session.plan_mode(0), mode);
            // Reuse recycles bytes, so lowering has reuses to prove.
            if (mode == MemoryPlanMode::Reuse) {
                EXPECT_LT(session.tensor_map(0).peak_bytes(),
                          graph_tensor_bytes(m.graph()));
            }
            const SearchSpace& space = session.space();

            // Plain: single stream, no fusion.
            ScheduleConfig plain;
            plain.group_chunk.assign(space.groups.size(), 1);
            plain.group_lib.assign(space.groups.size(),
                                   GemmLib::Cublas);
            check_identity(session, plain);

            // Fused + profiled: max chunk per group, every group keyed.
            ScheduleConfig fused = plain;
            for (const FusionGroup& g : space.groups) {
                fused.group_chunk[static_cast<size_t>(g.id)] =
                    g.chunk_options.back();
                fused.group_keys[g.id] =
                    testutil::wirer_key(WirerVariable::GroupChunk, g.id);
            }
            check_identity(session, fused);

            // Streamed + epoch metrics: two streams, every epoch keyed
            // so the barrier-relative readout path is exercised.
            ScheduleConfig streamed = fused;
            streamed.use_streams = true;
            streamed.num_streams = 2;
            const StreamSpace ss =
                session.scheduler().stream_space(streamed);
            for (size_t i = 0; i < ss.epochs.size(); ++i)
                streamed.epoch_keys[{ss.epochs[i].super_epoch,
                                     ss.epochs[i].level}] =
                    testutil::wirer_key(WirerVariable::EpochSplit,
                                        static_cast<int>(i));
            check_identity(session, streamed);
        }
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
    // order, so lowering must prove the overlap legal and replay
    // exactly like a dispatch.
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
    const ArenaTable table = arena_table(plan, m.graph(), tmap);
    int same_step_overlaps = 0;
    for (const ArenaInterval& a : table.intervals)
        for (const ArenaInterval& b : table.intervals)
            same_step_overlaps +=
                &a < &b && a.def_step >= 0 && a.def_step == b.def_step &&
                a.offset < b.offset + b.bytes &&
                b.offset < a.offset + a.bytes;
    ASSERT_GT(same_step_overlaps, 0) << "no intra-step reuse to check";
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
        dispatch_plan(generic.scheduler().build(cfg), m.graph(),
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

    const Scheduler& sched = session.scheduler();
    const auto wired = [&](const ScheduleConfig& c) {
        return sched.wire_cached(c, session.tensor_map(c.strategy),
                                 opts.gpu);
    };

    // Runs of a configuration share the binary cached for it: an equal
    // config gets the same object back after every run.
    const DispatchResult first = session.run(cfg);
    const std::shared_ptr<const WiredBinary> bin = wired(cfg);
    const DispatchResult second = session.run(cfg);
    EXPECT_EQ(first.total_ns, second.total_ns);
    EXPECT_EQ(wired(cfg), bin);

    // A different configuration lowers its own binary, and the first
    // stays cached.
    ScheduleConfig other = cfg;
    other.elementwise_fusion = false;
    session.run(other);
    EXPECT_NE(wired(other), bin);
    EXPECT_EQ(wired(cfg), bin);
}

TEST(CompiledDispatch, WiredCacheKeysEveryPlanField)
{
    // Config equality keys the wired-binary cache: chunking,
    // library, elementwise fusion, streams and an epoch choice must
    // each lower their own binary, and an equal config built
    // separately must get the same binary object back.
    const BuiltModel m = build_model(ModelKind::Scrnn, tiny_config());
    AstraOptions opts;
    opts.gpu = pinned_gpu();
    opts.sched.super_epoch_ns = 150000.0;  // several epochs to choose in
    AstraSession session(m.graph(), opts);
    const SearchSpace& space = session.space();
    const Scheduler& sched = session.scheduler();

    const auto variants = [&] {
        const ScheduleConfig base = testutil::default_config(space);
        ScheduleConfig libbed = base;
        libbed.group_lib.assign(space.groups.size(), GemmLib::Oai1);
        ScheduleConfig unfused = base;
        unfused.elementwise_fusion = false;
        ScheduleConfig streamed = base;
        streamed.use_streams = true;
        streamed.num_streams = 2;
        ScheduleConfig chosen = streamed;
        for (const EpochInfo& e : sched.stream_space(streamed).epochs)
            if (e.options.size() > 1) {
                chosen.epoch_choice[{e.super_epoch, e.level}] = 1;
                break;
            }
        return std::vector<ScheduleConfig>{
            base,     testutil::default_config(space, 3),
            libbed,   unfused,
            streamed, chosen};
    };
    const std::vector<ScheduleConfig> cfgs = variants();
    ASSERT_NE(cfgs[1].group_chunk, cfgs[0].group_chunk);
    ASSERT_FALSE(cfgs[5].epoch_choice.empty());

    std::vector<std::shared_ptr<const WiredBinary>> bins;
    for (const ScheduleConfig& cfg : cfgs)
        bins.push_back(sched.wire_cached(
            cfg, session.tensor_map(cfg.strategy), opts.gpu));
    std::set<const WiredBinary*> distinct;
    for (const auto& bin : bins)
        distinct.insert(bin.get());
    EXPECT_EQ(distinct.size(), cfgs.size());

    const std::vector<ScheduleConfig> again = variants();
    for (size_t i = 0; i < again.size(); ++i)
        EXPECT_EQ(sched.wire_cached(again[i],
                                    session.tensor_map(again[i].strategy),
                                    opts.gpu),
                  bins[i])
            << "variant " << i;
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
        cfg.group_keys[g.id] =
            testutil::wirer_key(WirerVariable::GroupChunk, g.id);
    expect_bit_identical(
        dispatch_plan(session.scheduler().build(cfg), m.graph(),
                      session.tensor_map(cfg.strategy), opts.gpu),
        session.run(cfg));
}

// ---- bound kernel descriptors ---------------------------------------------

using testutil::bound_dump;

TEST(Wired, BoundKernelsArePinned)
{
    // FNV-1a of bound_dump over testutil::pinned_configs at the zoo
    // shape. Scheduler.PaperModelPlansArePinned pins the same plans, so
    // a change here is a change in how a plan binds — descriptor names
    // (read by the fault plan's name= filter and by traces), costs or
    // commands. Update a digest only on purpose.
    const std::pair<ModelKind, const char*> pinned[] = {
        {ModelKind::Gnmt, "1382621bbbbffc54"},
        {ModelKind::StackedLstm, "9646dc2b25dbc1e6"},
        {ModelKind::MiLstm, "cfa0d778351a626b"},
        {ModelKind::Scrnn, "11e300f152b23e1f"},
        {ModelKind::SubLstm, "7b9abf5b0b958642"},
    };
    const GpuConfig gpu = pinned_gpu();
    std::set<std::string> gnmt_names;
    for (const auto& [kind, digest] : pinned) {
        const BuiltModel m = build_model(kind, testutil::zoo_shape());
        const SearchSpace space = enumerate_search_space(m.graph());
        const Scheduler sched(m.graph(), space);
        const testutil::Runner runner(m.graph());
        std::string dumps;
        for (const ScheduleConfig& cfg :
             testutil::pinned_configs(space, sched)) {
            const WiredBinary bin =
                bind_plan(sched.build(cfg), m.graph(), runner.tmap(), gpu,
                          /*profiling=*/true);
            dumps += bound_dump(bin);
            if (kind == ModelKind::Gnmt)
                for (const KernelDesc& k : bin.kernels)
                    gnmt_names.insert(k.name);
        }
        EXPECT_EQ(hash_hex(fnv1a64(dumps)), digest) << model_name(kind);
    }
    // One literal per step kind, so a name-format slip names itself:
    // Single (elementwise and GEMM), FusedGemm, LadderGemm and
    // FusedElementwise.
    for (const char* name :
         {"embedding.%2", "mm.%73.cublas", "fmm.x4.%73.cublas",
          "lmm.x3.%1863.cublas", "few.x3.%75"})
        EXPECT_EQ(gnmt_names.count(name), 1u) << name;
}

}  // namespace
}  // namespace astra

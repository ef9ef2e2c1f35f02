/**
 * @file
 * Gates steady-state replay (runtime/wired.h) against a cold dispatch
 * of the same plan: for every zoo model, a warm AstraSession::run —
 * a replay of the session's cached wired binary — must (a) reproduce
 * dispatch_plan's simulated results bit-exactly — makespan, clock
 * multiplier, device counters and the full profile map — and (b) cut
 * the measured *wall-clock* host enqueue time
 * (DispatchResult::host_enqueue_ns) by at least 2x in aggregate.
 * dispatch_plan binds the plan on every call (dependency
 * analysis, profile keys, kernel descriptors) before walking it, and
 * counts the bind as enqueue time; the replay walks a binary that was
 * bound once at lowering time. Each model is exercised at its densest
 * steady-state configuration (max fusion chunks, every group and
 * epoch profiled, two streams) plus a plain single-stream config, and
 * one recompute-rewritten graph rides along. Exits non-zero on any
 * identity mismatch or if the aggregate speedup falls below 2x, so CI
 * can run it as a check (--smoke shortens the step count).
 */
#include <cstring>
#include <map>
#include <string>

#include "bench/common.h"
#include "autodiff/recompute.h"

using namespace astra;
using namespace astra::bench;

namespace {

/** Steps timed per row (after one untimed warm-up run that lowers). */
int g_steps = 20;

bool
identical(const DispatchResult& a, const DispatchResult& b)
{
    return a.total_ns == b.total_ns &&
           a.clock_multiplier == b.clock_multiplier &&
           a.stats.kernels_launched == b.stats.kernels_launched &&
           a.stats.events_recorded == b.stats.events_recorded &&
           a.stats.busy_sm_ns == b.stats.busy_sm_ns &&
           a.profile_ns == b.profile_ns;
}

struct RowTotals
{
    double dispatch_ns = 0.0;
    double replay_ns = 0.0;
    bool ok = true;
};

/**
 * Time g_steps mini-batches through a cold dispatch_plan of the built
 * plan and a warm session.run over the same graph/config, checking
 * bit-identity of every step pair.
 */
RowTotals
measure(const Graph& graph, const Env& env, const ScheduleConfig& cfg)
{
    AstraOptions opts;
    opts.gpu = env.gpu;
    opts.sched = env.sched;
    // Bit-identity is a base-clock, fault-free property: the two
    // transactions draw independent process-wide autoboost/fault
    // salts, which is exactly the nondeterminism this comparison must
    // exclude.
    opts.gpu.autoboost = false;
    opts.gpu.faults = FaultPlan();
    AstraSession session(graph, opts);

    // Warm the session: the first run builds the plan and lowers and
    // verifies the wired binary. Steady state is what the bench times.
    (void)session.run(cfg);
    const ExecutionPlan plan = session.scheduler().build(cfg);
    const TensorMap& tmap = session.tensor_map(cfg.strategy);

    RowTotals t;
    for (int i = 0; i < g_steps; ++i) {
        const DispatchResult a = dispatch_plan(plan, graph, tmap, opts.gpu);
        const DispatchResult b = session.run(cfg);
        t.dispatch_ns += a.host_enqueue_ns;
        t.replay_ns += b.host_enqueue_ns;
        if (!identical(a, b))
            t.ok = false;
    }
    return t;
}

/** Densest steady-state config: fused, two streams, fully profiled. */
ScheduleConfig
steady_config(const AstraSession& session)
{
    const SearchSpace& space = session.space();
    ScheduleConfig cfg;
    cfg.group_chunk.assign(space.groups.size(), 1);
    cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
    for (const FusionGroup& g : space.groups) {
        cfg.group_chunk[static_cast<size_t>(g.id)] =
            g.chunk_options.back();
        cfg.group_keys[g.id] = ProfileKey(
            0, wirer_variable_id(WirerVariable::GroupChunk, g.id), 0);
    }
    cfg.use_streams = true;
    cfg.num_streams = 2;
    const StreamSpace ss = session.scheduler().stream_space(cfg);
    for (size_t i = 0; i < ss.epochs.size(); ++i)
        cfg.epoch_keys[{ss.epochs[i].super_epoch, ss.epochs[i].level}] =
            ProfileKey(0,
                       wirer_variable_id(WirerVariable::EpochSplit,
                                         static_cast<int>(i)),
                       0);
    return cfg;
}

ScheduleConfig
plain_config(const AstraSession& session)
{
    ScheduleConfig cfg;
    cfg.group_chunk.assign(session.space().groups.size(), 1);
    cfg.group_lib.assign(session.space().groups.size(),
                         GemmLib::Cublas);
    return cfg;
}

}  // namespace

int
main(int argc, char** argv)
{
    init_observability(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            g_steps = 4;

    Env env;
    TextTable table(
        "Micro: cold dispatch (bind + walk) vs warm replay of the "
        "cached wired binary — host enqueue wall time "
        "(gate: bit-identical metrics, aggregate >= 2x)");
    table.set_header({"Model / config", "dispatch us/step",
                      "replay us/step", "speedup", "identical"});

    double dispatch_total = 0.0;
    double replay_total = 0.0;
    bool all_identical = true;
    const auto add_row = [&](const std::string& name,
                             const RowTotals& t) {
        dispatch_total += t.dispatch_ns;
        replay_total += t.replay_ns;
        all_identical = all_identical && t.ok;
        table.add_row(name + (t.ok ? "" : "  [MISMATCH]"),
                      {t.dispatch_ns / g_steps / 1e3,
                       t.replay_ns / g_steps / 1e3,
                       t.dispatch_ns / t.replay_ns, t.ok ? 1.0 : 0.0});
    };

    const ModelKind kinds[] = {ModelKind::Scrnn, ModelKind::MiLstm,
                               ModelKind::SubLstm,
                               ModelKind::StackedLstm, ModelKind::Gnmt};
    for (ModelKind kind : kinds) {
        const BuiltModel model =
            build_model(kind, paper_config(kind, 16));
        AstraOptions opts;
        opts.gpu = env.gpu;
        opts.sched = env.sched;
        const AstraSession probe(model.graph(), opts);
        add_row(model.name + " plain",
                measure(model.graph(), env, plain_config(probe)));
        add_row(model.name + " fused+streamed",
                measure(model.graph(), env, steady_config(probe)));
    }

    // Recompute rewrites restructure the graph (checkpoint segments
    // re-executed in backward); the lowered binary must still match.
    const BuiltModel sub =
        build_model(ModelKind::SubLstm,
                    paper_config(ModelKind::SubLstm, 16));
    const RecomputePlan rp = apply_recompute(sub.graph(), sub.grads);
    {
        AstraOptions opts;
        opts.gpu = env.gpu;
        opts.sched = env.sched;
        const AstraSession probe(rp.graph(), opts);
        add_row(sub.name + " recompute",
                measure(rp.graph(), env, plain_config(probe)));
    }

    table.print();
    const double speedup = dispatch_total / replay_total;
    std::printf("aggregate host-enqueue speedup: %.2fx "
                "(dispatch %.1f us/step, replay %.1f us/step)\n",
                speedup, dispatch_total / g_steps / 1e3,
                replay_total / g_steps / 1e3);
    if (!all_identical) {
        std::printf("FAIL: replay diverged from dispatch_plan\n");
        return 1;
    }
    if (speedup < 2.0) {
        std::printf("FAIL: aggregate speedup %.2fx below the 2x gate\n",
                    speedup);
        return 1;
    }
    return 0;
}

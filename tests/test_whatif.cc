/**
 * @file
 * What-if engine tests (§5.13): host replay must be bit-exact against
 * a real dispatch of the same configuration (that equivalence is what
 * lets the wirer rank candidates without spending mini-batches), a
 * per-key cost substitution on a serial trace must shift the replayed
 * total by exactly the substituted delta, trace serialization must
 * round-trip and reject malformed input with line-precise diagnostics,
 * and the armed wirer must converge to the exhaustive wirer's
 * configuration — deterministically across thread counts, and from a
 * plan-store warm start too — while reporting its what-if counters
 * through JSON and CSV.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/astra.h"
#include "core/plan_store.h"
#include "core/whatif.h"
#include "models/models.h"
#include "runtime/dispatcher.h"
#include "sim/memory.h"

namespace astra {
namespace {

/** Replay exactness is a base-clock, fault-free property. */
GpuConfig
pinned_gpu()
{
    GpuConfig g;
    g.execute_kernels = false;
    g.autoboost = false;
    g.faults = FaultPlan();
    return g;
}

BuiltModel
tiny_model()
{
    return build_model(ModelKind::Scrnn,
                       ModelConfig{.batch = 8, .seq_len = 4,
                                   .hidden = 32, .embed_dim = 32,
                                   .vocab = 50});
}

/** Everything one engine evaluation needs, wired like a StrategyRun. */
struct EngineRig
{
    BuiltModel model = tiny_model();
    SearchSpace space = enumerate_search_space(model.graph());
    Scheduler sched;
    SimMemory mem;
    TensorMap tmap;
    GpuConfig gpu = pinned_gpu();
    WhatIfEngine engine;

    EngineRig()
        : sched(model.graph(), space,
                [] {
                    SchedulerOptions o;
                    o.super_epoch_ns = 400000.0;
                    return o;
                }()),
          mem(graph_tensor_bytes(model.graph()) + (1 << 20), false),
          tmap(model.graph(), mem, space.strategies[0].runs),
          engine(model.graph(), tmap, sched, gpu)
    {
    }

    ScheduleConfig
    config(bool with_streams) const
    {
        ScheduleConfig cfg;
        cfg.strategy = 0;
        cfg.group_chunk.assign(space.groups.size(), 1);
        cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
        for (NodeId id : space.single_mms)
            cfg.single_lib[id] = GemmLib::Cublas;
        // Keyed steps exercise the profile-metric side of the replay.
        if (!space.groups.empty())
            cfg.group_keys[space.groups[0].id] = "t|g0";
        if (!space.single_mms.empty())
            cfg.single_keys[space.single_mms[0]] = "t|s0";
        cfg.use_streams = with_streams;
        return cfg;
    }
};

void
expect_replay_matches_dispatch(const EngineRig& rig,
                               const ScheduleConfig& cfg)
{
    const ReplayResult r = rig.engine.evaluate(cfg);
    const DispatchResult d =
        dispatch_plan(*rig.sched.build_cached(cfg), rig.model.graph(),
                      rig.tmap, rig.gpu);
    EXPECT_EQ(r.total_ns, d.total_ns);
    ASSERT_EQ(r.profile_ns.size(), d.profile_ns.size());
    for (const auto& [key, v] : d.profile_ns) {
        const auto it = r.profile_ns.find(key);
        ASSERT_NE(it, r.profile_ns.end()) << "missing key " << key;
        EXPECT_EQ(v, it->second) << "profile key " << key;
    }
}

// ---- replay exactness ----------------------------------------------------

TEST(WhatIf, SerialReplayBitExactAgainstDispatch)
{
    EngineRig rig;
    expect_replay_matches_dispatch(rig, rig.config(false));
}

TEST(WhatIf, StreamedReplayBitExactAgainstDispatch)
{
    EngineRig rig;
    expect_replay_matches_dispatch(rig, rig.config(true));
}

TEST(WhatIf, CaptureAgreesWithEvaluateAndKeepsSpans)
{
    EngineRig rig;
    const ScheduleConfig cfg = rig.config(false);
    const ReplayResult r = rig.engine.evaluate(cfg);
    const RecordedTrace t = rig.engine.capture(cfg);
    EXPECT_EQ(t.total_ns, r.total_ns);
    EXPECT_EQ(t.profile_ns, r.profile_ns);
    EXPECT_FALSE(t.spans.empty());
    EXPECT_EQ(t.kernels.size(), t.step_keys.size());
}

// ---- per-key cost substitution -------------------------------------------

/**
 * Two pure-serial keyed kernels on one stream: substituting one key
 * must shift the replayed total by exactly the substituted delta
 * (blocks = 0 holds no SMs; launch overheads are identical on both
 * sides and cancel). Durations are chosen large enough that the
 * timeline is device-bound — a host-enqueue-bound trace absorbs kernel
 * deltas into enqueue latency and the property would be vacuous.
 */
TEST(WhatIf, SerialOverrideShiftsTotalByExactDelta)
{
    GraphBuilder b;
    const NodeId x = b.input({4, 4});
    const NodeId a = b.sigmoid(x);
    const NodeId c = b.tanh(a);

    ExecutionPlan plan;
    plan.num_streams = 1;
    PlanStep s0;
    s0.nodes = {a};
    s0.stream = 0;
    s0.profile = true;
    s0.profile_key = "k.a";
    PlanStep s1;
    s1.nodes = {c};
    s1.stream = 0;
    s1.profile = true;
    s1.profile_key = "k.b";
    plan.steps = {s0, s1};

    RecordedTrace trace;
    trace.gpu = pinned_gpu();
    trace.num_streams = 1;
    trace.program = compile_plan(plan, b.graph(), /*profiling=*/true);
    trace.kernels.resize(2);
    trace.step_keys = {"k.a", "k.b"};
    for (size_t i = 0; i < 2; ++i) {
        KernelDesc& k = trace.kernels[i];
        k.name = i == 0 ? "a" : "b";
        k.key = i == 0 ? "k.a" : "k.b";
        k.blocks = 0;
        k.setup_ns = i == 0 ? 100000.0 : 200000.0;
    }

    const ReplayResult base = replay_trace(trace);
    const ReplayResult shifted =
        replay_trace(trace, {{"k.a", 350000.0}});
    EXPECT_EQ(shifted.total_ns - base.total_ns, 250000.0);
    // The untouched key's metric is unchanged bit-for-bit.
    ASSERT_TRUE(base.profile_ns.count("k.b"));
    EXPECT_EQ(shifted.profile_ns.at("k.b"), base.profile_ns.at("k.b"));
}

// ---- trace serialization -------------------------------------------------

TEST(WhatIf, TraceRoundTripsThroughText)
{
    EngineRig rig;
    const RecordedTrace t = rig.engine.capture(rig.config(false));
    const std::string text = trace_to_string(t);

    RecordedTrace back;
    std::string error;
    ASSERT_TRUE(trace_from_string(text, &back, &error)) << error;
    // Canonical form: re-serializing the parse reproduces the text.
    EXPECT_EQ(trace_to_string(back), text);
    // And the parse replays identically to the original record.
    const ReplayResult a = replay_trace(t);
    const ReplayResult b = replay_trace(back);
    EXPECT_EQ(a.total_ns, b.total_ns);
    EXPECT_EQ(a.profile_ns, b.profile_ns);
    EXPECT_EQ(back.total_ns, t.total_ns);
}

TEST(WhatIf, MalformedTracesRejectedWithLineDiagnostics)
{
    EngineRig rig;
    const RecordedTrace t = rig.engine.capture(rig.config(false));
    const std::string text = trace_to_string(t);

    const auto expect_rejected = [](const std::string& bad,
                                    const std::string& what) {
        RecordedTrace out;
        std::string error;
        EXPECT_FALSE(trace_from_string(bad, &out, &error)) << what;
        EXPECT_NE(error.find("line "), std::string::npos)
            << what << ": diagnostic '" << error
            << "' carries no line number";
    };

    expect_rejected("bogus header\n", "wrong magic");
    expect_rejected("", "empty input");
    // Truncation anywhere must be caught, not zero-filled.
    expect_rejected(text.substr(0, text.size() / 2), "truncated body");
    {
        // A hostile count cannot make the reader allocate unbounded.
        std::string bad = text;
        const size_t pos = bad.find("steps ");
        ASSERT_NE(pos, std::string::npos);
        bad.replace(pos, bad.find('\n', pos) - pos,
                    "steps 999999999999");
        expect_rejected(bad, "hostile step count");
    }
    {
        // Step spans must tile the command array exactly once: the
        // replay walks it span by span. Swapping two rising entries
        // keeps both ends and makes one span run backwards.
        const size_t pos = text.find("\nstep_begin ") + 1;
        const size_t end = text.find('\n', pos);
        std::vector<std::string> tok;
        std::istringstream line(text.substr(pos, end - pos));
        for (std::string t; line >> t;)
            tok.push_back(t);
        size_t rise = 2;
        while (rise + 2 < tok.size() && tok[rise] == tok[rise + 1])
            ++rise;
        ASSERT_LT(rise + 2, tok.size()) << "no interior rise to swap";
        std::swap(tok[rise], tok[rise + 1]);
        std::string swapped;
        for (const std::string& t : tok)
            swapped += (swapped.empty() ? "" : " ") + t;
        std::string bad = text;
        bad.replace(pos, end - pos, swapped);
        expect_rejected(bad, "step spans out of order");
    }
    {
        RecordedTrace out;
        std::string error;
        std::string bad = text;
        bad.replace(0, bad.find('\n'), "astra-whatif-trace v2");
        EXPECT_FALSE(trace_from_string(bad, &out, &error));
        EXPECT_NE(error.find("line 1"), std::string::npos)
            << "version mismatch should point at line 1, got: "
            << error;
    }
}

// ---- the armed wirer -----------------------------------------------------

TEST(WhatIf, ArmedWirerMatchesExhaustiveConfigWithFewerMinibatches)
{
    const BuiltModel model = tiny_model();
    AstraOptions opts;
    opts.gpu = pinned_gpu();
    opts.sched.super_epoch_ns = 400000.0;

    AstraSession off_session(model.graph(), opts);
    const WirerResult off = off_session.optimize();
    EXPECT_EQ(off.convergence.whatif_evals, 0);

    opts.whatif.enabled = true;
    AstraSession on_session(model.graph(), opts);
    const WirerResult on = on_session.optimize();

    EXPECT_EQ(config_to_string(on.best_config),
              config_to_string(off.best_config));
    EXPECT_EQ(on.best_ns, off.best_ns);
    EXPECT_GT(on.convergence.whatif_evals, 0);
    EXPECT_GT(on.convergence.measured_configs, 0);
    EXPECT_LT(on.minibatches, off.minibatches);
}

TEST(WhatIf, ArmedWirerDeterministicAcrossThreadCounts)
{
    const BuiltModel model = tiny_model();
    AstraOptions opts;
    opts.gpu = pinned_gpu();
    opts.sched.super_epoch_ns = 400000.0;
    opts.whatif.enabled = true;

    AstraSession serial(model.graph(), opts);
    const WirerResult one = serial.optimize();
    opts.wirer_threads = 4;
    AstraSession fanned(model.graph(), opts);
    const WirerResult four = fanned.optimize();

    EXPECT_EQ(config_to_string(four.best_config),
              config_to_string(one.best_config));
    EXPECT_EQ(four.minibatches, one.minibatches);
    EXPECT_EQ(four.convergence.whatif_evals,
              one.convergence.whatif_evals);
    EXPECT_EQ(four.convergence.measured_configs,
              one.convergence.measured_configs);
}

/**
 * An armed L2 warm start replays the full walk and binds its winner.
 * Skipping options before the walk shifts the co-varied configurations
 * a Parallel stage visits: on this workload it bound a slower config
 * (df15129418bc0375, 4.353758 ms, 118 replays) than the one pinned
 * below.
 */
TEST(WhatIf, ArmedWarmStartKeepsTheUnmaskedWinner)
{
    namespace fs = std::filesystem;
    const fs::path store =
        fs::path(::testing::TempDir()) / "whatif_warm_start_store";
    fs::remove_all(store);
    fs::create_directories(store);

    AstraOptions opts;
    opts.features = features_fk();
    opts.gpu = pinned_gpu();
    opts.whatif.enabled = true;
    opts.wirer_threads = 1;
    opts.plan_store = store.string();
    const auto sublstm = [](int64_t batch) {
        return build_model(ModelKind::SubLstm,
                           ModelConfig{.batch = batch, .seq_len = 10,
                                       .hidden = 512, .embed_dim = 512,
                                       .vocab = 4000});
    };
    const BuiltModel neighbor = sublstm(8);
    AstraSession cold(neighbor.graph(), opts);
    cold.optimize();
    const BuiltModel model = sublstm(12);
    AstraSession warm(model.graph(), opts);
    const WirerResult r = warm.optimize();
    fs::remove_all(store);

    EXPECT_EQ(r.convergence.store_tier, "l2");
    EXPECT_EQ(r.minibatches, 4);
    EXPECT_EQ(r.convergence.whatif_evals, 8);
    EXPECT_EQ(hash_hex(fnv1a64(config_to_string(r.best_config))),
              "e95fda62ec8afde7");
    EXPECT_NEAR(r.best_ns, 4349758.0068, 1e-3);
}

// ---- counter reporting ---------------------------------------------------

TEST(WhatIf, CountersSurfaceInJsonAndCsv)
{
    const BuiltModel model = tiny_model();
    AstraOptions opts;
    opts.gpu = pinned_gpu();
    opts.sched.super_epoch_ns = 400000.0;
    opts.whatif.enabled = true;
    AstraSession session(model.graph(), opts);
    const WirerResult r = session.optimize();
    ASSERT_GT(r.convergence.whatif_evals, 0);

    std::ostringstream js;
    r.convergence.write_json(js);
    const std::string json = js.str();
    EXPECT_NE(json.find("\"whatif_evals\":" +
                        std::to_string(r.convergence.whatif_evals)),
              std::string::npos);
    EXPECT_NE(json.find("\"measured_configs\":" +
                        std::to_string(r.convergence.measured_configs)),
              std::string::npos);

    std::ostringstream csv;
    r.convergence.write_csv(csv);
    const std::string text = csv.str();
    EXPECT_NE(text.find("whatif_evals,measured_configs"),
              std::string::npos);
}

}  // namespace
}  // namespace astra

/**
 * @file
 * What-if engine tests (§5.13): host replay must be bit-exact against
 * a real dispatch of the same configuration (that equivalence is what
 * lets the wirer rank candidates without spending mini-batches), and
 * the armed wirer must converge to the exhaustive wirer's
 * configuration — deterministically across thread counts, and from a
 * plan-store warm start too — while reporting its what-if counters
 * through JSON, each total the sum of its stages.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/astra.h"
#include "core/plan_store.h"
#include "core/whatif.h"
#include "models/models.h"
#include "obs/obs.h"
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
            cfg.group_keys[space.groups[0].id] = ProfileKey(
                0,
                wirer_variable_id(WirerVariable::GroupChunk,
                                  space.groups[0].id),
                0);
        if (!space.single_mms.empty())
            cfg.single_keys[space.single_mms[0]] = ProfileKey(
                0, wirer_variable_id(WirerVariable::SingleLib, 0), 0);
        cfg.use_streams = with_streams;
        return cfg;
    }
};

void
expect_replay_matches_dispatch(const EngineRig& rig,
                               const ScheduleConfig& cfg)
{
    const DispatchResult r = rig.engine.evaluate(cfg);
    const DispatchResult d =
        dispatch_plan(rig.sched.build(cfg), rig.model.graph(), rig.tmap,
                      rig.gpu);
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

TEST(WhatIf, EvaluateOpensOneSpanPerCall)
{
    // evaluate's host time is attributed to its own span, not to the
    // wirer stage that calls it.
    EngineRig rig;
    constexpr int n = 3;
    obs::reset();
    obs::set_enabled(true);
    for (int i = 0; i < n; ++i)
        rig.engine.evaluate(rig.config(i % 2 == 1));
    obs::set_enabled(false);
    const std::vector<obs::Span> spans = obs::host_spans();
    obs::reset();
    EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                            [](const obs::Span& s) {
                                return s.name == "whatif.evaluate";
                            }),
              n);
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
    EXPECT_GT(on.minibatches, 0);
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
}

/**
 * An armed L2 warm start replays the full walk and binds its winner.
 * Skipping options before the walk shifts the co-varied configurations
 * a Parallel stage visits. When the wirer still masked options, the
 * masked walk bound a slower config on this workload (df15129418bc0375,
 * 4.353758 ms, 118 replays) than the unmasked walk then did
 * (4.349758 ms). The masking, its cost predictor and the stored
 * profile statistics the predictor trained on are gone, so that
 * binding was not re-derived once every GEMM came to be tuned by its
 * owner; the unmasked walk now binds the faster config pinned below.
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
    EXPECT_EQ(r.minibatches, 3);
    EXPECT_EQ(r.convergence.whatif_evals, 7);
    EXPECT_EQ(hash_hex(fnv1a64(config_to_string(r.best_config))),
              "a5568bbb286acea7");
    EXPECT_NEAR(r.best_ns, 4151987.4207, 1e-3);
}

// ---- counter reporting ---------------------------------------------------

TEST(WhatIf, CountersSurfaceInJson)
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
}

TEST(WhatIf, ReportedCountersAreTheSumOfStageCounters)
{
    // Every replay and mini-batch belongs to one stage, so each total
    // in the report is the sum of its stage rows.
    const BuiltModel model = tiny_model();
    AstraOptions opts;
    opts.gpu = pinned_gpu();
    opts.sched.super_epoch_ns = 400000.0;
    opts.whatif.enabled = true;
    AstraSession session(model.graph(), opts);
    const WirerResult r = session.optimize();
    ASSERT_GT(r.convergence.whatif_evals, 0);

    int64_t evals = 0;
    int64_t trials = 0;
    for (const ConvergenceEpoch& e : r.convergence.epochs) {
        evals += e.whatif_evals;
        trials += e.trials;
    }
    EXPECT_EQ(r.convergence.whatif_evals, evals);
    EXPECT_EQ(r.convergence.minibatches, trials);
    EXPECT_EQ(r.minibatches, trials);
}

}  // namespace
}  // namespace astra

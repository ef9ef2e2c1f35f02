/**
 * @file
 * Cross-model property sweeps (parameterized): the value-preservation
 * invariant over the whole model zoo, cycle repair under adversarial
 * fusion structure, exploration determinism, and simulator
 * conservation laws.
 */
#include <gtest/gtest.h>

#include "core/astra.h"
#include "models/data.h"
#include "models/models.h"
#include "runtime/dispatcher.h"
#include "runtime/native.h"
#include "tests/util.h"

namespace astra {
namespace {

class ZooValuePreservation : public ::testing::TestWithParam<ModelKind>
{};

TEST_P(ZooValuePreservation, AstraBestMatchesNativeBitExactly)
{
    ModelConfig cfg;
    cfg.batch = 4;
    cfg.seq_len = 3;
    cfg.hidden = 16;
    cfg.embed_dim = 16;
    cfg.vocab = 20;
    const BuiltModel m = build_model(GetParam(), cfg);

    AstraOptions opts;
    opts.features = features_all();
    opts.gpu.execute_kernels = true;
    opts.sched.super_epoch_ns = 100000.0;
    AstraSession session(m.graph(), opts);
    const WirerResult r = session.optimize();

    const TensorMap& tuned = session.tensor_map(r.best_config.strategy);
    Rng rng(77);
    bind_all(m.graph(), tuned, rng);
    session.run(r.best_config);
    const float tuned_loss = tuned.f32(m.loss)[0];

    testutil::Runner native(m.graph());
    Rng rng2(77);
    bind_all(m.graph(), native.tmap(), rng2);
    native.run_native();
    EXPECT_EQ(native.scalar(m.loss), tuned_loss)
        << model_name(GetParam());

    // Gradients too: training trajectories stay identical.
    for (const auto& [param, grad] : m.grads.param_grads) {
        (void)param;
        const float* a = native.tmap().f32(grad);
        const float* b = tuned.f32(grad);
        const int64_t numel = m.graph().node(grad).desc.shape.numel();
        for (int64_t i = 0; i < numel; ++i)
            ASSERT_EQ(a[i], b[i]) << model_name(GetParam())
                                  << " grad %" << grad << "[" << i
                                  << "]";
    }
}

INSTANTIATE_TEST_SUITE_P(Zoo, ZooValuePreservation,
                         ::testing::Values(ModelKind::Scrnn,
                                           ModelKind::MiLstm,
                                           ModelKind::SubLstm,
                                           ModelKind::StackedLstm,
                                           ModelKind::Rhn,
                                           ModelKind::AttnLstm),
                         [](const auto& info) {
                             std::string n = model_name(info.param);
                             std::erase(n, '-');
                             std::erase(n, '+');
                             return n;
                         });

TEST(CycleRepair, InterlockedGroupsStillSchedule)
{
    // Two fusion groups whose members feed each other crosswise: a1
    // feeds b1 while b2 feeds a2. Contracting both maximally is
    // cyclic; the scheduler must repair by shrinking chunks, not die.
    GraphBuilder b;
    const NodeId x = b.input({4, 8});
    NodeId a1, a2, b1, b2;
    {
        GraphBuilder::Scoped s(b, "ga");
        a1 = b.matmul(x, b.param({8, 8}));
    }
    {
        GraphBuilder::Scoped s(b, "gb");
        b1 = b.matmul(b.sigmoid(a1), b.param({8, 8}));
        b2 = b.matmul(x, b.param({8, 8}));
    }
    {
        GraphBuilder::Scoped s(b, "ga");
        a2 = b.matmul(b.sigmoid(b2), b.param({8, 8}));
    }
    b.graph().mark_output(b1);
    b.graph().mark_output(a2);

    const SearchSpace space = enumerate_search_space(b.graph());
    const Scheduler sched(b.graph(), space);
    ScheduleConfig cfg;
    cfg.group_chunk.assign(space.groups.size(), 1);
    cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
    for (const FusionGroup& g : space.groups)
        cfg.group_chunk[static_cast<size_t>(g.id)] =
            g.chunk_options.back();
    // Must not panic; must cover everything exactly once, in order.
    const auto units = sched.build_units(cfg);
    std::set<NodeId> covered;
    for (const PlanStep& u : units)
        for (NodeId id : u.nodes) {
            EXPECT_FALSE(covered.count(id));
            covered.insert(id);
        }
    for (const Node& n : b.graph().nodes())
        if (!op_is_source(n.kind)) {
            EXPECT_TRUE(covered.count(n.id));
        }
}

TEST(Determinism, ExplorationIsFullyReproducible)
{
    const BuiltModel m =
        build_model(ModelKind::SubLstm,
                    {.batch = 8, .seq_len = 4, .hidden = 32,
                     .embed_dim = 32, .vocab = 50});
    auto run = [&] {
        AstraOptions opts;
        opts.gpu.execute_kernels = false;
        // Reproducibility is a base-clock property (§4.1): autoboost
        // deliberately breaks it, so pin it off for the CI noise job.
        opts.gpu.autoboost = false;
        AstraSession session(m.graph(), opts);
        return session.optimize();
    };
    const WirerResult a = run();
    const WirerResult c = run();
    EXPECT_EQ(a.minibatches, c.minibatches);
    EXPECT_DOUBLE_EQ(a.best_ns, c.best_ns);
    EXPECT_EQ(a.profile, c.profile);
}

TEST(Conservation, BusySmTimeNeverExceedsPoolCapacity)
{
    const BuiltModel m =
        build_model(ModelKind::Scrnn,
                    {.batch = 8, .seq_len = 4, .hidden = 64,
                     .embed_dim = 64, .vocab = 100});
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    AstraSession session(m.graph(), opts);
    const DispatchResult r = session.run_native();
    EXPECT_LE(r.stats.busy_sm_ns,
              r.total_ns * opts.gpu.num_sms * (1.0 + 1e-9));
    EXPECT_GT(r.stats.busy_sm_ns, 0.0);
    EXPECT_EQ(r.stats.kernels_launched,
              static_cast<int64_t>(native_plan(m.graph()).steps.size()));
}

TEST(Conservation, StreamsNeverChangeTotalWork)
{
    // Same configuration with 1 vs 2 streams: identical kernel count
    // and identical busy-SM integral (streams move work, not create it).
    const BuiltModel m =
        build_model(ModelKind::Scrnn,
                    {.batch = 8, .seq_len = 4, .hidden = 64,
                     .embed_dim = 64, .vocab = 100});
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    // The two dispatches would see different DVFS draws; the invariant
    // is about work, so pin the clock.
    opts.gpu.autoboost = false;
    AstraSession session(m.graph(), opts);
    ScheduleConfig cfg;
    cfg.group_chunk.assign(session.space().groups.size(), 1);
    cfg.group_lib.assign(session.space().groups.size(),
                         GemmLib::Cublas);
    const DispatchResult serial = session.run(cfg);
    cfg.use_streams = true;
    const DispatchResult streamed = session.run(cfg);
    EXPECT_NEAR(serial.stats.busy_sm_ns, streamed.stats.busy_sm_ns,
                serial.stats.busy_sm_ns * 1e-9);
}

}  // namespace
}  // namespace astra

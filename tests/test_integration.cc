/**
 * @file
 * End-to-end integration tests: the whole Astra stack on real models —
 * value-preserving exploration while training makes progress (the
 * paper's work-conservation claim), bucketed dynamic-shape handling
 * (§5.5), and profiling-overhead accounting (§6.4).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/astra.h"
#include "core/bucketed.h"
#include "models/data.h"
#include "models/models.h"
#include "runtime/native.h"

namespace astra {
namespace {

TEST(Integration, TrainingProgressesDuringExploration)
{
    // Work conservation (§4.2): the exploration mini-batches are real
    // training steps. We train on one fixed batch while Astra
    // explores; the loss after exploration must be well below the
    // starting loss, and every explored configuration must produce
    // value-identical results (checked implicitly: SGD diverges fast
    // if any configuration computes wrong gradients).
    const BuiltModel m =
        build_model(ModelKind::Scrnn,
                    {.batch = 4, .seq_len = 3, .hidden = 16,
                     .embed_dim = 16, .vocab = 20});
    AstraOptions opts;
    opts.features = features_all();
    opts.gpu.execute_kernels = true;
    AstraSession session(m.graph(), opts);

    Rng rng(7);
    // Params must exist in every strategy's memory; bind lazily.
    std::vector<bool> bound(session.space().strategies.size(), false);
    std::vector<float> first_loss(session.space().strategies.size(),
                                  -1.0f);
    const WirerResult r = session.optimize(
        [&](const TensorMap& tmap, int64_t) {
            // Identify the strategy by its tensor map address.
            for (size_t s = 0; s < bound.size(); ++s) {
                if (&session.tensor_map(static_cast<int>(s)) != &tmap)
                    continue;
                if (!bound[s]) {
                    Rng fresh(7);
                    bind_all(m.graph(), tmap, fresh);
                    bound[s] = true;
                } else {
                    // SGD on the gradients of the previous mini-batch.
                    apply_sgd(m.graph(), tmap, m.grads.param_grads,
                              0.3f);
                }
            }
        });
    EXPECT_GT(r.minibatches, 20);

    // After exploration, the winning strategy's parameters have been
    // trained the whole time.
    const TensorMap& best_map =
        session.tensor_map(r.best_config.strategy);
    const DispatchResult final = session.run(r.best_config);
    (void)final;
    const float trained_loss = best_map.f32(m.loss)[0];
    ASSERT_TRUE(std::isfinite(trained_loss));

    // Reference: untrained loss on the same data.
    SimMemory mem(graph_tensor_bytes(m.graph()) + (1 << 20));
    TensorMap fresh_map(m.graph(), mem);
    Rng fresh(7);
    bind_all(m.graph(), fresh_map, fresh);
    GpuConfig gcfg;
    dispatch_plan(native_plan(m.graph()), m.graph(), fresh_map, gcfg);
    const float untrained_loss = fresh_map.f32(m.loss)[0];
    EXPECT_LT(trained_loss, untrained_loss * 0.8f);
}

TEST(Integration, ExploredBestMatchesNativeValues)
{
    // Strict end-to-end value preservation: run the full exploration,
    // then compare the best configuration's outputs bit-for-bit
    // against the native dispatch on identical data.
    const BuiltModel m =
        build_model(ModelKind::MiLstm,
                    {.batch = 4, .seq_len = 3, .hidden = 16,
                     .embed_dim = 16, .vocab = 20});
    AstraOptions opts;
    opts.features = features_all();
    opts.gpu.execute_kernels = true;
    AstraSession session(m.graph(), opts);
    const WirerResult r = session.optimize();

    const TensorMap& tmap = session.tensor_map(r.best_config.strategy);
    Rng rng(55);
    bind_all(m.graph(), tmap, rng);
    session.run(r.best_config);
    const float astra_loss = tmap.f32(m.loss)[0];

    SimMemory mem(graph_tensor_bytes(m.graph()) + (1 << 20));
    TensorMap native_map(m.graph(), mem);
    Rng rng2(55);
    bind_all(m.graph(), native_map, rng2);
    GpuConfig gcfg;
    dispatch_plan(native_plan(m.graph()), m.graph(), native_map, gcfg);
    EXPECT_EQ(astra_loss, native_map.f32(m.loss)[0]);
}

TEST(Integration, ProfilingOverheadBelowHalfPercent)
{
    // §6.4: "The overhead of our profiling is <0.5% for all the models
    // evaluated. Hence it can be always on."
    const BuiltModel m =
        build_model(ModelKind::SubLstm,
                    {.batch = 8, .seq_len = 6, .hidden = 64,
                     .embed_dim = 64, .vocab = 100});
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    AstraSession session(m.graph(), opts);
    const SearchSpace& space = session.space();

    ScheduleConfig cfg;
    cfg.group_chunk.assign(space.groups.size(), 1);
    cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
    const double plain = session.run(cfg).total_ns;

    // Same configuration with every group profiled.
    ScheduleConfig profiled = cfg;
    for (const FusionGroup& g : space.groups)
        profiled.group_keys[g.id] = ProfileKey(
            0, wirer_variable_id(WirerVariable::GroupChunk, g.id), 0);
    const double instrumented = session.run(profiled).total_ns;
    EXPECT_LT((instrumented - plain) / plain, 0.005);
}

TEST(Integration, BucketedAstraHandlesDynamicShapes)
{
    // §5.5 / Table 8: bucket the input lengths, explore per bucket,
    // serve each true length from the smallest covering bucket.
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    // Asserts exact per-bucket time reproduction: a base-clock property.
    opts.gpu.autoboost = false;
    opts.features = features_fk();
    BucketedAstra bucketed(
        {4, 6, 8},
        [](GraphBuilder& b, int length) {
            ModelConfig cfg;
            cfg.batch = 8;
            cfg.seq_len = length;
            cfg.hidden = 32;
            cfg.embed_dim = 32;
            cfg.vocab = 50;
            BuiltModel m = build_model(ModelKind::Scrnn, cfg);
            b = std::move(*m.builder);
        },
        opts);
    const int64_t total = bucketed.optimize();
    EXPECT_GT(total, 0);

    EXPECT_EQ(bucketed.bucket_for(3), 0);
    EXPECT_EQ(bucketed.bucket_for(4), 0);
    EXPECT_EQ(bucketed.bucket_for(5), 1);
    EXPECT_EQ(bucketed.bucket_for(8), 2);
    EXPECT_EQ(bucketed.bucket_for(99), 2);  // clamp to largest

    // A length-5 batch pays for the length-6 bucket.
    EXPECT_DOUBLE_EQ(bucketed.step_ns(5), bucketed.step_ns(6));
    // Longer buckets cost more.
    EXPECT_LT(bucketed.step_ns(4), bucketed.step_ns(8));
}

TEST(Integration, BucketForWarnsOnceOnOverflowClamp)
{
    // Clamping into the last bucket truncates tokens on a real serving
    // path; the condition must be loud, but exactly once per instance
    // so a skewed length distribution can't flood the log.
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.features = features_fk();
    BucketedAstra bucketed({4, 6, 8}, [](GraphBuilder&, int) {}, opts);

    testing::internal::CaptureStderr();
    EXPECT_EQ(bucketed.bucket_for(99), 2);
    const std::string first = testing::internal::GetCapturedStderr();
    EXPECT_NE(first.find("exceeds largest bucket"), std::string::npos);

    testing::internal::CaptureStderr();
    EXPECT_EQ(bucketed.bucket_for(100), 2);  // still clamps, silently
    EXPECT_EQ(bucketed.bucket_for(5), 1);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Integration, BucketOverflowsAreTalliedAndReportable)
{
    // The warn-once log line above is easy to lose in a long serving
    // run; every clamp must also land in a queryable tally so the
    // operator can see "how many batches were truncated".
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.features = features_fk();
    BucketedAstra bucketed(
        {4, 6, 8},
        [](GraphBuilder& b, int length) {
            ModelConfig cfg;
            cfg.batch = 8;
            cfg.seq_len = length;
            cfg.hidden = 16;
            cfg.embed_dim = 16;
            cfg.vocab = 20;
            BuiltModel m = build_model(ModelKind::Scrnn, cfg);
            b = std::move(*m.builder);
        },
        opts);
    EXPECT_EQ(bucketed.overflow_count(), 0);
    EXPECT_EQ(bucketed.bucket_for(9), 2);
    EXPECT_EQ(bucketed.bucket_for(99), 2);
    EXPECT_EQ(bucketed.bucket_for(8), 2);  // exact fit: not an overflow
    EXPECT_EQ(bucketed.overflow_count(), 2);
}

TEST(Integration, AutoboostDegradesAdaptationQuality)
{
    // §7: predictable execution is a hardware requirement. With boost
    // jitter on, repeated runs of the same config disagree.
    const BuiltModel m =
        build_model(ModelKind::Scrnn,
                    {.batch = 8, .seq_len = 4, .hidden = 32,
                     .embed_dim = 32, .vocab = 50});
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.gpu.autoboost = true;
    AstraSession session(m.graph(), opts);
    ScheduleConfig cfg;
    cfg.group_chunk.assign(session.space().groups.size(), 1);
    cfg.group_lib.assign(session.space().groups.size(),
                         GemmLib::Cublas);
    const double t1 = session.run(cfg).total_ns;
    const double t2 = session.run(cfg).total_ns;
    EXPECT_NE(t1, t2);
}

}  // namespace
}  // namespace astra

/**
 * @file
 * Facade- and robustness-level tests: the AstraSession public API,
 * wider stream counts, builder misuse diagnostics, and failure
 * injection (a schedule with a missing dependency must produce wrong
 * values — the property that makes the value tests meaningful).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/astra.h"
#include "models/data.h"
#include "models/models.h"
#include "sim/gpu.h"
#include "tensor/math.h"

namespace astra {
namespace {

BuiltModel
tiny()
{
    return build_model(ModelKind::Scrnn,
                       {.batch = 4, .seq_len = 3, .hidden = 16,
                        .embed_dim = 16, .vocab = 20});
}

TEST(AstraSession, AutoSizesDeviceMemoryPerStrategy)
{
    const BuiltModel m = tiny();
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    AstraSession session(m.graph(), opts);
    for (size_t s = 0; s < session.space().strategies.size(); ++s) {
        const TensorMap& tmap = session.tensor_map(static_cast<int>(s));
        // Every node is addressable.
        for (const Node& n : m.graph().nodes())
            EXPECT_GE(tmap.ptr(n.id), 0);
        // Strategy runs are realized as physical adjacency.
        for (const AdjacencyRun& run :
             session.space().strategies[s].runs)
            EXPECT_TRUE(tmap.adjacent(run.members));
    }
}

TEST(AstraSession, RunNativeMatchesDispatchEveryTime)
{
    const BuiltModel m = tiny();
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.gpu.autoboost = false;  // repeatability is a base-clock property
    AstraSession session(m.graph(), opts);
    const double a = session.run_native().total_ns;
    const double b = session.run_native().total_ns;
    EXPECT_DOUBLE_EQ(a, b);  // deterministic device, same plan
}

TEST(AstraSession, ExplicitHbmBytesHonored)
{
    const BuiltModel m = tiny();
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.hbm_bytes = 64 << 20;
    AstraSession session(m.graph(), opts);
    EXPECT_GE(session.tensor_map(0).memory().capacity(), 64 << 20);
}

TEST(AstraSession, WorksOnRhn)
{
    const BuiltModel m =
        build_model(ModelKind::Rhn,
                    {.batch = 8, .seq_len = 4, .hidden = 32,
                     .embed_dim = 32, .vocab = 40});
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    AstraSession session(m.graph(), opts);
    const double native = session.run_native().total_ns;
    const WirerResult r = session.optimize();
    EXPECT_LT(r.best_ns, native);
    EXPECT_GT(session.space().groups.size(), 0u);
}

TEST(AstraSession, ConfigFitsRejectsConfigsForeignToTheSession)
{
    // astra_cli checks every loaded config with config_fits before
    // run(); a strategy index past the session's used to abort in
    // tensor_map().
    const BuiltModel m = tiny();
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.plan_store.clear();
    AstraSession session(m.graph(), opts);
    const SearchSpace& space = session.space();
    std::string why;

    const WirerResult r = session.optimize();
    EXPECT_TRUE(session.config_fits(r.best_config, &why)) << why;

    ScheduleConfig streamed;
    streamed.group_chunk.assign(space.groups.size(), 1);
    streamed.group_lib.assign(space.groups.size(), GemmLib::Cublas);
    streamed.use_streams = true;
    EXPECT_TRUE(session.config_fits(streamed, &why)) << why;

    const auto rejects = [&](const ScheduleConfig& cfg,
                             const std::string& reason) {
        std::string w;
        EXPECT_FALSE(session.config_fits(cfg, &w)) << reason;
        EXPECT_NE(w.find(reason), std::string::npos) << w;
    };
    ScheduleConfig bad = streamed;
    bad.strategy = static_cast<int>(space.strategies.size()) + 4;
    rejects(bad, "strategy out of range");
    bad = streamed;
    bad.strategy = -1;
    rejects(bad, "strategy out of range");
    bad = streamed;
    bad.group_chunk.push_back(1);
    rejects(bad, "group count mismatch");
    bad = streamed;
    bad.num_streams = 0;
    rejects(bad, "num_streams");
    bad = streamed;
    bad.epoch_choice[{0, 0}] = 1000;
    rejects(bad, "epoch choice");
    bad = streamed;
    bad.epoch_choice[{1000, 0}] = 0;
    rejects(bad, "epoch choice");
    for (const FusionGroup& g : space.groups)
        if (space.strategies[0].group_enabled[static_cast<size_t>(g.id)]) {
            bad = streamed;
            bad.group_chunk[static_cast<size_t>(g.id)] = 1000;
            rejects(bad, "chunk 1000 not offered");
            break;
        }
}

TEST(Scheduler, FourStreamPlansAreValidAndValuePreserving)
{
    const BuiltModel m = tiny();
    AstraOptions opts;
    opts.gpu.execute_kernels = true;
    opts.num_streams = 4;
    opts.sched.super_epoch_ns = 100000.0;
    AstraSession session(m.graph(), opts);

    Rng rng(3);
    bind_all(m.graph(), session.tensor_map(0), rng);
    session.run_native();
    const float expect = session.tensor_map(0).f32(m.loss)[0];

    const WirerResult r = session.optimize();
    EXPECT_LE(r.best_config.num_streams, 4);
    session.run(r.best_config);
    const TensorMap& best =
        session.tensor_map(r.best_config.strategy);
    Rng rng2(3);
    bind_all(m.graph(), best, rng2);
    session.run(r.best_config);
    EXPECT_EQ(best.f32(m.loss)[0], expect);
}

TEST(FailureInjection, MissingSyncReadsStaleData)
{
    // The property the whole value-test suite rests on: if a schedule
    // launches a consumer on another stream WITHOUT waiting for its
    // producer, the consumer reads stale data — like a real race.
    GpuConfig cfg;
    SimGpu gpu(cfg);
    const StreamId s1 = gpu.create_stream();

    std::vector<float> buf_a(16, 0.0f);
    std::vector<float> buf_b(16, -1.0f);

    KernelDesc producer;
    producer.name = "producer";
    producer.blocks = 10;
    producer.block_ns = 5000.0;
    producer.compute = [&] {
        for (auto& v : buf_a)
            v = 7.0f;
    };
    KernelDesc consumer;
    consumer.name = "consumer";
    consumer.blocks = 10;
    consumer.block_ns = 1000.0;
    consumer.compute = [&] {
        for (size_t i = 0; i < buf_b.size(); ++i)
            buf_b[i] = buf_a[i] * 2.0f;
    };
    // No wait_event between them, and the consumer is even enqueued
    // first: it begins executing before the producer has run.
    gpu.launch(s1, std::move(consumer));
    gpu.launch(0, std::move(producer));
    gpu.synchronize();
    // The consumer observed the pre-producer value of buf_a.
    EXPECT_EQ(buf_b[0], 0.0f);
}

TEST(BuilderMisuse, ShapeMismatchDies)
{
    GraphBuilder b;
    const NodeId x = b.input({2, 3});
    const NodeId w = b.param({4, 5});
    EXPECT_DEATH(b.matmul(x, w), "inner dims");
    const NodeId y = b.input({3, 3});
    EXPECT_DEATH(b.add(x, y), "elementwise shape mismatch");
    EXPECT_DEATH(b.slice(x, 2, 5), "slice out of range");
    EXPECT_DEATH(b.pop_scope(), "pop_scope without");
}

TEST(BuilderMisuse, CrossEntropyLabelCountMismatchDies)
{
    GraphBuilder b;
    const NodeId logits = b.input({4, 10});
    const NodeId labels = b.input_ids(3, 10);
    EXPECT_DEATH(b.cross_entropy(logits, labels), "one label");
}

}  // namespace
}  // namespace astra

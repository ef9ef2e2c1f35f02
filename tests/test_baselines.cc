/**
 * @file
 * Baseline tests: the cuDNN-style compound path (coverage, value
 * equivalence, speedup over native at small batch) and the XLA-like
 * static optimizer (fusion without measurement, the embedding
 * host-sync pathology of §6.6).
 */
#include <gtest/gtest.h>

#include "baselines/cudnn.h"
#include "baselines/xla.h"
#include "models/data.h"
#include "models/models.h"
#include "tests/util.h"

namespace astra {
namespace {

using testutil::Runner;

BuiltModel
lstm_model(int64_t batch, int64_t hidden, bool embedding = true)
{
    ModelConfig cfg;
    cfg.batch = batch;
    cfg.seq_len = 4;
    cfg.hidden = hidden;
    cfg.embed_dim = hidden;
    cfg.vocab = 60;
    cfg.layers = 2;
    cfg.include_embedding = embedding;
    return build_model(ModelKind::StackedLstm, cfg);
}

TEST(Cudnn, PlanAbsorbsRecurrentLayers)
{
    const BuiltModel m = lstm_model(8, 32);
    GpuConfig cfg;
    const ExecutionPlan plan =
        cudnn_plan(m.graph(), m.cudnn_layers, cfg);
    int compound = 0;
    size_t compound_nodes = 0;
    for (const PlanStep& s : plan.steps)
        if (s.kind == StepKind::CompoundRnn) {
            ++compound;
            compound_nodes += s.nodes.size();
        }
    // One forward + one backward compound per layer.
    EXPECT_EQ(compound, 4);
    // The compound kernels absorb the bulk of the graph.
    EXPECT_GT(compound_nodes, static_cast<size_t>(m.graph().size()) / 2);
}

TEST(Cudnn, ValuesMatchNative)
{
    const BuiltModel m = lstm_model(4, 16);
    Runner native(m.graph());
    Rng rng(31);
    bind_all(m.graph(), native.tmap(), rng);
    native.run_native();

    Runner compound(m.graph());
    Rng rng2(31);
    bind_all(m.graph(), compound.tmap(), rng2);
    compound.run(cudnn_plan(m.graph(), m.cudnn_layers,
                            compound.config()));
    EXPECT_EQ(testutil::max_abs_diff(native.values(m.loss),
                                     compound.values(m.loss)), 0.0);
}

TEST(Cudnn, MuchFasterThanNativeAtSmallBatch)
{
    // §2.4: hand-optimized compound kernels are up to ~6x faster than
    // the launch-bound native dispatch for recurrent layers.
    const BuiltModel m = lstm_model(8, 64);
    Runner r(m.graph());
    r.config().execute_kernels = false;
    const double native = r.run_native().total_ns;
    const double cudnn =
        r.run(cudnn_plan(m.graph(), m.cudnn_layers, r.config()))
            .total_ns;
    EXPECT_GT(native / cudnn, 2.0);
}

TEST(Cudnn, OddHiddenSizeHurts)
{
    // PTB-large's hidden size of 1500 is tiling-hostile (Table 5's
    // explanation for Astra beating cuDNN).
    const BuiltModel aligned = lstm_model(32, 512);
    const BuiltModel odd = lstm_model(32, 500);
    Runner ra(aligned.graph());
    ra.config().execute_kernels = false;
    Runner ro(odd.graph());
    ro.config().execute_kernels = false;
    // Cross-run time comparison: pin the clock so tiling, not DVFS,
    // is the difference being measured.
    ra.config().autoboost = false;
    ro.config().autoboost = false;
    const double ta =
        ra.run(cudnn_plan(aligned.graph(), aligned.cudnn_layers,
                          ra.config())).total_ns;
    const double to =
        ro.run(cudnn_plan(odd.graph(), odd.cudnn_layers, ro.config()))
            .total_ns;
    // The odd model does *less* math (60 < 64) yet runs slower.
    EXPECT_GT(to, ta);
}

TEST(Cudnn, PerStepScopesDoNotClaimLaterTimesteps)
{
    // GNMT's decoder runs per step: scope "dec0/t1" must not claim the
    // nodes of "dec0/t10". At seq 11 such a merge tied t1 and t10 into
    // one compound step and the steps formed a cycle.
    ModelConfig cfg;
    cfg.batch = 4;
    cfg.seq_len = 11;
    cfg.hidden = 16;
    cfg.embed_dim = 16;
    cfg.vocab = 60;
    const BuiltModel m = build_model(ModelKind::Gnmt, cfg);
    GpuConfig gpu;
    const ExecutionPlan plan = cudnn_plan(m.graph(), m.cudnn_layers, gpu);

    int per_step = 0;
    for (const PlanStep& s : plan.steps) {
        if (s.kind != StepKind::CompoundRnn ||
            s.compound_name.rfind("cudnn_rnn.dec", 0) != 0)
            continue;
        ++per_step;
        // "cudnn_rnn.<scope>.fwd|.bwd": every node sits in that scope.
        const std::string scope = s.compound_name.substr(
            10, s.compound_name.rfind('.') - 10);
        for (NodeId id : s.nodes) {
            const std::string& ns = m.graph().node(id).scope;
            EXPECT_TRUE(ns == scope || ns.rfind(scope + "/", 0) == 0)
                << ns << " claimed by " << s.compound_name;
        }
    }
    // Four decoder layers x 11 steps x forward and backward.
    EXPECT_EQ(per_step, 4 * 11 * 2);
}

TEST(Xla, StaticPlanFusesWithoutMeasurement)
{
    const BuiltModel m = lstm_model(8, 32, /*embedding=*/false);
    const SearchSpace space = enumerate_search_space(m.graph());
    const ExecutionPlan plan = xla_plan(m.graph(), space);
    int ew_fused = 0, gemm_fused = 0;
    for (const PlanStep& s : plan.steps) {
        ew_fused += s.kind == StepKind::FusedElementwise;
        gemm_fused += s.kind == StepKind::FusedGemm ||
                      s.kind == StepKind::LadderGemm;
    }
    // Era-accurate XLA: loop/elementwise fusion yes, GEMM batching no.
    EXPECT_GT(ew_fused, 0);
    EXPECT_EQ(gemm_fused, 0);
    // Static = single stream, default library everywhere.
    for (const PlanStep& s : plan.steps) {
        EXPECT_EQ(s.stream, 0);
        EXPECT_EQ(s.lib, GemmLib::Cublas);
    }
}

TEST(Xla, ValuesMatchNative)
{
    const BuiltModel m = lstm_model(4, 16, /*embedding=*/false);
    const SearchSpace space = enumerate_search_space(m.graph());
    Runner native(m.graph());
    Rng rng(41);
    bind_all(m.graph(), native.tmap(), rng);
    native.run_native();

    Runner xla(m.graph(), space.strategies[0].runs);
    Rng rng2(41);
    bind_all(m.graph(), xla.tmap(), rng2);
    xla.run(xla_plan(m.graph(), space));
    EXPECT_EQ(native.scalar(m.loss), xla.scalar(m.loss));
}

TEST(Xla, HelpsWithoutEmbeddings)
{
    const BuiltModel m = lstm_model(8, 32, /*embedding=*/false);
    const SearchSpace space = enumerate_search_space(m.graph());
    Runner r(m.graph(), space.strategies[0].runs);
    r.config().execute_kernels = false;
    const double native = r.run_native().total_ns;
    const double xla = r.run(xla_plan(m.graph(), space)).total_ns;
    EXPECT_LT(xla, native);
}

TEST(Xla, EmbeddingPathologyMakesItWorseThanNative)
{
    // §6.6: "the XLA implementation was *worse* than native for many
    // of the models ... because XLA handles embeddings poorly" (3x
    // worse for SC-RNN, whose per-step compute is small relative to
    // the per-step lookup).
    ModelConfig scrnn_cfg;
    scrnn_cfg.batch = 8;
    scrnn_cfg.seq_len = 6;
    scrnn_cfg.hidden = 32;
    scrnn_cfg.embed_dim = 32;
    scrnn_cfg.vocab = 60;
    const BuiltModel m = build_model(ModelKind::Scrnn, scrnn_cfg);
    const SearchSpace space = enumerate_search_space(m.graph());
    Runner r(m.graph(), space.strategies[0].runs);
    r.config().execute_kernels = false;
    const double native = r.run_native().total_ns;
    const double xla = r.run(xla_plan(m.graph(), space)).total_ns;
    EXPECT_GT(xla, native);
}

TEST(Xla, PenaltyOnlyOnEmbeddingSteps)
{
    const BuiltModel m = lstm_model(4, 16, /*embedding=*/true);
    const SearchSpace space = enumerate_search_space(m.graph());
    const ExecutionPlan plan = xla_plan(m.graph(), space);
    for (const PlanStep& s : plan.steps) {
        if (s.extra_setup_ns > 0.0) {
            ASSERT_EQ(s.nodes.size(), 1u);
            const OpKind k = m.graph().node(s.nodes[0]).kind;
            EXPECT_TRUE(k == OpKind::Embedding ||
                        k == OpKind::EmbeddingGrad);
        }
    }
}

}  // namespace
}  // namespace astra

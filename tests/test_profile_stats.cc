/**
 * @file
 * Tests for the statistics-bearing profile index and measurement
 * policy: Welford accumulation, statistic selection (min vs mean), MAD
 * outlier rejection, noise-aware decisions, the wirer's graceful
 * safety-valve truncation, and the headline property — with autoboost
 * jitter enabled, the noise-robust policy converges to the same
 * configuration as a jitter-free run (paper §7's predictability
 * assumption, recovered by measurement instead of clock pinning).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/astra.h"
#include "core/config_io.h"
#include "core/profile_index.h"
#include "models/models.h"

namespace astra {
namespace {

TEST(ProfileStats, WelfordAccumulation)
{
    ProfileStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count, 8);
    EXPECT_DOUBLE_EQ(s.min, 2.0);
    EXPECT_DOUBLE_EQ(s.max, 9.0);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_NEAR(s.variance(), 4.0, 1e-12);  // population variance
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
    EXPECT_NEAR(s.cov(), 0.4, 1e-12);
}

TEST(ProfileStats, SingleSampleHasZeroVariance)
{
    ProfileStats s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.mean, 42.0);
    EXPECT_DOUBLE_EQ(s.min, 42.0);
    EXPECT_DOUBLE_EQ(s.max, 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(ProfileStats, MedianAndMadAreRobust)
{
    ProfileStats s;
    for (double x : {1.0, 2.0, 3.0, 4.0, 100.0})
        s.add(x);
    // The 100.0 outlier moves the mean but not the median/MAD.
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
    EXPECT_DOUBLE_EQ(s.mad(), 1.0);  // |x - 3| = {2,1,0,1,97} -> 1
}

TEST(ProfileIndex, StatisticSelectsMinOrMean)
{
    MeasurementPolicy min_pol;  // default: Statistic::Min
    MeasurementPolicy mean_pol;
    mean_pol.statistic = Statistic::Mean;
    ProfileIndex by_min(min_pol);
    ProfileIndex by_mean(mean_pol);
    for (double x : {10.0, 20.0, 30.0}) {
        by_min.record("k", x);
        by_mean.record("k", x);
    }
    EXPECT_DOUBLE_EQ(*by_min.lookup("k"), 10.0);
    EXPECT_DOUBLE_EQ(*by_mean.lookup("k"), 20.0);
}

TEST(ProfileIndex, MadOutlierRejection)
{
    MeasurementPolicy p;
    p.outlier_mad_k = 3.5;
    p.outlier_min_window = 5;
    ProfileIndex idx(p);
    // Median 100, MAD 1 -> rejection threshold ~ 3.5 * 1.4826.
    for (double x : {100.0, 102.0, 98.0, 101.0, 99.0})
        EXPECT_TRUE(idx.record("k", x));
    // Window full: a wild sample is rejected, a nearby one accepted.
    EXPECT_FALSE(idx.record("k", 1000.0));
    EXPECT_EQ(idx.samples("k"), 5);
    EXPECT_EQ(idx.total_rejected(), 1);
    EXPECT_EQ(idx.stats("k")->rejected, 1);
    EXPECT_TRUE(idx.record("k", 100.5));
    EXPECT_EQ(idx.samples("k"), 6);
    // The rejected sample never contaminated the statistics.
    EXPECT_LT(idx.stats("k")->max, 200.0);
}

TEST(ProfileIndex, ExactRepeatsNeverRejected)
{
    // Base clock: every repeat is identical, MAD is exactly zero. The
    // relative floor must keep accepting them.
    MeasurementPolicy p;
    p.outlier_mad_k = 3.5;
    p.outlier_min_window = 5;
    ProfileIndex idx(p);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(idx.record("k", 7777.0));
    EXPECT_EQ(idx.samples("k"), 10);
    EXPECT_EQ(idx.total_rejected(), 0);
}

TEST(ProfileIndex, DecideRequiresMinSamples)
{
    MeasurementPolicy p;
    p.statistic = Statistic::Mean;
    p.min_samples = 3;
    p.noise_margin_sigmas = 1.0;
    ProfileIndex idx(p);
    idx.record("k=0", 10.0);
    idx.record("k=1", 20.0);
    ChoiceDecision d = idx.decide("k=", 2);
    EXPECT_EQ(d.choice, 0);
    EXPECT_EQ(d.runner_up, 1);
    EXPECT_FALSE(d.decisive);  // only one sample each
    // Two more samples each: deterministic values, zero noise -> the
    // ranking cannot change, so it becomes decisive.
    for (int i = 0; i < 2; ++i) {
        idx.record("k=0", 10.0);
        idx.record("k=1", 20.0);
    }
    d = idx.decide("k=", 2);
    EXPECT_TRUE(d.decisive);
    EXPECT_DOUBLE_EQ(d.separation, 10.0);
    EXPECT_DOUBLE_EQ(d.noise, 0.0);
}

TEST(ProfileIndex, DecideComparesSeparationToNoise)
{
    MeasurementPolicy p;
    p.statistic = Statistic::Mean;
    p.min_samples = 2;
    p.noise_margin_sigmas = 1.0;
    ProfileIndex idx(p);
    // Means 12 vs 13, each with variance 4 over 2 samples: the noise
    // scale is the standard error of the difference,
    // sqrt(4/2 + 4/2) = 2, and separation 1 is below it.
    idx.record("n=0", 10.0);
    idx.record("n=0", 14.0);
    idx.record("n=1", 11.0);
    idx.record("n=1", 15.0);
    ChoiceDecision d = idx.decide("n=", 2);
    EXPECT_EQ(d.choice, 0);
    EXPECT_NEAR(d.noise, 2.0, 1e-12);
    EXPECT_FALSE(d.decisive);
    // Same noise, wide separation: decisive.
    idx.record("w=0", 10.0);
    idx.record("w=0", 14.0);
    idx.record("w=1", 20.0);
    idx.record("w=1", 24.0);
    d = idx.decide("w=", 2);
    EXPECT_EQ(d.choice, 0);
    EXPECT_NEAR(d.separation, 10.0, 1e-12);
    EXPECT_TRUE(d.decisive);
}

TEST(ProfileIndex, DecideZeroNoiseTieIsDecisive)
{
    // A dead tie at zero observed noise must not demand endless
    // re-measurement: more samples cannot change the ranking.
    MeasurementPolicy p;
    p.min_samples = 2;
    p.noise_margin_sigmas = 2.0;
    ProfileIndex idx(p);
    for (int i = 0; i < 2; ++i) {
        idx.record("t=0", 5.0);
        idx.record("t=1", 5.0);
    }
    const ChoiceDecision d = idx.decide("t=", 2);
    EXPECT_EQ(d.choice, 0);
    EXPECT_DOUBLE_EQ(d.separation, 0.0);
    EXPECT_TRUE(d.decisive);
}

TEST(ProfileIndex, ResolutionFloorMergesSubEpsilonTies)
{
    // Two choices separated by 5 parts in 1e10 — real (nonzero, zero
    // observed noise) but far below the 1e-9 resolution floor. The
    // strict rule would chase the last ulp; with the floor the pair is
    // a tie, merged onto the lowest index, and settled.
    MeasurementPolicy p;
    p.statistic = Statistic::Mean;
    p.min_samples = 2;
    p.noise_margin_sigmas = 3.0;
    p.tie_epsilon_rel = 1e-9;
    ProfileIndex idx(p);
    for (int i = 0; i < 2; ++i) {
        idx.record("e=0", 100.0 * (1.0 + 5e-10));
        idx.record("e=1", 100.0);
    }
    const ChoiceDecision d = idx.decide("e=", 2);
    EXPECT_EQ(d.choice, 0);  // lowest index wins the tie
    EXPECT_TRUE(d.decisive);
    // A separation above the floor is not merged: the better choice
    // keeps winning regardless of index order.
    for (int i = 0; i < 2; ++i) {
        idx.record("f=0", 100.0 * (1.0 + 1e-6));
        idx.record("f=1", 100.0);
    }
    const ChoiceDecision real = idx.decide("f=", 2);
    EXPECT_EQ(real.choice, 1);
    EXPECT_TRUE(real.decisive);  // zero noise
}

TEST(ProfileStats, ParallelMergeMatchesSequentialAdds)
{
    // Chan et al. pairwise combine: merging two accumulators must give
    // the same moments as feeding all samples into one.
    const std::vector<double> left{2.0, 4.0, 4.0, 4.0};
    const std::vector<double> right{5.0, 5.0, 7.0, 9.0};
    ProfileStats a, b, all;
    for (double x : left) {
        a.add(x);
        all.add(x);
    }
    for (double x : right) {
        b.add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count, all.count);
    EXPECT_DOUBLE_EQ(a.min, all.min);
    EXPECT_DOUBLE_EQ(a.max, all.max);
    EXPECT_DOUBLE_EQ(a.mean, all.mean);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
    EXPECT_EQ(a.window().size(), all.window().size());
}

TEST(ProfileStats, MergeIntoEmptyAndFromEmpty)
{
    ProfileStats filled;
    filled.add(3.0);
    filled.add(5.0);

    ProfileStats empty;
    empty.merge(filled);
    EXPECT_EQ(empty.count, 2);
    EXPECT_DOUBLE_EQ(empty.mean, 4.0);

    ProfileStats copy = filled;
    copy.merge(ProfileStats{});
    EXPECT_EQ(copy.count, 2);
    EXPECT_DOUBLE_EQ(copy.mean, 4.0);
}

TEST(ProfileIndex, MergeOfDisjointShardsEqualsSerialIndex)
{
    // The parallel wirer's reduction: per-strategy shards have
    // disjoint keys (strategy context prefixes), so the merged index
    // must equal the one a serial run would have built.
    MeasurementPolicy p;
    ProfileIndex s0(p), s1(p), serial(p);
    s0.record("s0|a|0", 10.0);
    s0.record("s0|a|1", 12.0);
    s0.record("s0|a|0", 10.0);
    s1.record("s1|a|0", 20.0);
    serial.record("s0|a|0", 10.0);
    serial.record("s0|a|1", 12.0);
    serial.record("s0|a|0", 10.0);
    serial.record("s1|a|0", 20.0);

    ProfileIndex merged(p);
    merged.merge(s0);
    merged.merge(s1);
    EXPECT_EQ(merged.size(), serial.size());
    EXPECT_EQ(merged.total_samples(), serial.total_samples());
    EXPECT_EQ(merged.total_rejected(), serial.total_rejected());
    auto it = serial.entries().begin();
    for (const auto& [key, stats] : merged.entries()) {
        ASSERT_EQ(key, it->first);
        EXPECT_EQ(stats.count, it->second.count);
        EXPECT_DOUBLE_EQ(stats.mean, it->second.mean);
        EXPECT_DOUBLE_EQ(stats.min, it->second.min);
        EXPECT_DOUBLE_EQ(stats.max, it->second.max);
        ++it;
    }
}

TEST(ProfileIndex, MergeByMoveEqualsMergeByCopy)
{
    // The wirer moves its shards into the result; a copied shard must
    // merge to the same entries and totals: new keys, a key both hold,
    // an outlier rejected in the shard and a faulted key.
    MeasurementPolicy p;
    p.outlier_mad_k = 3.0;
    p.outlier_min_window = 5;
    ProfileIndex base(p), shard(p);
    base.record("s0|a|0", 10.0);
    base.record("shared|k|0", 50.0);
    base.record("shared|k|0", 52.0);
    for (int i = 0; i < 6; ++i)
        shard.record("shared|k|0", 51.0 + 0.25 * i);
    EXPECT_FALSE(shard.record("shared|k|0", 1e6));
    shard.record("s1|a|0", 20.0);
    shard.record("s1|a|1", 21.0);
    shard.record_fault("s1|b|2");

    ProfileIndex by_copy = base, by_move = base;
    by_copy.merge(shard);
    by_move.merge(ProfileIndex(shard));
    EXPECT_EQ(by_move.total_samples(), by_copy.total_samples());
    EXPECT_EQ(by_move.total_rejected(), by_copy.total_rejected());
    EXPECT_EQ(by_move.total_faults(), by_copy.total_faults());
    EXPECT_EQ(by_copy.total_rejected(), 1);
    EXPECT_EQ(by_copy.total_faults(), 1);
    ASSERT_EQ(by_move.size(), 5u);
    ASSERT_EQ(by_copy.size(), 5u);
    auto it = by_copy.entries().begin();
    for (const auto& [key, stats] : by_move.entries()) {
        ASSERT_EQ(key, it->first);
        const ProfileStats& want = it->second;
        EXPECT_EQ(stats.count, want.count) << key;
        EXPECT_EQ(stats.rejected, want.rejected) << key;
        EXPECT_EQ(stats.faults, want.faults) << key;
        EXPECT_EQ(stats.min, want.min) << key;
        EXPECT_EQ(stats.max, want.max) << key;
        EXPECT_EQ(stats.mean, want.mean) << key;
        EXPECT_EQ(stats.m2, want.m2) << key;
        EXPECT_EQ(stats.window(), want.window()) << key;
        ++it;
    }
    ProfileStats shared = *base.stats("shared|k|0");
    shared.merge(*shard.stats("shared|k|0"));
    const ProfileStats& got = *by_move.stats("shared|k|0");
    EXPECT_EQ(got.count, 8);
    EXPECT_EQ(got.rejected, 1);
    EXPECT_EQ(got.mean, shared.mean);
    EXPECT_EQ(got.m2, shared.m2);
    EXPECT_EQ(got.window(), shared.window());
}

TEST(ProfileIndex, DecideWithFewerThanTwoMeasured)
{
    MeasurementPolicy p;
    p.noise_margin_sigmas = 1.0;
    ProfileIndex idx(p);
    ChoiceDecision d = idx.decide("x=", 3);
    EXPECT_EQ(d.choice, -1);
    EXPECT_TRUE(d.decisive);
    idx.record("x=1", 4.0);
    d = idx.decide("x=", 3);
    EXPECT_EQ(d.choice, 1);
    EXPECT_EQ(d.runner_up, -1);
    EXPECT_TRUE(d.decisive);
}

BuiltModel
zoo_model(ModelKind kind)
{
    return build_model(kind,
                       {.batch = 8, .seq_len = 4, .hidden = 32,
                        .embed_dim = 32, .vocab = 50});
}

AstraOptions
timing_only()
{
    AstraOptions o;
    o.features = features_all();
    o.gpu.execute_kernels = false;
    o.gpu.autoboost = false;
    o.sched.super_epoch_ns = 150000.0;
    return o;
}

TEST(CustomWirer, SafetyValveTruncatesGracefully)
{
    // A tiny mini-batch budget used to trip an assertion mid-training;
    // now exploration stops, the best of what was measured is bound,
    // and the result is flagged.
    const BuiltModel m = zoo_model(ModelKind::SubLstm);
    AstraOptions o = timing_only();
    o.max_minibatches = 5;
    AstraSession session(m.graph(), o);
    const WirerResult r = session.optimize();
    EXPECT_TRUE(r.truncated);
    EXPECT_GT(r.best_ns, 0.0);
    // The truncated configuration is still dispatchable.
    EXPECT_GT(session.run(r.best_config).total_ns, 0.0);
}

TEST(CustomWirer, FullBudgetIsNotTruncated)
{
    const BuiltModel m = zoo_model(ModelKind::SubLstm);
    AstraSession session(m.graph(), timing_only());
    const WirerResult r = session.optimize();
    EXPECT_FALSE(r.truncated);
}

TEST(CustomWirer, NoiseRobustMatchesBaseClockOnStackedLstm)
{
    // The headline regression (ISSUE acceptance): under autoboost
    // clock jitter, the noise-robust wirer converges to exactly the
    // configuration the same wirer finds jitter-free. (The jitter-free
    // reference runs the same policy: its resolution floor settles
    // sub-rounding FP "preferences" identically in both runs, which a
    // strict last-ulp comparison by construction cannot.)
    const BuiltModel m = zoo_model(ModelKind::StackedLstm);

    AstraOptions ref_opts = timing_only();
    ref_opts.measurement = MeasurementPolicy::noise_robust();
    AstraSession ref_session(m.graph(), ref_opts);
    const WirerResult ref = ref_session.optimize();

    AstraOptions noisy = timing_only();
    noisy.gpu.autoboost = true;
    noisy.measurement = MeasurementPolicy::noise_robust();
    AstraSession noisy_session(m.graph(), noisy);
    const WirerResult got = noisy_session.optimize();

    EXPECT_EQ(config_to_string(got.best_config),
              config_to_string(ref.best_config));
    EXPECT_FALSE(got.truncated);

    // Robustness is bought with re-measurement mini-batches relative
    // to the paper's one-measurement regime.
    AstraOptions paper = timing_only();
    AstraSession paper_session(m.graph(), paper);
    const WirerResult once = paper_session.optimize();
    EXPECT_GE(got.minibatches, once.minibatches);
}

TEST(CustomWirer, ParallelExplorationIdenticalUnderAutoboost)
{
    // Determinism must also hold with clock jitter live: each strategy
    // owns a ClockDomain whose draw sequence depends only on that
    // strategy's measurement history, so the jittered measurements —
    // and everything downstream of them — are the same at any thread
    // count.
    const BuiltModel m = zoo_model(ModelKind::StackedLstm);
    auto run_with = [&](int threads) {
        AstraOptions o = timing_only();
        o.gpu.autoboost = true;
        o.measurement = MeasurementPolicy::noise_robust();
        o.wirer_threads = threads;
        AstraSession session(m.graph(), o);
        return session.optimize();
    };
    const WirerResult serial = run_with(1);
    const WirerResult parallel = run_with(4);
    EXPECT_EQ(config_to_string(parallel.best_config),
              config_to_string(serial.best_config));
    EXPECT_DOUBLE_EQ(parallel.best_ns, serial.best_ns);
    EXPECT_EQ(parallel.minibatches, serial.minibatches);
    EXPECT_EQ(parallel.index.total_samples(),
              serial.index.total_samples());
    EXPECT_EQ(parallel.index.total_rejected(),
              serial.index.total_rejected());
    ASSERT_EQ(parallel.strategy_ns.size(), serial.strategy_ns.size());
    for (size_t i = 0; i < serial.strategy_ns.size(); ++i)
        EXPECT_DOUBLE_EQ(parallel.strategy_ns[i],
                         serial.strategy_ns[i]);
    EXPECT_EQ(parallel.convergence.plan_cache_hits,
              serial.convergence.plan_cache_hits);
    EXPECT_EQ(parallel.convergence.plan_cache_misses,
              serial.convergence.plan_cache_misses);
}

}  // namespace
}  // namespace astra

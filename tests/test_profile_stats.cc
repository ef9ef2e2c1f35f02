/**
 * @file
 * Tests for the profile index's two measurement regimes — raw times
 * with the strict first-best (the paper's), and clock-normalized times
 * whose rankings merge sub-resolution ties onto the lowest index — the
 * shard merge, the wirer's graceful safety-valve truncation, and the
 * headline property: with autoboost jitter enabled, the normalized
 * wirer converges to the same configuration as a jitter-free run, one
 * measurement per trial (paper §7's predictability assumption,
 * recovered by measuring the clock instead of pinning it).
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/astra.h"
#include "core/config_io.h"
#include "core/profile_index.h"
#include "models/models.h"

namespace astra {
namespace {

TEST(ProfileIndex, ResolutionFloorMergesSubEpsilonTies)
{
    // Two choices separated by 5 parts in 1e10 — real, but far below
    // the kTieRel resolution floor of a normalized ranking. The strict
    // rule chases the last ulp; with the floor the pair is a tie,
    // merged onto the lowest index.
    ProfileIndex strict;
    ProfileIndex merged(/*merge_ties=*/true);
    for (ProfileIndex* idx : {&strict, &merged}) {
        idx->record("e=0", 100.0 * (1.0 + 5e-10));
        idx->record("e=1", 100.0);
        idx->record("f=0", 100.0 * (1.0 + 1e-6));
        idx->record("f=1", 100.0);
    }
    EXPECT_EQ(strict.best_choice("e=", 2), 1);
    EXPECT_EQ(merged.best_choice("e=", 2), 0);  // lowest index wins
    // A separation above the floor is not merged: the better choice
    // keeps winning regardless of index order.
    EXPECT_EQ(strict.best_choice("f=", 2), 1);
    EXPECT_EQ(merged.best_choice("f=", 2), 1);
    // The merge takes the lowest tied index, skipping unmeasured and
    // slower ones; exact ties go to the lowest index in both regimes.
    for (ProfileIndex* idx : {&strict, &merged}) {
        idx->record("g=1", 100.0 * (1.0 + 1e-6));
        idx->record("g=2", 100.0 * (1.0 + 2e-10));
        idx->record("g=3", 100.0);
        idx->record("g=4", 100.0);
    }
    EXPECT_EQ(strict.best_choice("g=", 5), 3);
    EXPECT_EQ(merged.best_choice("g=", 5), 2);
}

TEST(ProfileIndex, TieMergeWithFewerThanTwoMeasured)
{
    ProfileIndex idx(/*merge_ties=*/true);
    EXPECT_EQ(idx.best_choice("x=", 3), -1);
    idx.record("x=1", 4.0);
    EXPECT_EQ(idx.best_choice("x=", 3), 1);
    // A faulted key holds no sample and never wins, tie or not.
    idx.record_fault("x=0");
    EXPECT_EQ(idx.best_choice("x=", 3), 1);
}

TEST(ProfileStats, MergeIntoEmptyAndFromEmpty)
{
    ProfileIndex filled, empty;
    filled.record("k", 5.0);
    filled.record("k", 3.0);

    empty.merge(filled);
    ASSERT_EQ(empty.size(), 1u);
    EXPECT_EQ(empty.entries().at("k").count, 2);
    EXPECT_DOUBLE_EQ(empty.entries().at("k").min, 3.0);

    ProfileIndex unsampled;
    unsampled.record_fault("k");
    ProfileIndex copy = filled;
    copy.merge(unsampled);
    EXPECT_EQ(copy.entries().at("k").count, 2);
    EXPECT_EQ(copy.entries().at("k").faults, 1);
    EXPECT_DOUBLE_EQ(copy.entries().at("k").min, 3.0);
    unsampled.merge(filled);
    EXPECT_DOUBLE_EQ(unsampled.entries().at("k").min, 3.0);
}

TEST(ProfileIndex, MergeOfDisjointShardsEqualsSerialIndex)
{
    // The parallel wirer's reduction: per-strategy shards have
    // disjoint keys (strategy context prefixes), so the merged index
    // must equal the one a serial run would have built.
    ProfileIndex s0, s1, serial;
    s0.record("s0|a|0", 10.0);
    s0.record("s0|a|1", 12.0);
    s0.record("s0|a|0", 10.0);
    s1.record("s1|a|0", 20.0);
    serial.record("s0|a|0", 10.0);
    serial.record("s0|a|1", 12.0);
    serial.record("s0|a|0", 10.0);
    serial.record("s1|a|0", 20.0);

    ProfileIndex merged;
    merged.merge(s0);
    merged.merge(s1);
    EXPECT_EQ(merged.size(), serial.size());
    EXPECT_EQ(merged.total_samples(), serial.total_samples());
    auto it = serial.entries().begin();
    for (const auto& [key, stats] : merged.entries()) {
        ASSERT_EQ(key, it->first);
        EXPECT_EQ(stats.count, it->second.count);
        EXPECT_DOUBLE_EQ(stats.min, it->second.min);
        ++it;
    }
}

TEST(ProfileIndex, MergeByMoveEqualsMergeByCopy)
{
    // The wirer moves its shards into the result; a copied shard must
    // merge to the same entries and totals: new keys, a key both hold
    // and a faulted key.
    ProfileIndex base, shard;
    base.record("s0|a|0", 10.0);
    base.record("shared|k|0", 50.0);
    base.record("shared|k|0", 52.0);
    for (int i = 0; i < 6; ++i)
        shard.record("shared|k|0", 49.0 + 0.25 * i);
    shard.record("s1|a|0", 20.0);
    shard.record("s1|a|1", 21.0);
    shard.record_fault("s1|b|2");

    ProfileIndex by_copy = base, by_move = base;
    by_copy.merge(shard);
    by_move.merge(ProfileIndex(shard));
    EXPECT_EQ(by_move.total_samples(), by_copy.total_samples());
    EXPECT_EQ(by_move.total_faults(), by_copy.total_faults());
    EXPECT_EQ(by_copy.total_samples(), 11);
    EXPECT_EQ(by_copy.total_faults(), 1);
    ASSERT_EQ(by_move.size(), 5u);
    ASSERT_EQ(by_copy.size(), 5u);
    auto it = by_copy.entries().begin();
    for (const auto& [key, stats] : by_move.entries()) {
        ASSERT_EQ(key, it->first);
        const ProfileStats& want = it->second;
        EXPECT_EQ(stats.count, want.count) << key;
        EXPECT_EQ(stats.faults, want.faults) << key;
        EXPECT_EQ(stats.min, want.min) << key;
        ++it;
    }
    const ProfileStats& got = by_move.entries().at("shared|k|0");
    EXPECT_EQ(got.count, 8);
    EXPECT_EQ(got.min, 49.0);
    EXPECT_EQ(by_move.quarantined_keys(),
              std::vector<std::string>{"s1|b|2"});
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
    // The headline regression: under autoboost clock jitter, the
    // clock-normalized wirer converges to exactly the configuration
    // the same wirer finds jitter-free. (The jitter-free reference
    // normalizes too: its resolution floor settles sub-rounding FP
    // "preferences" identically in both runs, which a strict last-ulp
    // comparison by construction cannot.)
    const BuiltModel m = zoo_model(ModelKind::StackedLstm);

    AstraOptions ref_opts = timing_only();
    ref_opts.normalize_clock = true;
    AstraSession ref_session(m.graph(), ref_opts);
    const WirerResult ref = ref_session.optimize();

    AstraOptions noisy = timing_only();
    noisy.gpu.autoboost = true;
    noisy.normalize_clock = true;
    AstraSession noisy_session(m.graph(), noisy);
    const WirerResult got = noisy_session.optimize();

    EXPECT_EQ(config_to_string(got.best_config),
              config_to_string(ref.best_config));
    EXPECT_FALSE(got.truncated);

    // Robustness costs no re-measurement: one mini-batch per trial, so
    // the jittered run walks exactly the jitter-free run's trials.
    EXPECT_EQ(got.minibatches, ref.minibatches);
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
        o.normalize_clock = true;
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
    ASSERT_EQ(parallel.strategy_ns.size(), serial.strategy_ns.size());
    for (size_t i = 0; i < serial.strategy_ns.size(); ++i)
        EXPECT_DOUBLE_EQ(parallel.strategy_ns[i],
                         serial.strategy_ns[i]);
}

TEST(CustomWirer, NormalizedRegimeBindsOneConfigAcrossTheZoo)
{
    // With normalize_clock on, neither autoboost jitter nor the
    // what-if path moves a winner: every zoo model binds one
    // configuration per feature set under autoboost {off, on} x
    // what-if {off, on}. Fault-free, so it holds under any
    // ASTRA_FAULTS.
    for (const ModelKind kind :
         {ModelKind::Scrnn, ModelKind::MiLstm, ModelKind::SubLstm,
          ModelKind::StackedLstm, ModelKind::Gnmt, ModelKind::Rhn,
          ModelKind::AttnLstm}) {
        const BuiltModel m = zoo_model(kind);
        for (const bool all : {true, false}) {
            std::set<std::string> configs;
            for (const bool autoboost : {false, true})
                for (const bool whatif : {false, true}) {
                    AstraOptions o = timing_only();
                    o.features = all ? features_all() : features_fk();
                    o.gpu.autoboost = autoboost;
                    o.gpu.faults = FaultPlan{};
                    o.normalize_clock = true;
                    o.whatif.enabled = whatif;
                    o.wirer_threads = 4;
                    AstraSession session(m.graph(), o);
                    configs.insert(
                        config_to_string(session.optimize().best_config));
                }
            EXPECT_EQ(configs.size(), 1u)
                << model_name(kind)
                << (all ? " features_all" : " features_fk");
        }
    }
}

}  // namespace
}  // namespace astra

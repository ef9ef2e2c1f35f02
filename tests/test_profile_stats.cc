/**
 * @file
 * Tests for the profile index's two measurement regimes — raw times
 * with the strict first-best (the paper's), and clock-normalized times
 * whose rankings merge sub-resolution ties onto the lowest index — the
 * fold of shard summaries, the wirer's graceful safety-valve
 * truncation, and the headline property: with autoboost jitter
 * enabled, the normalized wirer converges to the same configuration as
 * a jitter-free run, one measurement per trial (paper §7's
 * predictability assumption, recovered by measuring the clock instead
 * of pinning it).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/astra.h"
#include "core/config_io.h"
#include "core/profile_index.h"
#include "models/models.h"
#include "support/rng.h"

namespace astra {
namespace {

/** Variable `var` of context 0 at `choice`. */
ProfileKey
key(uint32_t var, int choice)
{
    return ProfileKey(0, var, choice);
}

TEST(ProfileIndex, ResolutionFloorMergesSubEpsilonTies)
{
    // Two choices separated by 5 parts in 1e10 — real, but far below
    // the kTieRel resolution floor of a normalized ranking. The strict
    // rule chases the last ulp; with the floor the pair is a tie,
    // merged onto the lowest index.
    constexpr uint32_t e = 0, f = 1, g = 2;
    ProfileIndex strict;
    ProfileIndex merged(/*merge_ties=*/true);
    for (ProfileIndex* idx : {&strict, &merged}) {
        idx->record(key(e, 0), 100.0 * (1.0 + 5e-10));
        idx->record(key(e, 1), 100.0);
        idx->record(key(f, 0), 100.0 * (1.0 + 1e-6));
        idx->record(key(f, 1), 100.0);
    }
    EXPECT_EQ(strict.best_choice(0, e, 2), 1);
    EXPECT_EQ(merged.best_choice(0, e, 2), 0);  // lowest index wins
    // A separation above the floor is not merged: the better choice
    // keeps winning regardless of index order.
    EXPECT_EQ(strict.best_choice(0, f, 2), 1);
    EXPECT_EQ(merged.best_choice(0, f, 2), 1);
    // The merge takes the lowest tied index, skipping unmeasured and
    // slower ones; exact ties go to the lowest index in both regimes.
    for (ProfileIndex* idx : {&strict, &merged}) {
        idx->record(key(g, 1), 100.0 * (1.0 + 1e-6));
        idx->record(key(g, 2), 100.0 * (1.0 + 2e-10));
        idx->record(key(g, 3), 100.0);
        idx->record(key(g, 4), 100.0);
    }
    EXPECT_EQ(strict.best_choice(0, g, 5), 3);
    EXPECT_EQ(merged.best_choice(0, g, 5), 2);
}

TEST(ProfileIndex, TieMergeWithFewerThanTwoMeasured)
{
    ProfileIndex idx(/*merge_ties=*/true);
    EXPECT_EQ(idx.best_choice(0, 0, 3), -1);
    idx.record(key(0, 1), 4.0);
    EXPECT_EQ(idx.best_choice(0, 0, 3), 1);
    // A faulted key holds no sample and never wins, tie or not.
    idx.record_fault(key(0, 0));
    EXPECT_EQ(idx.best_choice(0, 0, 3), 1);
}

TEST(ProfileSummary, FoldedShardsSummarizeTheSerialIndex)
{
    // The wirer's reduction: each strategy summarizes its own shard
    // (one context-table shard each, so the key sets are disjoint) and
    // the summaries fold in shard order. That must equal summarizing
    // one index that recorded every sample. Keys are recorded out of
    // order, repeat, fault, and shard 1 records nothing.
    const ContextId c0 = ContextTable(0).root();
    const ContextId c2 = ContextTable(2).root();
    ProfileIndex shards[3], serial;
    auto record = [&](int shard, ProfileKey k, double ns) {
        shards[shard].record(k, ns);
        serial.record(k, ns);
    };
    auto fault = [&](int shard, ProfileKey k) {
        shards[shard].record_fault(k);
        serial.record_fault(k);
    };
    record(2, ProfileKey(c2 + 1, 4, 0), 30.0);
    record(0, ProfileKey(c0, 1, 2), 12.0);
    record(0, ProfileKey(c0, 0, 0), 10.0);
    record(2, ProfileKey(c2, 0, 1), 21.0);
    record(0, ProfileKey(c0, 1, 2), 11.0);
    fault(0, ProfileKey(c0, 1, 2));
    fault(2, ProfileKey(c2, 3, 0));
    fault(0, ProfileKey(c0, 5, 1));
    record(0, ProfileKey(c0, 0, 0), 10.5);

    ProfileSummary got;
    for (ProfileIndex& shard : shards)
        got.fold(std::move(shard).summarize());
    EXPECT_EQ(shards[0].size(), 0u);  // the hash table went with it
    EXPECT_EQ(shards[0].total_samples(), 0);
    EXPECT_EQ(got, std::move(serial).summarize());
    EXPECT_EQ(got.keys, 6);
    EXPECT_EQ(got.samples, 6);
    EXPECT_EQ(got.faults, 3);
    EXPECT_EQ(got.quarantined,
              (std::vector<ProfileKey>{ProfileKey(c0, 5, 1),
                                       ProfileKey(c2, 3, 0)}));

    // The digest covers every field of every entry.
    const auto digest = [](ProfileKey key, double ns, int samples,
                           int faults) {
        ProfileIndex idx;
        for (int i = 0; i < samples; ++i)
            idx.record(key, ns);
        for (int i = 0; i < faults; ++i)
            idx.record_fault(key);
        return std::move(idx).summarize().digest;
    };
    const ProfileKey k(c0, 0, 0);
    const uint64_t base = digest(k, 10.0, 1, 0);
    EXPECT_NE(digest(ProfileKey(c0, 0, 1), 10.0, 1, 0), base);
    EXPECT_NE(digest(k, 9.0, 1, 0), base);
    EXPECT_NE(digest(k, 10.0, 2, 0), base);
    EXPECT_NE(digest(k, 10.0, 1, 1), base);
}

TEST(ProfileSummary, FoldRejectsShardsOutOfKeyOrder)
{
    // `quarantined` stays in key order only if shards fold in order.
    ProfileIndex first, second;
    first.record_fault(ProfileKey(ContextTable(1).root(), 0, 0));
    second.record_fault(ProfileKey(ContextTable(0).root(), 0, 0));
    ProfileSummary got = std::move(first).summarize();
    const ProfileSummary later = std::move(second).summarize();
    EXPECT_DEATH(got.fold(later), "out of key order");
}

/**
 * The index as it was kept before keys were integers: entries under
 * the key text "c<context>|v<variable>=<choice>" in an ordered map,
 * rankings over the text "<prefix><choice>". The differential test
 * below checks the integer index answers every query as this does.
 */
class TextIndex
{
  public:
    explicit TextIndex(bool merge_ties) : merge_ties_(merge_ties) {}

    static std::string
    prefix(ContextId context, uint32_t variable)
    {
        return "c" + std::to_string(context) + "|v" +
               std::to_string(variable) + "=";
    }
    static std::string
    text(ProfileKey k)
    {
        return prefix(k.context(), k.variable()) +
               std::to_string(k.choice());
    }

    void
    record(ProfileKey k, double ns)
    {
        ProfileStats& s = entries_[text(k)];
        s.min = s.count == 0 ? ns : std::min(s.min, ns);
        ++s.count;
        ++samples_;
    }
    void
    record_fault(ProfileKey k)
    {
        ++entries_[text(k)].faults;
        ++faults_;
    }
    std::optional<double>
    lookup(ProfileKey k) const
    {
        const ProfileStats* s = sampled(text(k));
        return s ? std::optional<double>(s->min) : std::nullopt;
    }
    bool contains(ProfileKey k) const { return entries_.count(text(k)) > 0; }
    int
    best_choice(ContextId context, uint32_t variable, int n) const
    {
        const std::string p = prefix(context, variable);
        int best = -1;
        double best_v = 0.0;
        for (int c = 0; c < n; ++c) {
            const ProfileStats* s = sampled(p + std::to_string(c));
            if (s != nullptr && (best < 0 || s->min < best_v)) {
                best = c;
                best_v = s->min;
            }
        }
        if (!merge_ties_)
            return best;
        const double floor = kTieRel * std::abs(best_v);
        for (int c = 0; c < best; ++c) {
            const ProfileStats* s = sampled(p + std::to_string(c));
            if (s != nullptr && s->min - best_v <= floor)
                return c;
        }
        return best;
    }
    std::vector<std::string>
    quarantined() const
    {
        std::vector<std::string> out;
        for (const auto& [k, s] : entries_)
            if (s.faults > 0 && s.count == 0)
                out.push_back(k);
        return out;
    }
    const std::map<std::string, ProfileStats>& entries() const
    {
        return entries_;
    }
    int64_t samples() const { return samples_; }
    int64_t faults() const { return faults_; }

  private:
    const ProfileStats*
    sampled(const std::string& k) const
    {
        const auto it = entries_.find(k);
        return it == entries_.end() || it->second.count == 0
                   ? nullptr
                   : &it->second;
    }

    bool merge_ties_;
    std::map<std::string, ProfileStats> entries_;
    int64_t samples_ = 0, faults_ = 0;
};

TEST(ProfileIndex, AnswersEveryQueryAsTheTextIndexDid)
{
    // Seeded random sequences of record, record_fault, lookup and
    // best_choice over a small key space (so keys repeat and contexts
    // share variables), with values drawn near each other so exact
    // ties and sub-kTieRel ties occur, in both ranking regimes.
    constexpr ContextId kContexts[] = {0, 1, 0x00100000, 0x00100001};
    for (bool merge_ties : {false, true}) {
        for (uint64_t seed = 1; seed <= 20; ++seed) {
            SCOPED_TRACE("merge_ties " + std::to_string(merge_ties) +
                         " seed " + std::to_string(seed));
            Rng rng(seed);
            ProfileIndex idx(merge_ties);
            TextIndex ref(merge_ties);
            auto draw_key = [&] {
                return ProfileKey(kContexts[rng.next_below(4)],
                                  rng.next_below(3), rng.next_below(5));
            };
            for (int op = 0; op < 400; ++op) {
                const uint64_t what = rng.next_below(10);
                if (what < 4) {
                    const ProfileKey k = draw_key();
                    static constexpr double kNear[] = {
                        1.0, 1.0 + 2e-10, 1.0 + 1e-6, 1.25, 0.75};
                    const double ns =
                        100.0 * kNear[rng.next_below(5)];
                    idx.record(k, ns);
                    ref.record(k, ns);
                } else if (what < 5) {
                    const ProfileKey k = draw_key();
                    idx.record_fault(k);
                    ref.record_fault(k);
                } else if (what < 7) {
                    const ProfileKey k = draw_key();
                    ASSERT_EQ(idx.lookup(k), ref.lookup(k));
                    ASSERT_EQ(idx.contains(k), ref.contains(k));
                } else {
                    const ContextId c = kContexts[rng.next_below(4)];
                    const auto v =
                        static_cast<uint32_t>(rng.next_below(3));
                    const int n = 1 + static_cast<int>(rng.next_below(5));
                    ASSERT_EQ(idx.best_choice(c, v, n),
                              ref.best_choice(c, v, n));
                }
            }
            ASSERT_EQ(idx.size(), ref.entries().size());
            EXPECT_EQ(idx.total_samples(), ref.samples());
            EXPECT_EQ(idx.total_faults(), ref.faults());
            for (const auto& [k, stats] : idx.entries())
                EXPECT_EQ(stats, ref.entries().at(TextIndex::text(k)));
            std::vector<std::string> quarantined;
            for (ProfileKey k : idx.quarantined_keys())
                quarantined.push_back(TextIndex::text(k));
            std::sort(quarantined.begin(), quarantined.end());
            EXPECT_EQ(quarantined, ref.quarantined());
        }
    }
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
    EXPECT_EQ(parallel.profile, serial.profile);
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

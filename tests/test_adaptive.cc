/**
 * @file
 * Tests for the adaptive-variable / update-tree machinery (paper
 * §4.4.2) and the profile index with (context, variable, choice) keys
 * (§4.6).
 * The trial-count assertions encode the paper's §4.5.1 arithmetic:
 * Parallel takes the max over its children, Prefix their sum.
 */
#include <gtest/gtest.h>

#include <set>

#include "core/adaptive.h"

namespace astra {
namespace {

TEST(ProfileKey, PackUnpackRoundTripsAtFieldLimits)
{
    const int64_t contexts[] = {0, 1, ProfileKey::kMaxContext};
    const int64_t variables[] = {0, 1, ProfileKey::kMaxVariable};
    const int64_t choices[] = {0, 1, ProfileKey::kMaxChoice};
    std::set<ProfileKey> seen;
    for (int64_t c : contexts)
        for (int64_t v : variables)
            for (int64_t ch : choices) {
                ASSERT_TRUE(ProfileKey::fits(c, v, ch));
                const ProfileKey k(c, v, ch);
                EXPECT_TRUE(k.valid());
                EXPECT_EQ(k.context(), static_cast<ContextId>(c));
                EXPECT_EQ(k.variable(), static_cast<uint32_t>(v));
                EXPECT_EQ(k.choice(), static_cast<int>(ch));
                seen.insert(k);
            }
    EXPECT_EQ(seen.size(), 27u);
    // The largest key is still not "no key".
    EXPECT_FALSE(ProfileKey().valid());
    EXPECT_EQ(seen.count(ProfileKey()), 0u);
    EXPECT_EQ(to_string(ProfileKey()), "");
    EXPECT_EQ(to_string(ProfileKey(7, 12, 3)), "c7/v12=3");
}

TEST(ProfileKey, OutOfRangeFieldsAreRejected)
{
    EXPECT_FALSE(ProfileKey::fits(-1, 0, 0));
    EXPECT_FALSE(ProfileKey::fits(ProfileKey::kMaxContext + 1, 0, 0));
    EXPECT_FALSE(ProfileKey::fits(0, -1, 0));
    EXPECT_FALSE(ProfileKey::fits(0, ProfileKey::kMaxVariable + 1, 0));
    EXPECT_FALSE(ProfileKey::fits(0, 0, -1));
    EXPECT_FALSE(ProfileKey::fits(0, 0, ProfileKey::kMaxChoice + 1));
    EXPECT_DEATH(ProfileKey(0, 0, ProfileKey::kMaxChoice + 1),
                 "profile key field out of range");
    EXPECT_DEATH(ProfileKey(0, ProfileKey::kMaxVariable + 1, 0),
                 "profile key field out of range");
}

TEST(ContextTable, OneIdPerBindingDistinctOtherwise)
{
    ContextTable t(2);
    const ContextId root = t.root();
    EXPECT_EQ(ContextTable::shard_of(root), 2u);
    const ContextId a = t.extend(root, 5, 1);
    EXPECT_EQ(t.extend(root, 5, 1), a);  // interned once
    std::set<ContextId> ids{root, a};
    ids.insert(t.extend(root, 5, 0));    // another choice
    ids.insert(t.extend(root, 6, 1));    // another variable
    ids.insert(t.extend(a, 5, 1));       // another parent
    EXPECT_EQ(ids.size(), 5u);
    EXPECT_EQ(t.extend(a, 5, 1), t.extend(t.extend(root, 5, 1), 5, 1));
    for (ContextId c : ids)
        EXPECT_EQ(ContextTable::shard_of(c), 2u);
    // Another shard's table never issues these ids.
    ContextTable other(3);
    EXPECT_EQ(ids.count(other.root()), 0u);
    EXPECT_EQ(ids.count(other.extend(other.root(), 5, 1)), 0u);
}

TEST(ProfileIndex, RecordLookup)
{
    const ProfileKey a(0, 1, 0);
    ProfileIndex idx;
    EXPECT_FALSE(idx.lookup(a).has_value());
    idx.record(a, 5.0);
    EXPECT_DOUBLE_EQ(*idx.lookup(a), 5.0);
    // Repeated records accumulate; the default policy statistic is
    // the minimum (the paper's repeatable-at-base-clock value).
    idx.record(a, 3.0);
    EXPECT_DOUBLE_EQ(*idx.lookup(a), 3.0);
    idx.record(a, 9.0);
    EXPECT_DOUBLE_EQ(*idx.lookup(a), 3.0);
    EXPECT_TRUE(idx.contains(a));
    EXPECT_EQ(idx.size(), 1u);
    EXPECT_EQ(idx.entries().at(a).count, 3);
    EXPECT_EQ(idx.total_samples(), 3);
}

TEST(ProfileIndex, BestChoice)
{
    ProfileIndex idx;
    EXPECT_EQ(idx.best_choice(0, 4, 3), -1);
    idx.record(ProfileKey(0, 4, 0), 10.0);
    idx.record(ProfileKey(0, 4, 2), 4.0);
    EXPECT_EQ(idx.best_choice(0, 4, 3), 2);
    idx.record(ProfileKey(0, 4, 1), 1.0);
    EXPECT_EQ(idx.best_choice(0, 4, 3), 1);
}

TEST(ProfileIndex, ContextPrefixesIsolate)
{
    // §4.6: changing a higher-level binding changes the context, so
    // measurements under the old binding never alias the new ones.
    ContextTable t;
    const ContextId s0 = t.extend(t.root(), 9, 0);
    const ContextId s1 = t.extend(t.root(), 9, 1);
    ProfileIndex idx;
    idx.record(ProfileKey(s0, 1, 0), 7.0);
    EXPECT_FALSE(idx.contains(ProfileKey(s1, 1, 0)));
    EXPECT_EQ(idx.best_choice(s1, 1, 3), -1);
    EXPECT_EQ(idx.best_choice(s0, 1, 3), 0);
}

TEST(AdaptiveVariable, IterateVisitsEveryOptionOnce)
{
    AdaptiveVariable v(0, 4, 1);
    v.initialize();
    std::vector<int> seen{v.current()};
    while (v.iterate())
        seen.push_back(v.current());
    seen.push_back(v.current());  // last iterate() still advanced? no:
    // iterate() returns false once all options are visited.
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_TRUE(v.finished());
    EXPECT_FALSE(v.iterate());
}

TEST(AdaptiveVariable, SingleOptionFinishesImmediately)
{
    AdaptiveVariable v(0, 1);
    v.initialize();
    EXPECT_TRUE(v.finished());
    EXPECT_FALSE(v.iterate());
}

TEST(AdaptiveVariable, ProfileKeysAndBestBinding)
{
    AdaptiveVariable v(3, 3);
    v.set_context(11);
    EXPECT_EQ(v.profile_key_for(2), ProfileKey(11, 3, 2));
    ProfileIndex idx;
    idx.record(ProfileKey(11, 3, 0), 9.0);
    idx.record(ProfileKey(11, 3, 1), 2.0);
    idx.record(ProfileKey(11, 3, 2), 5.0);
    EXPECT_TRUE(v.bind_best(idx));
    EXPECT_EQ(v.current(), 1);
    EXPECT_DOUBLE_EQ(v.get_profile_value(idx), 2.0);
}

TEST(AdaptiveVariable, BindBestWithoutDataKeepsDefault)
{
    AdaptiveVariable v(0, 3, 2);
    ProfileIndex idx;
    EXPECT_FALSE(v.bind_best(idx));
    EXPECT_EQ(v.current(), 2);
}

/**
 * Drives a tree the way the custom wirer does, recording a synthetic
 * metric for the current assignment each "mini-batch".
 */
struct Driver
{
    ProfileIndex idx;
    int trials = 0;

    /** metric(var) -> value recorded under each of `vars`' keys. */
    void
    run(UpdateNode& tree, const std::vector<VarPtr>& vars,
        const std::function<double(const AdaptiveVariable&)>& metric)
    {
        tree.initialize();
        while (trials < 1000) {
            ++trials;
            for (const VarPtr& v : vars)
                idx.record(v->profile_key(), metric(*v));
            if (tree.finished())
                break;
            tree.advance(idx);
        }
        tree.bind_best(idx);
    }
};

TEST(UpdateTree, ParallelTrialsAreMaxNotProduct)
{
    // §4.5.1: 5 independent groups x (3 chunk options) explored in
    // parallel need 3 trials, not 3^5.
    std::vector<std::unique_ptr<UpdateNode>> leaves;
    std::vector<VarPtr> vars;
    for (int g = 0; g < 5; ++g) {
        auto v = std::make_shared<AdaptiveVariable>(
            static_cast<uint32_t>(g), 3);
        vars.push_back(v);
        leaves.push_back(UpdateNode::leaf(v));
    }
    auto tree = UpdateNode::composite(UpdateNode::Mode::Parallel,
                                      std::move(leaves));

    Driver d;
    // Best option differs per variable: g0 likes 0, g1 likes 1, ...
    d.run(*tree, vars, [](const AdaptiveVariable& v) {
        const int want = static_cast<int>(v.id());
        return v.current() == want % 3 ? 1.0 : 10.0;
    });
    EXPECT_EQ(d.trials, 3);
    for (int g = 0; g < 5; ++g)
        EXPECT_EQ(vars[static_cast<size_t>(g)]->current(), g % 3)
            << "g" << g;
}

TEST(UpdateTree, PrefixFreezesLeftToRight)
{
    // §4.5.4: epochs explored in order; each frozen at its best before
    // the next starts, and the binding extends later contexts.
    auto e0 = std::make_shared<AdaptiveVariable>(0, 3);
    auto e1 = std::make_shared<AdaptiveVariable>(1, 3);
    std::vector<std::unique_ptr<UpdateNode>> leaves;
    leaves.push_back(UpdateNode::leaf(e0));
    leaves.push_back(UpdateNode::leaf(e1));
    auto tree = UpdateNode::composite(UpdateNode::Mode::Prefix,
                                      std::move(leaves));
    ContextTable contexts;
    std::vector<int> bound_order;
    tree->set_on_child_bound([&](int idx) {
        bound_order.push_back(idx);
        if (idx == 0)
            e1->set_context(contexts.extend(e1->context(), e0->id(),
                                            e0->current()));
    });

    Driver d;
    d.run(*tree, {e0, e1}, [&](const AdaptiveVariable& v) {
        if (v.id() == e0->id())
            return v.current() == 2 ? 1.0 : 5.0;
        // e1's best depends on nothing here; pick option 1.
        return v.current() == 1 ? 1.0 : 5.0;
    });
    ASSERT_EQ(bound_order.size(), 2u);
    EXPECT_EQ(bound_order[0], 0);
    EXPECT_EQ(e0->current(), 2);
    EXPECT_EQ(e1->current(), 1);
    // e1's measurements were taken under the frozen-e0 context.
    EXPECT_TRUE(d.idx.contains(ProfileKey(
        contexts.extend(contexts.root(), e0->id(), 2), e1->id(), 1)));
    // 3 (e0) + 3 (e1) + the trial that measures the frozen prefix:
    // the sum, not the 3 x 3 product.
    EXPECT_EQ(d.trials, 7);
}

TEST(UpdateTree, NestedParallelOfPrefixes)
{
    // The stream stage shape: Parallel over super-epochs, each a
    // Prefix of epochs. Trials = max over SEs of the summed options.
    std::vector<std::unique_ptr<UpdateNode>> ses;
    std::vector<VarPtr> vars;
    for (int se = 0; se < 3; ++se) {
        std::vector<std::unique_ptr<UpdateNode>> epochs;
        for (int e = 0; e < 2 + se; ++e) {
            vars.push_back(std::make_shared<AdaptiveVariable>(
                static_cast<uint32_t>(se * 8 + e), 2));
            epochs.push_back(UpdateNode::leaf(vars.back()));
        }
        ses.push_back(UpdateNode::composite(UpdateNode::Mode::Prefix,
                                            std::move(epochs)));
    }
    auto tree = UpdateNode::composite(UpdateNode::Mode::Parallel,
                                      std::move(ses));
    Driver d;
    d.run(*tree, vars, [](const AdaptiveVariable& v) {
        return v.current() == 0 ? 1.0 : 2.0;
    });
    // Parallel across SEs: the largest prefix (4 epochs x 2 options)
    // plus the trial that measures it frozen, far below the 2^9 flat
    // product.
    EXPECT_EQ(d.trials, 9);
}

TEST(UpdateTree, BindBestRecursive)
{
    auto a = std::make_shared<AdaptiveVariable>(0, 3);
    std::vector<std::unique_ptr<UpdateNode>> leaves;
    leaves.push_back(UpdateNode::leaf(a));
    auto tree = UpdateNode::composite(UpdateNode::Mode::Parallel,
                                      std::move(leaves));
    ProfileIndex idx;
    idx.record(a->profile_key_for(2), 0.5);
    idx.record(a->profile_key_for(0), 3.0);
    tree->bind_best(idx);
    EXPECT_EQ(a->current(), 2);
}

}  // namespace
}  // namespace astra

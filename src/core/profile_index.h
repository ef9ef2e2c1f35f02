/**
 * @file
 * The profile index (paper §4.6): a key-value store of fine-grained
 * measurements gathered during online exploration.
 *
 * A key (support/profile_key.h) is one choice of one variable under a
 * context that stands for every higher-level binding the measurement
 * depends on (allocation strategy, a group's bound chunk, the frozen
 * prefix of earlier epochs, ...). A ContextTable interns each context
 * as (parent context, frozen variable, its choice): the paper's key
 * mangling, without the text. When the custom wirer explores a
 * different higher-level binding, lookups under the new context miss
 * and the dependent entries are re-measured — exactly the paper's
 * key-mangling-as-invalidation mechanism.
 *
 * Like the paper's prototype, the index trusts one measurement per
 * configuration (§4.1, §7): a key keeps its fastest sample, and a
 * ranking takes the strict first-best. The paper earns that trust by
 * pinning the GPU clock; this repo can measure the clock instead
 * (AstraOptions::normalize_clock). Normalized samples are exact only
 * to FP rounding, so an index built over them also merges choices
 * closer than kTieRel of the best onto the lowest index, and a
 * jittered run then resolves those ties exactly as a base-clock run
 * does (see bench/micro_predictability.cc).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "support/profile_key.h"

namespace astra {

/**
 * Resolution floor of a clock-normalized ranking, relative to the best
 * value. Normalization is exact to ~1e-14 relative; real separations
 * between configurations sit at >= ~1e-4. Anything in between is a
 * rounding artifact, not a preference.
 */
constexpr double kTieRel = 1e-9;

/**
 * The contexts of one exploration shard. A context is a parent context
 * extended by one frozen variable at one choice; the table gives each
 * distinct extension one id. A shard's ids are [shard << kSerialBits,
 * (shard + 1) << kSerialBits), its root first, so tables of distinct
 * shards (the wirer's allocation strategies) never issue the same id,
 * and shard k's keys all order before shard k + 1's.
 */
class ContextTable
{
  public:
    static constexpr int kSerialBits = 20;
    static constexpr uint32_t kMaxShard = (1u << (32 - kSerialBits)) - 2;

    /** @param shard < kMaxShard + 1; its root is shard << kSerialBits. */
    explicit ContextTable(uint32_t shard = 0);

    /** The shard's root context: no binding frozen yet. */
    ContextId root() const { return root_; }

    /** `parent` extended by `variable` frozen at `choice`; interned. */
    ContextId extend(ContextId parent, uint32_t variable, int choice);

    /** Shard whose table issued `context`. */
    static uint32_t shard_of(ContextId context)
    {
        return context >> kSerialBits;
    }

  private:
    ContextId root_;
    std::unordered_map<ProfileKey, ContextId> ids_;
};

/** Per-key measurements: what a ranking reads. */
struct ProfileStats
{
    int64_t count = 0;   ///< clean samples
    int64_t faults = 0;  ///< faulted measurements (marked, not sampled)
    double min = 0.0;    ///< fastest sample (valid when count > 0)

    /** Accumulate one sample. */
    void add(double x);

    friend bool operator==(const ProfileStats&,
                           const ProfileStats&) = default;
};

/**
 * What an exploration keeps of its profile shards once they die. The
 * wirer reduces each strategy's ProfileIndex to a summary when the
 * strategy's pipeline ends and folds the summaries in strategy order;
 * shard k's contexts order before shard k + 1's (ContextTable), so the
 * fold keeps `quarantined` in key order.
 */
struct ProfileSummary
{
    int64_t keys = 0;     ///< distinct keys
    int64_t samples = 0;  ///< clean samples across all keys
    int64_t faults = 0;   ///< faulted measurements across all keys

    /** Keys that only ever faulted (faults > 0, no samples), in order. */
    std::vector<ProfileKey> quarantined;

    /**
     * Sum, mod 2^64, of each entry's FNV-1a over its key, count,
     * faults and the bits of its min. Keys are unique, so the sum
     * pins the table as its key-ordered list would, without sorting
     * it, and the digest of disjoint shards folded together equals
     * the digest of one index that recorded them all.
     */
    uint64_t digest = 0;

    /** Add a shard whose keys all order after this summary's. */
    void fold(const ProfileSummary& later);

    friend bool operator==(const ProfileSummary&,
                           const ProfileSummary&) = default;
};

/** Fine-grained measurement store. */
class ProfileIndex
{
  public:
    ProfileIndex() = default;

    /**
     * @param merge_ties rank choices within kTieRel of the best as a
     *        tie, merged onto the lowest index (for clock-normalized
     *        samples). false keeps the strict first-best rule.
     */
    explicit ProfileIndex(bool merge_ties)
        : merge_ties_(merge_ties)
    {
    }

    /** Record a measurement; repeated records keep the minimum. */
    void record(ProfileKey key, double ns);

    /**
     * Mark a key as having produced a faulted measurement instead of a
     * sample. The entry exists (so the wirer can report it as
     * quarantined) but holds no samples, and every ranking — lookup(),
     * best_choice() — skips sample-free entries, so a faulted
     * configuration can never win a binding by default.
     */
    void record_fault(ProfileKey key);

    /** Faulted measurements across all keys. */
    int64_t total_faults() const { return total_faults_; }

    /**
     * Keys that only ever faulted (faults > 0, no samples), in key
     * order — the quarantine list surfaced in the convergence report.
     */
    std::vector<ProfileKey> quarantined_keys() const;

    /** Fastest sample for an exact key, if it has any. */
    std::optional<double> lookup(ProfileKey key) const;

    /** True when a measurement exists for the key. */
    bool contains(ProfileKey key) const;

    /**
     * Among the keys (context, variable, choice) for choice in
     * [0, num_choices), return the choice with the fastest sample
     * (ties, and with merge_ties anything within kTieRel of it, go to
     * the lowest index); -1 when no choice has been measured yet.
     */
    int best_choice(ContextId context, uint32_t variable,
                    int num_choices) const;

    /** Number of distinct keys (state-space accounting / tests). */
    size_t size() const { return entries_.size(); }

    /** Samples across all keys. */
    int64_t total_samples() const { return total_samples_; }

    /** All entries (unordered), for dumps and tests. */
    const std::unordered_map<ProfileKey, ProfileStats>& entries() const
    {
        return entries_;
    }

    /**
     * The entries reduced to a ProfileSummary. The index is left
     * empty, its hash table freed.
     */
    ProfileSummary summarize() &&;

  private:
    bool merge_ties_ = false;
    std::unordered_map<ProfileKey, ProfileStats> entries_;
    int64_t total_samples_ = 0;
    int64_t total_faults_ = 0;
};

}  // namespace astra

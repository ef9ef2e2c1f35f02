/**
 * @file
 * The profile index (paper §4.6): a key-value store of fine-grained
 * measurements gathered during online exploration.
 *
 * Keys are mangled strings of the form
 *   "<context prefix>|<variable key>|<choice>"
 * where the context prefix encodes every higher-level binding the
 * measurement depends on (allocation strategy, bucket, the frozen
 * prefix of earlier epochs, ...). When the custom wirer explores a
 * different higher-level binding, lookups with the new prefix miss and
 * the dependent entries are re-measured — exactly the paper's
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
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace astra {

/**
 * Resolution floor of a clock-normalized ranking, relative to the best
 * value. Normalization is exact to ~1e-14 relative; real separations
 * between configurations sit at >= ~1e-4. Anything in between is a
 * rounding artifact, not a preference.
 */
constexpr double kTieRel = 1e-9;

/** Per-key measurements: what a ranking reads. */
struct ProfileStats
{
    int64_t count = 0;   ///< clean samples
    int64_t faults = 0;  ///< faulted measurements (marked, not sampled)
    double min = 0.0;    ///< fastest sample (valid when count > 0)

    /** Accumulate one sample. */
    void add(double x);
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
    void record(const std::string& key, double ns);

    /**
     * Mark a key as having produced a faulted measurement instead of a
     * sample. The entry exists (so the wirer can report it as
     * quarantined) but holds no samples, and every ranking — lookup(),
     * best_choice() — skips sample-free entries, so a faulted
     * configuration can never win a binding by default.
     */
    void record_fault(const std::string& key);

    /** Faulted measurements across all keys. */
    int64_t total_faults() const { return total_faults_; }

    /**
     * Keys that only ever faulted (faults > 0, no samples) — the
     * quarantine list surfaced in the convergence report.
     */
    std::vector<std::string> quarantined_keys() const;

    /** Fastest sample for an exact key, if it has any. */
    std::optional<double> lookup(const std::string& key) const;

    /** True when a measurement exists for the key. */
    bool contains(const std::string& key) const;

    /**
     * Among keys "<prefix><choice>" for choice in [0, num_choices),
     * return the choice with the fastest sample (ties, and with
     * merge_ties anything within kTieRel of it, go to the lowest
     * index); -1 when no choice has been measured yet.
     */
    int best_choice(const std::string& prefix, int num_choices) const;

    /** Number of distinct keys (state-space accounting / tests). */
    size_t size() const { return entries_.size(); }

    /** Samples across all keys. */
    int64_t total_samples() const { return total_samples_; }

    /** All entries (ordered), for dumps and tests. */
    const std::map<std::string, ProfileStats>& entries() const
    {
        return entries_;
    }

    /**
     * Fold another index's entries and totals into this one. Entries
     * under distinct keys insert as-is; same-key entries add their
     * counts and keep the smaller minimum. The parallel wirer merges
     * per-strategy shards whose strategy context prefixes make the key
     * sets disjoint, so the merged index is bit-identical to the one a
     * serial exploration would have accumulated. Pass an rvalue to
     * move the new entries' nodes across instead of copying them.
     */
    void merge(ProfileIndex other);

  private:
    bool merge_ties_ = false;
    std::map<std::string, ProfileStats> entries_;
    int64_t total_samples_ = 0;
    int64_t total_faults_ = 0;
};

}  // namespace astra

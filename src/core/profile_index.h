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
 * Unlike the paper's prototype, which measures once and trusts the
 * value (justified by pinning the GPU clock, §7), every key here
 * accumulates full per-key statistics (count/min/max/mean/M2 via
 * Welford's algorithm). A MeasurementPolicy then decides how the
 * statistics turn into decisions: which statistic ranks choices, when
 * a sample is rejected as an outlier (MAD test), and how much
 * separation two candidates need before a binding is considered
 * decisive rather than noise (the noise floor). With the default
 * policy the index behaves exactly like the paper's single-measurement
 * store; with a noise-robust policy the custom wirer survives
 * autoboost-style clock jitter (see bench/micro_predictability.cc).
 */
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace astra {

/** Which per-key summary statistic drives lookups and rankings. */
enum class Statistic
{
    Min,   ///< fastest sample (paper default: repeatable at base clock)
    Mean,  ///< Welford mean (robust under zero-mean-ish clock jitter)
};

/** How raw samples become values and decisions (see file header). */
struct MeasurementPolicy
{
    /** Statistic reported by lookup() and ranked by best_choice(). */
    Statistic statistic = Statistic::Min;

    /**
     * MAD outlier test: once a key has at least `outlier_min_window`
     * samples, a new sample x is rejected when
     *   |x - median| > outlier_mad_k * 1.4826 * MAD
     * (1.4826 scales MAD to a sigma-equivalent). 0 disables the test.
     * Rejected samples are counted, never accumulated.
     */
    double outlier_mad_k = 0.0;
    int outlier_min_window = 5;

    /**
     * A choice ranking is decisive only when the top two candidates
     * both have at least `min_samples` samples and their statistics
     * are separated by more than `noise_margin_sigmas` times the
     * combined noise scale (the standard error of each estimate for
     * Mean, the raw spread for Min). The same margin merges
     * statistically indistinguishable choices onto the lowest index —
     * the deterministic tie-break that matches base clock's first-best
     * rule. The custom wirer also measures every exploration trial
     * `min_samples` times, so bindings frozen mid-sweep (Prefix mode)
     * already see averaged statistics. With the defaults (1, 0.0)
     * every ranking is decisive and every trial is measured once —
     * the paper's one-measurement regime.
     */
    int min_samples = 1;
    double noise_margin_sigmas = 0.0;

    /**
     * Re-measurement budget: the custom wirer may spend up to
     * max_repeats - 1 extra mini-batches per stage resolving
     * non-decisive rankings (k-repeat, all ambiguous variables
     * re-measured in parallel per extra mini-batch).
     */
    int max_repeats = 1;

    /**
     * DVFS compensation: multiply every measured span by the device's
     * reported clock multiplier (the NVML clock query,
     * SimGpu::clock_multiplier) before recording, converting wall
     * measurements into base-clock-equivalent time. Where the paper
     * pins the clock (§7), this measures it instead.
     */
    bool normalize_clock = false;

    /**
     * Resolution floor for rankings, relative to the best value: two
     * choices closer than tie_epsilon_rel * best are a tie regardless
     * of observed noise, merged deterministically onto the lowest
     * index. Clock compensation is exact only to floating-point
     * rounding (~1e-14 relative), so sub-resolution "preferences" are
     * measurement artifacts, not real rankings; the floor makes both
     * jitter-free and jittered runs resolve them identically. 0
     * disables the floor (strict comparison, the paper's rule).
     */
    double tie_epsilon_rel = 0.0;

    /**
     * Plan-store L1 trust margin: an exact store hit is adopted only
     * when its verification mini-batch lands within
     * store_drift_rel * stored_best_ns of the stored timing. A larger
     * drift means the entry is stale for this device (changed clocks,
     * different timing model) and the session demotes it to an L2 warm
     * start — the wirer re-measures with the stored configuration as a
     * seed instead of pinning a possibly-wrong plan for the whole job.
     * <= 0 disables the check (any verified dispatch is trusted).
     */
    double store_drift_rel = 0.25;

    /** Preset that tolerates autoboost-style clock jitter (§7). */
    static MeasurementPolicy noise_robust();
};

/** Per-key accumulated measurements (Welford online statistics). */
struct ProfileStats
{
    int64_t count = 0;     ///< accepted samples
    int64_t rejected = 0;  ///< samples dropped by the outlier test
    int64_t faults = 0;    ///< faulted measurements (marked, not sampled)
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double m2 = 0.0;  ///< sum of squared deviations (Welford)

    /** Accumulate one sample (no outlier test at this level). */
    void add(double x);

    /**
     * Fold another accumulator into this one (parallel Welford
     * combine: counts, min/max, mean and M2 merge exactly; the sample
     * window concatenates, keeping the most recent kWindowCap).
     */
    void merge(const ProfileStats& other);

    /** Population variance (0 with fewer than two samples). */
    double variance() const;
    double stddev() const;

    /** Coefficient of variation, stddev/|mean| (0 if mean is 0). */
    double cov() const;

    /** The summary value under a given statistic. */
    double value(Statistic s) const;

    /** Median of the retained sample window. */
    double median() const;

    /** Median absolute deviation of the retained sample window. */
    double mad() const;

    /**
     * Recent raw samples, capped at a small window (for the MAD test;
     * Welford fields cover the full history).
     */
    const std::vector<double>& window() const { return window_; }

  private:
    static constexpr size_t kWindowCap = 32;
    std::vector<double> window_;
};

/** Outcome of ranking the choices of one variable. */
struct ChoiceDecision
{
    /**
     * Best measured choice by the policy statistic — or, when a
     * lower-indexed choice is statistically indistinguishable from the
     * winner, that lower index (deterministic tie-break).
     */
    int choice = -1;

    /**
     * The contender `choice` must out-separate: the second-best
     * measured choice, or the displaced winner after a tie-merge. -1
     * when fewer than two choices are measured.
     */
    int runner_up = -1;

    /** Statistic separation between choice and runner_up (ns). */
    double separation = 0.0;

    /** Combined noise floor of the pair (ns, sigma-equivalent). */
    double noise = 0.0;

    /**
     * True when the winner clears the policy's noise floor (or the
     * policy is the legacy always-decisive one). A non-decisive
     * ranking asks for re-measurement before binding.
     */
    bool decisive = true;
};

/** Fine-grained measurement store. */
class ProfileIndex
{
  public:
    ProfileIndex() = default;
    explicit ProfileIndex(MeasurementPolicy policy)
        : policy_(policy)
    {
    }

    const MeasurementPolicy& policy() const { return policy_; }

    /**
     * Record a measurement; repeated records accumulate statistics.
     * Returns false when the sample was rejected as an outlier.
     */
    bool record(const std::string& key, double ns);

    /**
     * Mark a key as having produced a faulted measurement instead of a
     * sample. The entry exists (so the wirer can report it as
     * quarantined) but holds no accepted samples, and every ranking —
     * lookup(), best_choice(), decide() — skips sample-free entries, so
     * a faulted configuration can never win a binding by default.
     */
    void record_fault(const std::string& key);

    /** Faulted measurements across all keys. */
    int64_t total_faults() const { return total_faults_; }

    /**
     * Keys that only ever faulted (faults > 0, no accepted samples) —
     * the quarantine list surfaced in the convergence report.
     */
    std::vector<std::string> quarantined_keys() const;

    /**
     * Summary value (per the policy statistic) for an exact key, if
     * any sample has been accepted for it.
     */
    std::optional<double> lookup(const std::string& key) const;

    /** Full statistics for a key; nullptr when never recorded. */
    const ProfileStats* stats(const std::string& key) const;

    /** Accepted-sample count for a key (0 when never recorded). */
    int64_t samples(const std::string& key) const;

    /** True when a measurement exists for the key. */
    bool contains(const std::string& key) const;

    /**
     * Among keys "<prefix><choice>" for choice in [0, num_choices),
     * return the choice with the best summary statistic; -1 when no
     * choice has been measured yet.
     */
    int best_choice(const std::string& prefix, int num_choices) const;

    /**
     * Noise-aware ranking of "<prefix><choice>" keys: best choice,
     * runner-up, their separation versus the observed noise floor, and
     * whether the winner is decisive under the policy.
     */
    ChoiceDecision decide(const std::string& prefix,
                          int num_choices) const;

    /** Number of distinct keys (state-space accounting / tests). */
    size_t size() const { return entries_.size(); }

    /** Accepted samples across all keys. */
    int64_t total_samples() const { return total_samples_; }

    /** Outlier-rejected samples across all keys. */
    int64_t total_rejected() const { return total_rejected_; }

    /** All entries (ordered), for dumps and tests. */
    const std::map<std::string, ProfileStats>& entries() const
    {
        return entries_;
    }

    /**
     * Fold another index's entries and totals into this one. Entries
     * under distinct keys insert as-is; same-key entries merge their
     * statistics (ProfileStats::merge). The parallel wirer merges
     * per-strategy shards whose strategy context prefixes make the key
     * sets disjoint, so the merged index is bit-identical to the one a
     * serial exploration would have accumulated. Pass an rvalue to
     * move the new entries' nodes across instead of copying them.
     */
    void merge(ProfileIndex other);

    void clear();

  private:
    MeasurementPolicy policy_;
    std::map<std::string, ProfileStats> entries_;
    int64_t total_samples_ = 0;
    int64_t total_rejected_ = 0;
    int64_t total_faults_ = 0;
};

}  // namespace astra

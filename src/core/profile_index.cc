#include "core/profile_index.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"

namespace astra {

namespace {

/** Median of a small vector (copy; windows are capped at 32). */
double
median_of(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid),
                     v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    const double lo =
        *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
    return 0.5 * (lo + hi);
}

/** Scales MAD to a standard-deviation equivalent for normal noise. */
constexpr double kMadToSigma = 1.4826;

}  // namespace

MeasurementPolicy
MeasurementPolicy::noise_robust()
{
    MeasurementPolicy p;
    // First line of defense: compensate for the clock. Autoboost jitter
    // is a multiplicative clock change, constant over one mini-batch
    // and queryable (NVML); dividing it out turns every sample into
    // base-clock-equivalent time, exact to FP rounding.
    p.normalize_clock = true;
    // Residual rounding noise is ~1e-14 relative; anything closer than
    // a part-per-billion is below measurement resolution and merges
    // deterministically onto the lowest index.
    p.tie_epsilon_rel = 1e-9;
    // Mean-of-k over compensated samples: averages residual rounding
    // and guards (with the MAD test) against any sample the
    // compensation missed; min would track the most favorable residual
    // instead of the typical one.
    p.statistic = Statistic::Mean;
    p.outlier_mad_k = 3.5;
    p.outlier_min_window = 5;
    p.min_samples = 3;
    // 3 sigma: ties merge to the lowest index with ~99.7% coverage,
    // while real separations below 3 standard errors keep sampling
    // until the repeat budget tightens them into decisiveness.
    p.noise_margin_sigmas = 3.0;
    p.max_repeats = 16;
    return p;
}

void
ProfileStats::add(double x)
{
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
    min = count == 1 ? x : std::min(min, x);
    max = count == 1 ? x : std::max(max, x);
    if (window_.size() >= kWindowCap)
        window_.erase(window_.begin());
    window_.push_back(x);
}

void
ProfileStats::merge(const ProfileStats& other)
{
    rejected += other.rejected;
    faults += other.faults;
    if (other.count == 0)
        return;
    if (count == 0) {
        min = other.min;
        max = other.max;
        mean = other.mean;
        m2 = other.m2;
        count = other.count;
    } else {
        // Chan et al. pairwise combine: exact in exact arithmetic,
        // numerically stable in floating point.
        const double n = static_cast<double>(count);
        const double on = static_cast<double>(other.count);
        const double delta = other.mean - mean;
        mean += delta * on / (n + on);
        m2 += other.m2 + delta * delta * n * on / (n + on);
        min = std::min(min, other.min);
        max = std::max(max, other.max);
        count += other.count;
    }
    for (double x : other.window_) {
        if (window_.size() >= kWindowCap)
            window_.erase(window_.begin());
        window_.push_back(x);
    }
}

double
ProfileStats::variance() const
{
    return count > 1 ? m2 / static_cast<double>(count) : 0.0;
}

double
ProfileStats::stddev() const
{
    return std::sqrt(variance());
}

double
ProfileStats::cov() const
{
    return mean != 0.0 ? stddev() / std::abs(mean) : 0.0;
}

double
ProfileStats::value(Statistic s) const
{
    switch (s) {
      case Statistic::Min:
        return min;
      case Statistic::Mean:
        return mean;
    }
    return min;
}

double
ProfileStats::median() const
{
    return median_of(window_);
}

double
ProfileStats::mad() const
{
    if (window_.empty())
        return 0.0;
    const double med = median_of(window_);
    std::vector<double> dev;
    dev.reserve(window_.size());
    for (double x : window_)
        dev.push_back(std::abs(x - med));
    return median_of(std::move(dev));
}

bool
ProfileIndex::record(const std::string& key, double ns)
{
    static obs::Counter& records = obs::counter("profile_index.records");
    records.add();
    ProfileStats& s = entries_[key];
    if (policy_.outlier_mad_k > 0.0 &&
        s.count >= policy_.outlier_min_window) {
        // Robust outlier test against the recent window. A zero MAD
        // (identical samples, the base-clock case) gets a tiny
        // relative floor so exact repeats are never rejected.
        const double med = s.median();
        const double scale = std::max(kMadToSigma * s.mad(),
                                      1e-9 * std::abs(med));
        if (std::abs(ns - med) > policy_.outlier_mad_k * scale) {
            ++s.rejected;
            ++total_rejected_;
            static obs::Counter& rejected =
                obs::counter("profile_index.outliers_rejected");
            rejected.add();
            return false;
        }
    }
    s.add(ns);
    ++total_samples_;
    return true;
}

void
ProfileIndex::record_fault(const std::string& key)
{
    static obs::Counter& faults =
        obs::counter("profile_index.faulted_records");
    faults.add();
    ++entries_[key].faults;
    ++total_faults_;
}

std::vector<std::string>
ProfileIndex::quarantined_keys() const
{
    std::vector<std::string> out;
    for (const auto& [key, stats] : entries_)
        if (stats.faults > 0 && stats.count == 0)
            out.push_back(key);
    return out;
}

std::optional<double>
ProfileIndex::lookup(const std::string& key) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end() || it->second.count == 0) {
        static obs::Counter& misses =
            obs::counter("profile_index.misses");
        misses.add();
        return std::nullopt;
    }
    static obs::Counter& hits = obs::counter("profile_index.hits");
    hits.add();
    return it->second.value(policy_.statistic);
}

const ProfileStats*
ProfileIndex::stats(const std::string& key) const
{
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
}

int64_t
ProfileIndex::samples(const std::string& key) const
{
    const ProfileStats* s = stats(key);
    return s ? s->count : 0;
}

bool
ProfileIndex::contains(const std::string& key) const
{
    return entries_.count(key) > 0;
}

int
ProfileIndex::best_choice(const std::string& prefix,
                          int num_choices) const
{
    return decide(prefix, num_choices).choice;
}

ChoiceDecision
ProfileIndex::decide(const std::string& prefix, int num_choices) const
{
    ChoiceDecision d;
    const ProfileStats* best = nullptr;
    const ProfileStats* second = nullptr;
    double best_v = 0.0;
    double second_v = 0.0;
    for (int c = 0; c < num_choices; ++c) {
        const ProfileStats* s = stats(prefix + std::to_string(c));
        if (!s || s->count == 0)
            continue;
        const double v = s->value(policy_.statistic);
        if (d.choice < 0 || v < best_v) {
            d.runner_up = d.choice;
            second = best;
            second_v = best_v;
            d.choice = c;
            best = s;
            best_v = v;
        } else if (d.runner_up < 0 || v < second_v) {
            d.runner_up = c;
            second = s;
            second_v = v;
        }
    }
    if (d.choice < 0 || d.runner_up < 0)
        return d;  // fewer than two measured: trivially decisive
    d.separation = second_v - best_v;
    // Noise scale of the comparison. For Mean the relevant scale is
    // the standard error of each estimate — it shrinks as 1/sqrt(k),
    // so repetition can always make a real separation decisive. For
    // Min the raw per-sample spread is used (a heuristic: min has no
    // simple standard error).
    auto est_var = [&](const ProfileStats* s) {
        double v = s->variance();
        if (policy_.statistic == Statistic::Mean && s->count > 0)
            v /= static_cast<double>(s->count);
        return v;
    };
    d.noise = std::sqrt(est_var(best) + est_var(second));
    if (policy_.noise_margin_sigmas > 0.0) {
        const double eps = policy_.tie_epsilon_rel * std::abs(best_v);
        const bool sampled = best->count >= policy_.min_samples &&
                             second->count >= policy_.min_samples;
        // With zero observed noise any separation (even a dead tie)
        // is decisive: more samples cannot change the ranking. A
        // separation below the resolution floor is likewise decisive —
        // it is a tie by definition, not an open question.
        d.decisive = sampled &&
                     (d.separation >= policy_.noise_margin_sigmas * d.noise ||
                      d.separation <= eps || d.noise == 0.0);
        // Deterministic tie resolution: prefer the lowest-indexed
        // choice statistically indistinguishable from the winner
        // (within the noise floor or the resolution floor). At base
        // clock the noise floor is zero, so only resolution-level ties
        // merge — which matches the jitter-free first-best rule. This
        // is what lets a noisy run converge to the same configuration
        // as a jitter-free one instead of coin-flipping every tie.
        for (int c = 0; c < d.choice; ++c) {
            const ProfileStats* s = stats(prefix + std::to_string(c));
            if (!s || s->count == 0)
                continue;
            const double v = s->value(policy_.statistic);
            const double pair_noise =
                std::sqrt(est_var(s) + est_var(best));
            const double floor = std::max(
                policy_.noise_margin_sigmas * pair_noise, eps);
            if (v - best_v <= floor) {
                // Report the tied pair so re-measurement targets it.
                // A resolution-floor tie is settled; a noise-floor tie
                // stays non-decisive (more samples may yet separate
                // the pair).
                d.runner_up = d.choice;
                d.choice = c;
                d.separation = v - best_v;
                d.noise = pair_noise;
                d.decisive = s->count >= policy_.min_samples &&
                             best->count >= policy_.min_samples &&
                             (d.separation <= eps || d.noise == 0.0);
                break;
            }
        }
    }
    return d;
}

void
ProfileIndex::merge(ProfileIndex other)
{
    // Splice the nodes of keys new here; keys both hold stay in `other`.
    entries_.merge(other.entries_);
    for (const auto& [key, stats] : other.entries_)
        entries_.find(key)->second.merge(stats);
    total_samples_ += other.total_samples_;
    total_rejected_ += other.total_rejected_;
    total_faults_ += other.total_faults_;
}

void
ProfileIndex::clear()
{
    entries_.clear();
    total_samples_ = 0;
    total_rejected_ = 0;
    total_faults_ = 0;
}

}  // namespace astra

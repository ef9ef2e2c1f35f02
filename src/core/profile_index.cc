#include "core/profile_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "core/plan_store.h"
#include "obs/obs.h"
#include "support/logging.h"

namespace astra {

namespace {

/** The entry for `key` when it holds a sample, else null. */
const ProfileStats*
sampled(const std::unordered_map<ProfileKey, ProfileStats>& entries,
        ProfileKey key)
{
    const auto it = entries.find(key);
    return it == entries.end() || it->second.count == 0 ? nullptr
                                                        : &it->second;
}

}  // namespace

ContextTable::ContextTable(uint32_t shard)
    : root_(shard << kSerialBits)
{
    ASTRA_ASSERT(shard <= kMaxShard, "context shard ", shard,
                 " out of range");
}

ContextId
ContextTable::extend(ContextId parent, uint32_t variable, int choice)
{
    const auto [it, inserted] = ids_.try_emplace(
        ProfileKey(parent, variable, choice),
        root_ + static_cast<ContextId>(ids_.size()) + 1);
    ASTRA_ASSERT(shard_of(it->second) == shard_of(root_),
                 "context table of shard ", shard_of(root_), " is full");
    return it->second;
}

void
ProfileStats::add(double x)
{
    min = count == 0 ? x : std::min(min, x);
    ++count;
}

void
ProfileIndex::record(ProfileKey key, double ns)
{
    static obs::Counter& records = obs::counter("profile_index.records");
    records.add();
    entries_[key].add(ns);
    ++total_samples_;
}

void
ProfileIndex::record_fault(ProfileKey key)
{
    static obs::Counter& faults =
        obs::counter("profile_index.faulted_records");
    faults.add();
    ++entries_[key].faults;
    ++total_faults_;
}

std::vector<ProfileKey>
ProfileIndex::quarantined_keys() const
{
    std::vector<ProfileKey> out;
    for (const auto& [key, stats] : entries_)
        if (stats.faults > 0 && stats.count == 0)
            out.push_back(key);
    std::sort(out.begin(), out.end());
    return out;
}

std::optional<double>
ProfileIndex::lookup(ProfileKey key) const
{
    const ProfileStats* s = sampled(entries_, key);
    if (s == nullptr) {
        static obs::Counter& misses =
            obs::counter("profile_index.misses");
        misses.add();
        return std::nullopt;
    }
    static obs::Counter& hits = obs::counter("profile_index.hits");
    hits.add();
    return s->min;
}

bool
ProfileIndex::contains(ProfileKey key) const
{
    return entries_.count(key) > 0;
}

int
ProfileIndex::best_choice(ContextId context, uint32_t variable,
                          int num_choices) const
{
    int best = -1;
    double best_v = 0.0;
    for (int c = 0; c < num_choices; ++c) {
        const ProfileStats* s =
            sampled(entries_, ProfileKey(context, variable, c));
        if (s != nullptr && (best < 0 || s->min < best_v)) {
            best = c;
            best_v = s->min;
        }
    }
    if (!merge_ties_)
        return best;
    // Normalized samples: a lower index within the resolution floor is
    // the same configuration up to rounding, so it takes the binding a
    // base-clock run would give it.
    const double floor = kTieRel * std::abs(best_v);
    for (int c = 0; c < best; ++c) {
        const ProfileStats* s =
            sampled(entries_, ProfileKey(context, variable, c));
        if (s != nullptr && s->min - best_v <= floor)
            return c;
    }
    return best;
}

ProfileSummary
ProfileIndex::summarize() &&
{
    ProfileSummary out;
    out.keys = static_cast<int64_t>(entries_.size());
    out.samples = std::exchange(total_samples_, 0);
    out.faults = std::exchange(total_faults_, 0);
    out.quarantined = quarantined_keys();
    for (const auto& [key, stats] : entries_) {
        uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(stats.min));
        std::memcpy(&bits, &stats.min, sizeof(bits));
        const uint64_t fields[] = {key.bits(),
                                   static_cast<uint64_t>(stats.count),
                                   static_cast<uint64_t>(stats.faults),
                                   bits};
        out.digest += fnv1a64(fields, sizeof(fields), kFnvOffset);
    }
    std::unordered_map<ProfileKey, ProfileStats>().swap(entries_);
    return out;
}

void
ProfileSummary::fold(const ProfileSummary& later)
{
    keys += later.keys;
    samples += later.samples;
    faults += later.faults;
    ASTRA_ASSERT(quarantined.empty() || later.quarantined.empty() ||
                     quarantined.back() < later.quarantined.front(),
                 "profile summaries out of key order");
    quarantined.insert(quarantined.end(), later.quarantined.begin(),
                       later.quarantined.end());
    digest += later.digest;
}

}  // namespace astra

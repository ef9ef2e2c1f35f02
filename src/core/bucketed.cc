#include "core/bucketed.h"

#include <algorithm>

#include "obs/obs.h"
#include "support/logging.h"

namespace astra {

BucketedAstra::BucketedAstra(std::vector<int> bucket_lengths,
                             LengthGraphFn build, AstraOptions opts)
    : lengths_(std::move(bucket_lengths)),
      overflow_counter_(&obs::counter("bucketed.length_overflows"))
{
    ASTRA_ASSERT(!lengths_.empty());
    ASTRA_ASSERT(std::is_sorted(lengths_.begin(), lengths_.end()));
    for (int len : lengths_) {
        Bucket b;
        b.builder = std::make_unique<GraphBuilder>();
        build(*b.builder, len);
        // Each bucket's session explores into its own profile index
        // (§5.5), so the per-bucket explorations never alias.
        b.session =
            std::make_unique<AstraSession>(b.builder->graph(), opts);
        buckets_.push_back(std::move(b));
    }
}

int64_t
BucketedAstra::optimize(const std::function<void(int)>& after_bucket)
{
    int64_t total = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        Bucket& b = buckets_[i];
        b.result = b.session->optimize();
        b.optimized = true;
        total += b.result.minibatches;
        if (after_bucket)
            after_bucket(static_cast<int>(i));
    }
    return total;
}

int
BucketedAstra::clamped_index(int length) const
{
    for (size_t i = 0; i < lengths_.size(); ++i)
        if (length <= lengths_[i])
            return static_cast<int>(i);
    // Longer than every bucket: the padded graph is *shorter* than the
    // input, so a real serving path would truncate tokens here.
    return static_cast<int>(lengths_.size()) - 1;
}

int
BucketedAstra::bucket_for(int length) const
{
    const int idx = clamped_index(length);
    if (length <= lengths_.back())
        return idx;
    // Clamp, but keep count: the warning fires once per instance
    // (steady-state serving hits this per mini-batch), while the tally
    // and obs counter record every clamp.
    overflow_count_.fetch_add(1, std::memory_order_relaxed);
    overflow_counter_->add();
    if (!warned_overflow_.exchange(true, std::memory_order_relaxed))
        warn("bucket_for(", length, "): length exceeds largest bucket ",
             lengths_.back(), "; clamping (input would be truncated)");
    return idx;
}

double
BucketedAstra::step_ns(int length) const
{
    // Non-counting lookup: the caller's bucket_for already tallied an
    // overflowing length when it routed the request — re-invoking the
    // counting path here would record every overflow twice.
    const Bucket& b =
        buckets_[static_cast<size_t>(clamped_index(length))];
    ASTRA_ASSERT(b.optimized, "call optimize() first");
    // Steady state re-runs the bucket's best configuration; the padded
    // (bucket-length) graph is what executes.
    return b.session->run(b.result.best_config).total_ns;
}

double
BucketedAstra::bucket_best_ns(int i) const
{
    ASTRA_ASSERT(i >= 0 && i < static_cast<int>(buckets_.size()));
    ASTRA_ASSERT(buckets_[static_cast<size_t>(i)].optimized);
    return buckets_[static_cast<size_t>(i)].result.best_ns;
}

const AstraSession&
BucketedAstra::session(int i) const
{
    ASTRA_ASSERT(i >= 0 && i < static_cast<int>(buckets_.size()));
    return *buckets_[static_cast<size_t>(i)].session;
}

const WirerResult&
BucketedAstra::bucket_result(int i) const
{
    ASTRA_ASSERT(i >= 0 && i < static_cast<int>(buckets_.size()));
    ASTRA_ASSERT(buckets_[static_cast<size_t>(i)].optimized,
                 "call optimize() first");
    return buckets_[static_cast<size_t>(i)].result;
}

}  // namespace astra

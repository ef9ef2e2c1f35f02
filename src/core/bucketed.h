/**
 * @file
 * Bucketed profiling for dynamic graphs (paper §5.5).
 *
 * Variable-length inputs violate the mini-batch-predictability
 * assumption, so Astra buckets input lengths, builds one graph per
 * bucket, and runs an independent exploration inside each bucket, into
 * the bucket session's own profile index. A mini-batch of true
 * length L executes in the smallest bucket >= L, paying a small amount
 * of extra (padded) computation.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/astra.h"
#include "graph/builder.h"

namespace astra {

namespace obs {
class Counter;  // obs/obs.h
}  // namespace obs

/** Builds the model graph for one input length. */
using LengthGraphFn = std::function<void(GraphBuilder&, int length)>;

/** Per-bucket Astra sessions over a length-bucketed dynamic model. */
class BucketedAstra
{
  public:
    /**
     * @param bucket_lengths ascending bucket boundaries (paper: 5
     *        buckets calibrated on the input-length distribution).
     */
    BucketedAstra(std::vector<int> bucket_lengths, LengthGraphFn build,
                  AstraOptions opts);

    /**
     * Explore every bucket in turn; `after_bucket(i)` runs once bucket
     * i has explored, before the next bucket starts. Returns total
     * exploration mini-batches.
     */
    int64_t optimize(const std::function<void(int)>& after_bucket = {});

    /**
     * Index of the bucket serving a true input length.
     *
     * Lengths beyond the largest bucket boundary are clamped into the
     * last bucket — on a real serving path that truncates tokens, so
     * the first such length triggers a warning (once per instance);
     * size the largest bucket from the true length distribution.
     * Every overflow is tallied (overflow_count(), obs counter
     * "bucketed.length_overflows") so steady-state clamping is visible
     * even after the one-shot warning went quiet. The serving path
     * never gets here with such a length: its admission queue rejects
     * it first (serve/queue.h).
     */
    int bucket_for(int length) const;

    /** Lengths clamped into the last bucket since construction. */
    int64_t overflow_count() const
    {
        return overflow_count_.load(std::memory_order_relaxed);
    }

    /**
     * Simulated time of one steady-state mini-batch of true length.
     *
     * Routes through the non-counting index lookup: overflow tallying
     * belongs to bucket_for (the routing decision), so a request a
     * caller already routed is never double-counted when it is then
     * served.
     */
    double step_ns(int length) const;

    const std::vector<int>& bucket_lengths() const { return lengths_; }

    int num_buckets() const { return static_cast<int>(buckets_.size()); }

    /** Best-config time of bucket i (post-optimize). */
    double bucket_best_ns(int i) const;

    /**
     * Bucket i's Astra session — the serving loop lowers per-bucket
     * wired binaries against its scheduler and tensor maps.
     */
    const AstraSession& session(int i) const;

    /** Bucket i's full exploration outcome (post-optimize). */
    const WirerResult& bucket_result(int i) const;

  private:
    /**
     * Pure index math shared by bucket_for and step_ns: smallest
     * covering bucket, clamped to the last one past the largest
     * boundary. No tally, no warn — callers that represent a *routing
     * decision* count overflows, callers that serve an already-routed
     * length must not.
     */
    int clamped_index(int length) const;

    struct Bucket
    {
        std::unique_ptr<GraphBuilder> builder;
        std::unique_ptr<AstraSession> session;
        WirerResult result;
        bool optimized = false;
    };

    std::vector<int> lengths_;
    std::vector<Bucket> buckets_;

    /**
     * Clamp warned once per instance. Atomic: concurrent serving
     * threads route requests through const bucket_for, and a plain
     * mutable bool written from several of them is a data race.
     */
    mutable std::atomic<bool> warned_overflow_{false};
    mutable std::atomic<int64_t> overflow_count_{0};

    /**
     * Cached handle of the "bucketed.length_overflows" counter: the
     * registry lookup is a string-keyed map hit behind a lock, too
     * expensive per request on the serving fast path. Counters live
     * forever, so the handle never dangles.
     */
    obs::Counter* overflow_counter_ = nullptr;
};

}  // namespace astra

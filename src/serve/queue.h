/**
 * @file
 * Deadline-aware admission queue with dynamic batching.
 *
 * Serving-side counterpart of the paper's §5.5 bucketing: each admitted
 * request is routed through BucketedAstra::bucket_for to the smallest
 * covering bucket and queued there; the dispatch policy then forms
 * per-bucket mini-batches, trading batching efficiency (fuller batches
 * amortize the padded graph over more requests) against deadline risk
 * (waiting for stragglers burns the head request's slack).
 *
 * A request longer than the largest bucket is *rejected at admission*
 * (tallied in rejected(), visible in the report) instead of silently
 * truncated: on a serving path, a refused request is honest and a
 * truncated answer is not. So every admitted length has a covering
 * bucket, and the router's clamp never fires on the serving path.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/bucketed.h"
#include "serve/traffic.h"

namespace astra::serve {

/** What a bounded queue does when a bucket is full. */
enum class QueuePolicy
{
    /**
     * Reject the arriving request (classic tail-drop). Simple but
     * goodput-blind: it protects whoever queued first, even when the
     * newcomer has far more deadline slack than a doomed head request.
     */
    FifoOverflow,

    /**
     * EDF-aware shedding: evict the queued request with the *latest*
     * deadline to make room (the arriving request may be that victim).
     * Combined with shed_hopeless(), this approximates the
     * goodput-optimal drop rule — capacity goes to the requests that
     * can still meet their deadlines.
     */
    EdfShed,
};

/** Outcome of one admit() under a bounded queue. */
struct AdmitResult
{
    bool admitted = false;

    /** True when a previously-queued victim was evicted to make room. */
    bool evicted = false;

    /** The evicted request (valid when evicted). */
    ServeRequest victim;
};

/** Per-bucket FIFO queues behind one admission decision. */
class AdmissionQueue
{
  public:
    /**
     * @param router the bucketed sessions whose bucket_for routes every
     *        admission; must outlive the queue.
     * @param capacity per-bucket queue bound (0 = unbounded).
     * @param policy what to do when a bucket is at capacity.
     */
    explicit AdmissionQueue(const BucketedAstra& router,
                            size_t capacity = 0,
                            QueuePolicy policy =
                                QueuePolicy::FifoOverflow);

    /**
     * Route and enqueue one request. Returns false (and tallies the
     * rejection) when the length exceeds the largest bucket.
     */
    bool admit(const ServeRequest& r);

    /**
     * admit() with full bounded-queue outcome reporting: under
     * EdfShed a full bucket evicts its latest-deadline request (which
     * may be the arrival itself) instead of rejecting the arrival.
     */
    AdmitResult admit_bounded(const ServeRequest& r);

    /**
     * Re-enqueue a request that was already admitted once (failover
     * retry): pushed at the *front* of its bucket so age order is
     * preserved, never counted as a second admission, and exempt from
     * the capacity bound (its slot was already granted). Its length
     * must be admissible.
     */
    void requeue(const ServeRequest& r);

    /**
     * Drop queued requests of one bucket whose deadline can no longer
     * be met even if dispatched immediately (deadline < now_ns +
     * expected_service_ns). Returns the shed requests — the caller
     * owns their accounting.
     */
    std::vector<ServeRequest> shed_hopeless(int bucket, double now_ns,
                                            double expected_service_ns);

    bool empty() const;

    /** Queued requests across all buckets. */
    size_t depth() const;

    size_t depth(int bucket) const;

    /**
     * Bucket whose head request has the earliest deadline — the one a
     * deadline-aware dispatcher should consider launching next. Ties
     * break to the smaller bucket (less padding). -1 when all queues
     * are empty.
     */
    int most_urgent_bucket() const;

    /** Head (oldest) request of a non-empty bucket queue. */
    const ServeRequest& head(int bucket) const;

    /** Dequeue up to max_batch requests from one bucket, FIFO order. */
    std::vector<ServeRequest> pop_batch(int bucket, int max_batch);

    /** Requests refused as longer than the largest bucket. */
    int64_t rejected() const { return rejected_; }

    /** Requests admitted since construction. */
    int64_t admitted() const { return admitted_; }

    /** Requests refused or evicted by the capacity bound. */
    int64_t overflowed() const { return overflowed_; }

  private:
    const BucketedAstra* router_;
    std::vector<std::deque<ServeRequest>> queues_;
    size_t capacity_ = 0;  ///< per-bucket bound (0 = unbounded)
    QueuePolicy policy_ = QueuePolicy::FifoOverflow;
    int64_t rejected_ = 0;
    int64_t admitted_ = 0;
    int64_t overflowed_ = 0;
};

}  // namespace astra::serve

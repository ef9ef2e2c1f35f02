#include "serve/queue.h"

#include "support/logging.h"

namespace astra::serve {

AdmissionQueue::AdmissionQueue(const BucketedAstra& router,
                               size_t capacity, QueuePolicy policy)
    : router_(&router),
      queues_(static_cast<size_t>(router.num_buckets())),
      capacity_(capacity),
      policy_(policy)
{
}

bool
AdmissionQueue::admit(const ServeRequest& r)
{
    return admit_bounded(r).admitted;
}

AdmitResult
AdmissionQueue::admit_bounded(const ServeRequest& r)
{
    AdmitResult out;
    if (r.length > router_->bucket_lengths().back()) {
        // No bucket covers it, and serving it would truncate tokens.
        // Refusal is a per-request outcome here, not a job abort.
        ++rejected_;
        return out;
    }
    auto& q = queues_[static_cast<size_t>(router_->bucket_for(r.length))];
    if (capacity_ > 0 && q.size() >= capacity_) {
        ++overflowed_;
        if (policy_ == QueuePolicy::FifoOverflow) {
            // Tail-drop: the arrival loses, whatever its slack.
            return out;
        }
        // EdfShed: the latest deadline in {queue ∪ arrival} loses.
        size_t worst = q.size();  // sentinel: the arrival itself
        double worst_deadline = r.deadline_ns;
        for (size_t i = 0; i < q.size(); ++i) {
            if (q[i].deadline_ns > worst_deadline) {
                worst = i;
                worst_deadline = q[i].deadline_ns;
            }
        }
        if (worst == q.size())
            return out;  // the arrival is the most hopeless: reject it
        out.evicted = true;
        out.victim = q[worst];
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(worst));
        // Fall through: the arrival takes the vacated slot.
    }
    q.push_back(r);
    ++admitted_;
    out.admitted = true;
    return out;
}

void
AdmissionQueue::requeue(const ServeRequest& r)
{
    ASTRA_ASSERT(r.length <= router_->bucket_lengths().back(),
                 "requeue of a never-admissible request");
    // Front of the queue (it is the oldest work we hold), no admitted_
    // bump (it was counted at first admission), no capacity check (its
    // slot was already granted — failover must not turn into a drop).
    queues_[static_cast<size_t>(router_->bucket_for(r.length))].push_front(r);
}

std::vector<ServeRequest>
AdmissionQueue::shed_hopeless(int bucket, double now_ns,
                              double expected_service_ns)
{
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(queues_.size()));
    auto& q = queues_[static_cast<size_t>(bucket)];
    std::vector<ServeRequest> shed;
    for (auto it = q.begin(); it != q.end();) {
        if (it->deadline_ns < now_ns + expected_service_ns) {
            shed.push_back(*it);
            it = q.erase(it);
        } else {
            ++it;
        }
    }
    return shed;
}

bool
AdmissionQueue::empty() const
{
    for (const auto& q : queues_)
        if (!q.empty())
            return false;
    return true;
}

size_t
AdmissionQueue::depth() const
{
    size_t n = 0;
    for (const auto& q : queues_)
        n += q.size();
    return n;
}

size_t
AdmissionQueue::depth(int bucket) const
{
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(queues_.size()));
    return queues_[static_cast<size_t>(bucket)].size();
}

int
AdmissionQueue::most_urgent_bucket() const
{
    int best = -1;
    double best_deadline = 0.0;
    for (size_t b = 0; b < queues_.size(); ++b) {
        if (queues_[b].empty())
            continue;
        const double d = queues_[b].front().deadline_ns;
        if (best < 0 || d < best_deadline) {
            best = static_cast<int>(b);
            best_deadline = d;
        }
    }
    return best;
}

const ServeRequest&
AdmissionQueue::head(int bucket) const
{
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(queues_.size()));
    ASTRA_ASSERT(!queues_[static_cast<size_t>(bucket)].empty());
    return queues_[static_cast<size_t>(bucket)].front();
}

std::vector<ServeRequest>
AdmissionQueue::pop_batch(int bucket, int max_batch)
{
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(queues_.size()));
    ASTRA_ASSERT(max_batch > 0);
    auto& q = queues_[static_cast<size_t>(bucket)];
    std::vector<ServeRequest> out;
    while (!q.empty() && static_cast<int>(out.size()) < max_batch) {
        out.push_back(q.front());
        q.pop_front();
    }
    return out;
}

}  // namespace astra::serve

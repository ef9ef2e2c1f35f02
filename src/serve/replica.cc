#include "serve/replica.h"

#include <utility>

#include "support/logging.h"

namespace astra::serve {

const char*
replica_health_name(ReplicaHealth h)
{
    switch (h) {
      case ReplicaHealth::Healthy: return "healthy";
      case ReplicaHealth::Degraded: return "degraded";
      case ReplicaHealth::Dead: return "dead";
    }
    return "?";
}

Replica::Replica(ReplicaOptions opts, int num_buckets)
    : opts_(std::move(opts)),
      slots_(static_cast<size_t>(num_buckets)),
      gpu_(opts_.gpu),
      degraded_(static_cast<size_t>(num_buckets), 0)
{
    ASTRA_ASSERT(num_buckets > 0);
}

BucketedServer::BucketPlan
Replica::plan(int bucket) const
{
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(slots_.size()));
    std::lock_guard<std::mutex> lock(slots_mu_);
    return slots_[static_cast<size_t>(bucket)];
}

void
Replica::install(int bucket, BucketedServer::BucketPlan plan)
{
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(slots_.size()));
    ASTRA_ASSERT(plan.binary != nullptr);
    std::lock_guard<std::mutex> lock(slots_mu_);
    auto& slot = slots_[static_cast<size_t>(bucket)];
    plan.epoch = slot.binary == nullptr ? 0 : slot.epoch + 1;
    slot = std::move(plan);
}

const GpuConfig&
Replica::gpu_at(double t_ns)
{
    while (next_step_ < opts_.clock_schedule.size() &&
           opts_.clock_schedule[next_step_].at_ns <= t_ns) {
        gpu_.forced_clock_multiplier =
            opts_.clock_schedule[next_step_].clock_multiplier;
        ++next_step_;
    }
    return gpu_;
}

void
Replica::reset_clock()
{
    gpu_ = opts_.gpu;
    next_step_ = 0;
}

bool
Replica::alive_at(const FaultPlan& faults, double t_ns) const
{
    return replica_alive(faults, opts_.id, t_ns);
}

bool
Replica::degraded(int bucket) const
{
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(degraded_.size()));
    return degraded_[static_cast<size_t>(bucket)] != 0;
}

void
Replica::set_degraded(int bucket, bool on)
{
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(degraded_.size()));
    degraded_[static_cast<size_t>(bucket)] = on ? 1 : 0;
}

bool
Replica::any_degraded() const
{
    for (char d : degraded_)
        if (d != 0)
            return true;
    return false;
}

}  // namespace astra::serve

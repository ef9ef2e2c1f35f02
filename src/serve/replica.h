/**
 * @file
 * One failure domain of the serving fleet.
 *
 * A Replica is the unit the router (serve/router.h) routes around: it
 * owns its own simulated device configuration (its clock domain — an
 * independently-applied ClockStep schedule), its own installed wired
 * plans (one BucketPlan slot per length bucket, behind a swap mutex:
 * the serving layer's only install/snapshot/epoch rule), its own
 * drift/degradation state, and its own counters. It deliberately does
 * NOT own exploration sessions: all replicas serve plans lowered by the
 * fleet's prototype BucketedServer, so a fleet of G replicas costs one
 * wiring run, not G — the paper's predictability argument applied to
 * the fleet (identical DFG ⇒ identical plan), while each replica's
 * *execution* stays in its own clock/fault domain.
 *
 * Liveness is not stored here: it is a pure function of simulated time
 * (sim/faults.h replica_alive), so the router asks the schedule, and
 * what the Replica tracks is the router's *belief* (ReplicaHealth) —
 * the gap between the two is exactly the heartbeat detection window
 * the chaos bench pins.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/server.h"
#include "sim/faults.h"

namespace astra::serve {

/** The router's belief about a replica. */
enum class ReplicaHealth
{
    Healthy,   ///< routable, serving wired plans
    Degraded,  ///< routable, but >=1 bucket fell back to generic dispatch
    Dead,      ///< not routable (heartbeat deadline missed)
};

/** Stable lowercase name ("healthy", "degraded", "dead"). */
const char* replica_health_name(ReplicaHealth h);

/** Per-replica tallies folded into the FleetReport. */
struct ReplicaStats
{
    int64_t batches = 0;          ///< dispatched mini-batches
    int64_t generic_batches = 0;  ///< served via generic dispatch
    int64_t served = 0;           ///< requests completed here
    int64_t failed_batches = 0;   ///< batches lost to a death mid-flight
    int64_t rewires = 0;
    int64_t swaps = 0;            ///< plan installs (incl. swap-backs)
    int64_t swap_backs = 0;       ///< degraded -> wired recoveries
    int64_t deaths = 0;           ///< detected down transitions
    int64_t rejoins = 0;          ///< detected up transitions
};

/** Construction-time identity of one replica. */
struct ReplicaOptions
{
    int id = 0;

    /** This replica's device (its own clock/fault domain). */
    GpuConfig gpu;

    /** Injected drift schedule for this replica alone. */
    std::vector<ClockStep> clock_schedule;
};

/**
 * Plan slots + health + clock domain of one replica. Install and plan
 * snapshot are thread-safe (under a mutex); everything else is owned
 * by the router's single-threaded DES loop.
 */
class Replica
{
  public:
    explicit Replica(ReplicaOptions opts, int num_buckets);

    Replica(const Replica&) = delete;
    Replica& operator=(const Replica&) = delete;

    int id() const { return opts_.id; }

    /** This replica's injected drift schedule. */
    const std::vector<ClockStep>& clock_schedule() const
    {
        return opts_.clock_schedule;
    }

    /** Swap-safe snapshot of a bucket's installed plan. */
    BucketedServer::BucketPlan plan(int bucket) const;

    /**
     * Install a plan revision. The first install into an empty slot is
     * epoch 0 (the initial wiring); every later one is a hot-swap and
     * stamps the next epoch, which resets the bucket's drift window by
     * construction (watcher keys embed the epoch).
     */
    void install(int bucket, BucketedServer::BucketPlan plan);

    /**
     * The device configuration at simulated time t_ns: base config
     * with every clock step at_ns <= t_ns applied, in order. Steps are
     * consumed monotonically — callers advance time forward only,
     * until reset_clock().
     */
    const GpuConfig& gpu_at(double t_ns);

    /** Rewind the clock schedule to t = 0 (base config, no step applied). */
    void reset_clock();

    /** Ground-truth liveness under the fault plan (oracle, not belief). */
    bool alive_at(const FaultPlan& faults, double t_ns) const;

    // ---- router belief + degradation state (DES-thread only) ---------

    ReplicaHealth health() const { return health_; }
    void set_health(ReplicaHealth h) { health_ = h; }

    /** True when this bucket's wired blob is invalidated. */
    bool degraded(int bucket) const;

    /**
     * Invalidate/revalidate one bucket's wired blob. While degraded
     * the router serves the bucket via generic dispatch — the blob is
     * never replayed once its baseline is stale (drift demotion) or
     * its verification failed; correctness first, host overhead second.
     */
    void set_degraded(int bucket, bool on);

    /** Any bucket currently degraded? */
    bool any_degraded() const;

    ReplicaStats& stats() { return stats_; }
    const ReplicaStats& stats() const { return stats_; }

  private:
    ReplicaOptions opts_;

    mutable std::mutex slots_mu_;
    std::vector<BucketedServer::BucketPlan> slots_;

    GpuConfig gpu_;          ///< base config with applied steps
    size_t next_step_ = 0;   ///< first unapplied clock step

    ReplicaHealth health_ = ReplicaHealth::Healthy;
    std::vector<char> degraded_;
    ReplicaStats stats_;
};

}  // namespace astra::serve

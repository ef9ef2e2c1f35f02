/**
 * @file
 * The serving loop: health-checked failover routing across a fleet of
 * replicas. A single server is a fleet of one replica.
 *
 * BucketedServer (serve/server.h) wires one plan per length bucket
 * offline. ReplicaFleet installs those plans on G Replica failure
 * domains and drains an open-loop request stream (serve/traffic.h)
 * through one deadline-aware admission queue and one discrete-event
 * loop on the simulated clock. Every mini-batch replays its bucket's
 * wired binary on the replica's *current* device configuration, and
 * latency/goodput are accounted first-class (serve/metrics.h).
 * Replicas die mid-batch, flap, and drift, and traffic can exceed what
 * the survivors can carry, so the loop has four duties:
 *
 *  1. *Detection.* Replica liveness is a pure function of simulated
 *     time (sim/faults.h replica_death / replica_flap specs). Replicas
 *     heartbeat continuously while alive; the router declares a
 *     replica Dead when the heartbeat deadline (down edge + 2 x the
 *     largest bucket baseline) passes, and an in-flight batch on a dying
 *     replica surfaces at the same deadline. Because both the fault
 *     schedule and the traffic are seeded, every detection time — and
 *     therefore every failover count — is bit-reproducible.
 *
 *  2. *Failover.* A failed batch's requests are re-queued at the front
 *     of their bucket (age order preserved, never re-counted as
 *     admissions) after an exponential backoff
 *     (FaultPlan::backoff_us * 2^(attempt-1)), bounded by
 *     FaultPlan::max_retries. Completion is exactly-once by
 *     construction: a per-request resolution table asserts no request
 *     is lost and none is double-served.
 *
 *  3. *Shedding.* Under overload a bounded queue with
 *     QueuePolicy::EdfShed evicts the latest-deadline request instead
 *     of tail-dropping the newest (serve/queue.h), and each dispatch
 *     first sheds requests whose deadline can no longer be met even if
 *     launched immediately — capacity goes to requests that still can
 *     win, so goodput strictly beats FIFO tail-drop.
 *
 *  4. *Graceful degradation.* A per-(replica, bucket) drift watcher
 *     keeps the tail of served batch times since the plan's install
 *     (a hot swap starts a fresh window) and compares its median
 *     against the plan's install-time baseline with the plan store's
 *     kStoreDriftRel tolerance.
 *     When it fires, the replica's wired blob is *invalidated* — the
 *     bucket falls back to generic dispatch (same simulated semantics,
 *     no stale compiled stream) while the prototype re-wires it
 *     off-path on the replica's current device, then hot-swaps back to
 *     the wired path between mini-batches: an in-flight batch always
 *     finishes on the plan it started with, and no queued request is
 *     dropped. The swap-back is a counted recovery, and a replica
 *     killed between "re-wire ready" and "swap installed" simply never
 *     installs: its traffic fails over like any other.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/metrics.h"
#include "serve/queue.h"
#include "serve/replica.h"
#include "serve/server.h"
#include "serve/traffic.h"
#include "sim/faults.h"

namespace astra::serve {

/** All knobs of one fleet serving run. */
struct FleetOptions
{
    /**
     * The serving knobs every replica inherits: buckets, model
     * builder, session options (device, measurement, plan store),
     * batching, watcher, re-wire latency. base.clock_schedule applies
     * to replica 0 only (per-replica schedules via replica_clocks).
     */
    ServeOptions base;

    /** Fleet size (failure domains). */
    int replicas = 2;

    /**
     * Per-replica drift schedules (index = replica id). Missing ids:
     * replica 0 falls back to base.clock_schedule, others are calm.
     */
    std::vector<std::vector<ClockStep>> replica_clocks;

    /** Per-bucket queue bound (0 = unbounded) and overflow policy. */
    size_t queue_capacity = 0;
    QueuePolicy queue_policy = QueuePolicy::FifoOverflow;

    /**
     * Replica death/flap schedule. Empty: inherits whatever
     * base.astra.gpu.faults carries (which itself defaults to
     * ASTRA_FAULTS), so chaos CI can arm the fleet via environment.
     */
    FaultPlan faults;
};

/** End-to-end outcome of one fleet serve() run. */
struct FleetReport
{
    /** Aggregate request accounting + latency (all replicas). */
    ServeReport total;

    // ---- resolution accounting (exactly-once audit) ------------------
    int64_t shed = 0;         ///< dropped as hopeless before dispatch
    int64_t evicted = 0;      ///< EdfShed victims at admission
    int64_t failed = 0;       ///< retries exhausted / fleet extinct
    int64_t double_served = 0;  ///< completions of an already-resolved id (must be 0)

    // ---- failover path ----------------------------------------------
    int64_t retries = 0;      ///< re-queued after a failed batch
    int64_t failed_batches = 0;
    int64_t deaths_detected = 0;
    int64_t rejoins = 0;

    /**
     * Requests completed fleet-wide between the first actual down edge
     * and its detection (-1 when no replica ever died) — the failover
     * detection budget the chaos bench pins.
     */
    int64_t failover_detect_budget = -1;

    // ---- degradation path -------------------------------------------
    int64_t generic_batches = 0;  ///< served with an invalidated blob bypassed
    int64_t swap_backs = 0;       ///< degraded -> wired recoveries

    std::vector<ReplicaStats> replicas;

    /** Render as an aligned text block (benches, examples). */
    std::string to_text(const std::string& title) const;
};

/**
 * The fleet runtime: one prototype BucketedServer for wiring/lowering
 * (plans are shared — identical DFG, identical plan), G Replica
 * failure domains for execution, one DES loop for routing.
 */
class ReplicaFleet
{
  public:
    explicit ReplicaFleet(FleetOptions opts);
    ~ReplicaFleet();

    ReplicaFleet(const ReplicaFleet&) = delete;
    ReplicaFleet& operator=(const ReplicaFleet&) = delete;

    /**
     * Offline phase: wire every bucket once on the prototype, then
     * install the epoch-0 plans on every replica. Returns total
     * exploration mini-batches (one wiring run for the whole fleet).
     */
    int64_t optimize();

    /**
     * Drain one generated trace through the fleet (DES). Callable
     * repeatedly: every call starts at t = 0 with fresh metrics,
     * health, degradation and clock schedules; installed plans persist.
     */
    FleetReport serve(const std::vector<ServeRequest>& traffic);

    int num_replicas() const
    {
        return static_cast<int>(replicas_.size());
    }

    Replica& replica(int i);
    const Replica& replica(int i) const;

    /** The prototype server (tests: rewire, router). */
    BucketedServer& prototype() { return *proto_; }

    /** The effective fault plan (explicit or device-inherited). */
    const FaultPlan& faults() const { return faults_; }

    /**
     * Heartbeat deadline: a replica is declared Dead this long after
     * its last heartbeat (its down edge), 2 x the largest bucket
     * baseline (set by optimize()).
     */
    double heartbeat_timeout_ns() const { return heartbeat_ns_; }

  private:
    FleetOptions opts_;
    FaultPlan faults_;
    double heartbeat_ns_ = 0.0;
    std::unique_ptr<BucketedServer> proto_;
    std::vector<std::unique_ptr<Replica>> replicas_;
    bool optimized_ = false;
};

}  // namespace astra::serve

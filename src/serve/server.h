/**
 * @file
 * Serving options and the offline half of serving: bucketed wired plans.
 *
 * The offline story (core/bucketed.h) ends with one converged, wired
 * plan per length bucket. BucketedServer owns that story for serving:
 * it explores every bucket once (BucketedAstra::optimize), lowering
 * each winner into a wired binary (runtime/wired.h) as soon as its
 * bucket has explored, and re-wires one bucket
 * against an explicit device configuration when the serving loop's
 * drift watcher asks for it. It does not serve: the one serving loop
 * is ReplicaFleet::serve (serve/router.h), which installs these plans
 * on its replicas, replays them against an open-loop request stream
 * (serve/traffic.h), and hot-swaps re-wired plans between mini-batches.
 * A single server is a fleet of one replica.
 *
 * The re-wire is where the plan store pays off live: the store's
 * gpu_sig ignores the forced clock multiplier, so a re-wire on a
 * throttled device L1-hits the stale entry, fails drift verification,
 * and demotes into a warm-started re-exploration whose winner is
 * written back.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bucketed.h"
#include "runtime/wired.h"

namespace astra::serve {

/** Regression detector over served-batch times (one per bucket). */
struct DriftWatcherOptions
{
    /**
     * Arm the watcher. An armed watcher on a calm device is free in
     * simulated time (it observes completed batches, it never adds
     * work), so arming it costs tail latency nothing — the serving
     * bench gates that.
     */
    bool enabled = true;

    /**
     * Served batches per install epoch before the watcher may judge:
     * it fires when the median of the last min_window batch times
     * exceeds (1 + kStoreDriftRel) x the plan's install-time baseline,
     * the plan store's own staleness margin (core/plan_store.h).
     */
    int min_window = 5;
};

/** One step of the injected clock-drift schedule. */
struct ClockStep
{
    /** Simulated time at which the step takes effect (ns). */
    double at_ns = 0.0;

    /**
     * GpuConfig::forced_clock_multiplier from this point on: 0.7 models
     * thermal throttling to 70% clocks (all kernel times stretch by
     * 1/0.7), 0 returns to the base clock.
     */
    double clock_multiplier = 0.0;
};

/** All knobs of one serving run. */
struct ServeOptions
{
    /** Ascending bucket boundaries (see core/bucketed.h). */
    std::vector<int> bucket_lengths;

    /** Model builder per padded length. */
    LengthGraphFn build;

    /** Per-bucket session options (device, measurement, plan store). */
    AstraOptions astra;

    /**
     * Requests per mini-batch: the padded graph's batch capacity. One
     * replay serves up to this many queued requests of a bucket.
     */
    int max_batch = 4;

    DriftWatcherOptions watcher;

    /** Injected drift schedule, ascending by at_ns (empty = calm). */
    std::vector<ClockStep> clock_schedule;

    /**
     * Simulated cost of one off-path re-wire (ns): the new blob
     * installs at the first batch boundary at least this long after
     * detection. Meanwhile the bucket keeps serving its old plan
     * through generic dispatch — that interval is what the hot-swap
     * tests pin.
     */
    double rewire_latency_ns = 10e6;

    /** Fill ServeReport::batch_log (tests and trace tooling). */
    bool record_batches = false;
};

/**
 * Wiring and re-wiring for the serving loop: one exploration session
 * per bucket, each winner lowered into a wired plan. Installed plans
 * live on the replicas (serve/replica.h), not here.
 */
class BucketedServer
{
  public:
    /** One installed plan revision of a bucket. */
    struct BucketPlan
    {
        std::shared_ptr<const WiredBinary> binary;
        ScheduleConfig config;

        /** FNV-1a of config_to_string(config) (bit-identity checks). */
        uint64_t config_fnv = 0;

        /** Expected batch time when installed (watcher baseline, ns). */
        double baseline_ns = 0.0;

        /** 0 = initial wiring, +1 per hot-swap of this bucket. */
        int epoch = 0;

        /** Keeps the owning session (tensor maps) of the blob alive. */
        std::shared_ptr<void> retain;
    };

    explicit BucketedServer(ServeOptions opts);
    ~BucketedServer();

    BucketedServer(const BucketedServer&) = delete;
    BucketedServer& operator=(const BucketedServer&) = delete;

    /**
     * Offline phase: explore every bucket (BucketedAstra::optimize) and
     * lower each winner into a wired binary once its bucket has
     * explored. Fills *plans with one epoch-0 plan per bucket and
     * returns total exploration mini-batches.
     */
    int64_t optimize(std::vector<BucketPlan>* plans);

    /** The routing/exploration sessions, one per bucket. */
    const BucketedAstra& router() const { return *router_; }

    /**
     * Re-wire one bucket against an explicit device configuration:
     * fresh session over the bucket's graph (the plan store keys it
     * by graph and device, so it sees the same workload identity),
     * full optimize() — which walks the store ladder, fails drift
     * verification on the stale entry, warm-starts from it, and writes
     * the refreshed winner back — then lowers the winner into a wired
     * blob. Returns the candidate plan; does NOT install it.
     */
    BucketPlan rewire(int bucket, const GpuConfig& gpu) const;

  private:
    ServeOptions opts_;
    std::unique_ptr<BucketedAstra> router_;
};

}  // namespace astra::serve

/**
 * @file
 * Online serving loop over bucketed wired plans, with live re-wiring.
 *
 * The offline story (core/bucketed.h) ends with one converged, wired
 * plan per length bucket. This module runs those plans against an
 * open-loop request stream (serve/traffic.h): a deadline-aware
 * admission queue batches requests per bucket, every mini-batch is a
 * replay of the bucket's wired binary (runtime/wired.h) on the
 * *current* device configuration, and latency/goodput are accounted
 * first-class (serve/metrics.h).
 *
 * The interesting part is what happens when the device stops matching
 * the plan. A clock-step schedule injects slow drift (thermal
 * throttling via GpuConfig::forced_clock_multiplier); a per-bucket
 * drift watcher folds every served batch time into a ProfileIndex
 * under an *install-epoch-mangled* key — the same
 * key-mangling-as-invalidation discipline the profile index applies to
 * context changes — and compares the window median against the plan's
 * install-time baseline with the MeasurementPolicy::store_drift_rel
 * tolerance. On detection the server re-wires the bucket off-path
 * (warm-started from the plan store when configured: the store's
 * gpu_sig ignores the forced multiplier, so the stale entry L1-hits,
 * fails drift verification, and demotes into a warm-started
 * re-exploration whose winner is written back), then hot-swaps the new
 * wired blob between mini-batches: an in-flight batch always finishes
 * on the blob it started with, the next batch picks up the new one,
 * and no queued request is dropped.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/bucketed.h"
#include "runtime/wired.h"
#include "serve/metrics.h"
#include "serve/queue.h"
#include "serve/traffic.h"

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
     * Served batches per install epoch before the watcher may judge
     * (the median needs a window; mirrors the profile index's
     * outlier_min_window discipline).
     */
    int min_window = 5;

    /**
     * Relative regression that counts as drift: fire when the window
     * median exceeds (1 + drift_rel) x the plan's install-time
     * baseline. <= 0 inherits MeasurementPolicy::store_drift_rel, so
     * online detection and the plan store's offline verification agree
     * on what "stale" means.
     */
    double drift_rel = 0.0;
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

/**
 * Drift onset of an ascending clock schedule: the at_ns of its first
 * step that changes the clock (multiplier > 0 and != 1), or -1 when
 * none does. Both serve loops count ServeReport's drift-detection
 * request budget from the first batch boundary at or past it.
 */
double drift_onset_ns(const std::vector<ClockStep>& schedule);

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

    /**
     * Batching patience as a fraction of the expected service time: a
     * partially-full batch launches once the head request's remaining
     * slack falls below (1 + batch_wait_frac) x the bucket's expected
     * batch time; until then the dispatcher waits for more arrivals.
     */
    double batch_wait_frac = 0.25;

    /** Reject (don't truncate) lengths beyond the largest bucket. */
    bool strict_overflow = true;

    DriftWatcherOptions watcher;

    /** Injected drift schedule, ascending by at_ns (empty = calm). */
    std::vector<ClockStep> clock_schedule;

    /**
     * Simulated cost of one off-path re-wire (ns): the new blob
     * installs at the first batch boundary at least this long after
     * detection. Serving continues on the old blob meanwhile — that
     * interval is what the hot-swap tests pin.
     */
    double rewire_latency_ns = 10e6;

    /** Fill ServeReport::batch_log (tests and trace tooling). */
    bool record_batches = false;
};

/**
 * The serving runtime: per-bucket wired plans behind a swap mutex, an
 * admission queue in front, a drift watcher behind.
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
     * lower each winner into a wired binary. Must run before serve().
     * Returns total exploration mini-batches.
     */
    int64_t optimize();

    /**
     * Drain one generated trace through the serving loop
     * (discrete-event simulation on the device clock). Callable
     * repeatedly; metrics are per call, installed plans persist.
     */
    ServeReport serve(const std::vector<ServeRequest>& traffic);

    /** The routing/exploration sessions (tests). */
    const BucketedAstra& router() const { return *router_; }

    /**
     * Swap-safe snapshot of a bucket's installed plan: replay always
     * runs on a snapshot, so an install between batches never mutates
     * a blob mid-replay.
     */
    BucketPlan plan(int bucket) const;

    /**
     * Install a new plan revision for a bucket (thread-safe; the
     * serving loop picks it up at the next batch boundary). Stamps the
     * next epoch; resets the bucket's drift window by construction
     * (watcher keys embed the epoch).
     */
    void install(int bucket, BucketPlan plan);

    /**
     * Re-wire one bucket against an explicit device configuration:
     * fresh session over the bucket's graph (same §5.5 context prefix,
     * so the plan store sees the same workload identity), full
     * optimize() — which walks the store ladder, fails drift
     * verification on the stale entry, warm-starts, and writes the
     * refreshed winner back — then lowers the winner into a wired
     * blob. Returns the candidate plan; does NOT install it.
     */
    BucketPlan rewire(int bucket, const GpuConfig& gpu) const;

  private:
    struct RewireInflight
    {
        bool active = false;
        double ready_ns = 0.0;  ///< earliest install time
        BucketPlan plan;
    };

    /** Apply schedule steps due at sim time t to the live GpuConfig. */
    void apply_clock_steps(double t_ns, GpuConfig* gpu,
                           size_t* next_step);

    ServeOptions opts_;
    std::unique_ptr<BucketedAstra> router_;

    mutable std::mutex slots_mu_;
    std::vector<BucketPlan> slots_;

    bool optimized_ = false;
};

/** FNV-1a fingerprint of a schedule configuration's canonical text. */
uint64_t config_fingerprint(const ScheduleConfig& config);

}  // namespace astra::serve

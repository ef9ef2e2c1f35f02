/**
 * @file
 * First-class latency/goodput accounting for the serving loop.
 *
 * Training benches report one number (mini-batch time); serving is
 * judged on a distribution: tail latency against an SLO, goodput
 * (deadline-met requests per second), and the padding tax the bucketed
 * graphs pay for dynamic shapes. This module accumulates those from
 * per-request completions and renders one ServeReport, mirrored into
 * obs counters ("serve.*") so traces and text summaries carry the same
 * story as the bench tables.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/stats.h"

namespace astra::serve {

/** One dispatched serving mini-batch (report log, hot-swap tests). */
struct BatchRecord
{
    int bucket = 0;

    /** Requests in the batch (<= the graph's batch dimension). */
    int size = 0;

    double start_ns = 0.0;
    double end_ns = 0.0;

    /**
     * Install epoch of the wired plan that served the batch: 0 for the
     * initially-wired blob, +1 per hot-swap of that bucket. The
     * hot-swap contract — an in-flight mini-batch finishes on the old
     * blob while the next one runs the new config — is asserted over
     * this field.
     */
    int plan_epoch = 0;

    /** FNV-1a of the serving config (bit-identity vs offline rewire). */
    uint64_t config_fnv = 0;
};

/** End-to-end outcome of one serve() run. */
struct ServeReport
{
    // ---- request accounting ------------------------------------------
    int64_t offered = 0;    ///< requests in the generated trace
    int64_t admitted = 0;   ///< routed into a bucket queue
    int64_t rejected = 0;   ///< longer than the largest bucket
    int64_t served = 0;     ///< completed (served + rejected == offered)
    int64_t dropped = 0;    ///< admitted but never served (must be 0)
    int64_t deadline_misses = 0;

    // ---- latency distribution (arrival -> completion, ns) ------------
    double p50_ns = 0.0;
    double p95_ns = 0.0;
    double p99_ns = 0.0;
    double mean_ns = 0.0;
    double max_ns = 0.0;

    /** Completed-request latency samples behind the quantiles. */
    int64_t latency_samples = 0;

    /**
     * Honest-quantile flags: nearest-rank p95/p99 need at least 20/100
     * samples (ceil(1/(1-p))) before the rank is distinguishable from
     * the max. Below that the reported value is clamped to the max and
     * the flag is false, so smoke-run gates can skip tail assertions
     * instead of trusting an extrapolation of one sample.
     */
    bool p95_supported = false;
    bool p99_supported = false;

    // ---- throughput --------------------------------------------------
    int64_t batches = 0;
    double mean_batch_occupancy = 0.0;  ///< requests per dispatched batch

    /** Deadline-met requests per simulated second. */
    double goodput_rps = 0.0;

    /** Completion time of the last batch (ns). */
    double makespan_ns = 0.0;

    /**
     * Padded fraction: executed token slots (batch capacity x bucket
     * length per batch) that carried no real tokens.
     */
    double padded_token_frac = 0.0;

    // ---- liveness under drift ----------------------------------------
    int64_t drift_detections = 0;
    int64_t rewires = 0;
    int64_t swaps = 0;

    /**
     * Requests completed between the first injected clock step and the
     * first drift detection (-1 when no drift was injected or never
     * detected) — the detection budget the serving CI job bounds.
     */
    int64_t detection_request_budget = -1;

    /** Per-batch log (filled when ServeOptions::record_batches). */
    std::vector<BatchRecord> batch_log;

    /** Render the report as an aligned text block (benches, examples). */
    std::string to_text(const std::string& title) const;
};

/** Accumulates per-request / per-batch samples into a ServeReport. */
class MetricsRecorder
{
  public:
    /** Record one completed request. */
    void complete(double latency_ns, bool missed_deadline);

    /**
     * Record one dispatched batch.
     * @param capacity the graph's batch dimension (padding accounting).
     * @param real_tokens sum of true request lengths in the batch.
     * @param bucket_len the bucket's padded length.
     */
    void batch(int size, int capacity, int64_t real_tokens,
               int bucket_len);

    /** Fold the distribution + tallies into a report (and obs). */
    void finalize(ServeReport* report) const;

  private:
    RunningStats latency_;
    int64_t served_ = 0;
    int64_t misses_ = 0;
    int64_t batches_ = 0;
    int64_t batch_requests_ = 0;
    int64_t real_tokens_ = 0;
    int64_t slot_tokens_ = 0;
};

}  // namespace astra::serve

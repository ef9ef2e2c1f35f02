/**
 * @file
 * Measurement-driven data-parallel scaling (paper §3.4 / §6.7).
 *
 * "Depending on the communication cost of the model and the physical
 * characteristics of the network, the choice of ideal degree of
 * parallelism from a cost-benefit perspective, could be taken in an
 * automated manner with runtime measurement and adaptation."
 *
 * This module does exactly that on simulated hardware — and, unlike
 * the analytic version it replaces, it *runs* the data-parallel step:
 * for each candidate degree G the graph is rebuilt at per-device batch
 * B/G, Astra tunes the compute schedule, and the tuned plan is
 * dispatched onto G co-simulated devices (runtime/dispatcher_dp.h)
 * with ring-allreduce chunk transfers on a per-device comm stream.
 * Every gradient bucket capacity is measured under both flush
 * schedules, so compute/comm overlap is measured, never modelled. The
 * closed-form ring formula survives only as a cross-check the bench
 * prints.
 */
#pragma once

#include <functional>
#include <vector>

#include "core/astra.h"
#include "graph/builder.h"
#include "runtime/dispatcher_dp.h"

namespace astra {

/**
 * Analytic time for a ring allreduce of `bytes` across `degree`
 * devices: 2(G-1)/G bandwidth terms plus 2(G-1) latency hops. Kept as
 * a sanity cross-check for the measured path — Astra itself never
 * trusts it.
 */
double ring_allreduce_ns(int64_t bytes, int degree, const LinkConfig& net);

/** Builds the training graph for one per-device mini-batch size. */
using BatchGraphFn = std::function<void(GraphBuilder&, int64_t batch)>;

/** One measured (bucket capacity, flush schedule) binding. */
struct BucketTrial
{
    int64_t bucket_bytes = 0;
    FlushSchedule flush = FlushSchedule::Eager;
    DpResult result;
};

/** One measured scaling point. */
struct ScalePoint
{
    int degree = 1;

    /**
     * Measured per-device mini-batch time without communication: a
     * compute-only dispatch at degree 1, device 0's compute span in the
     * serial sweep point otherwise.
     */
    double compute_ns = 0.0;

    /** Analytic ring formula for the gradient volume (cross-check). */
    double allreduce_ns = 0.0;

    /** Measured serial baseline: one bucket, flushed after compute. */
    double serial_ns = 0.0;

    /** Measured overlapped step under the chosen bucket schedule. */
    double step_ns = 0.0;

    /** Link busy time of the chosen dispatch (device 0). */
    double comm_ns = 0.0;

    /** Communication hidden under compute in the chosen dispatch. */
    double overlap_ns = 0.0;

    int64_t grad_bytes = 0;

    /** Chosen bucket capacity, bytes (0 = one bucket per tensor). */
    int64_t bucket_bytes = 0;

    /** Chosen flush schedule. */
    FlushSchedule flush = FlushSchedule::Eager;

    /** Bucket count the chosen capacity produced. */
    int num_buckets = 0;

    /** Data-parallel measurement mini-batches spent at this degree. */
    int minibatches = 0;

    /**
     * Every binding measured at this degree, each once: Eager first,
     * capacities ascending within a schedule. Empty at degree 1.
     */
    std::vector<BucketTrial> sweep;

    /** Global samples per simulated second. */
    double
    throughput(int64_t global_batch) const
    {
        return static_cast<double>(global_batch) / step_ns * 1e9;
    }
};

/**
 * Measure data-parallel scaling of a model at a fixed global batch.
 *
 * Every degree that divides the global batch is explored: the graph is
 * rebuilt at batch/G, Astra tunes it (work-conserving, as always), and
 * the tuned plan is executed on G simulated devices once per
 * (flush schedule, bucket capacity) binding, 2 x |bucket_options|
 * mini-batches in all (one compute-only mini-batch at G = 1). The
 * first strictly fastest binding is chosen. Returns one point per
 * feasible degree, in the order given.
 *
 * A degree that does not divide the global batch gets no point: it is
 * skipped with a warning and counted in dp.degrees_skipped.
 */
std::vector<ScalePoint> measure_scaling(const BatchGraphFn& build,
                                        int64_t global_batch,
                                        const std::vector<int>& degrees,
                                        const AstraOptions& opts,
                                        const LinkConfig& net);

/**
 * Index into `points` of the best-throughput degree.
 * `points` must be non-empty (asserted).
 */
size_t best_degree(const std::vector<ScalePoint>& points,
                   int64_t global_batch);

}  // namespace astra

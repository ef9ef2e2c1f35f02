/**
 * @file
 * Data-parallel dispatch: one tuned plan replayed on N simulated
 * devices with measured ring-allreduce overlap.
 *
 * This is the execution layer under core/data_parallel.h: instead of
 * adding an analytic allreduce term to one device's compute time, the
 * plan is enqueued onto every device of a MultiSim, gradient tensors
 * are grouped into flush buckets in plan (backward) order, and each
 * bucket's ring allreduce is issued as 2(G-1) chunk-transfer kernels
 * on a dedicated comm stream per device, gated on the producing step's
 * completion event and on the upstream ring neighbour's progress
 * (mirrored cross-device events). Early buckets — the late-layer
 * gradients backward produces first — therefore reduce while the rest
 * of backward is still computing, and the resulting overlap is
 * *measured*, not modelled (paper §4: launch and measure).
 */
#pragma once

#include <string>
#include <vector>

#include "runtime/dispatcher.h"
#include "sim/multi.h"

namespace astra {

/** When a gradient bucket's allreduce is allowed to start. */
enum class FlushSchedule
{
    /** As soon as the bucket's last gradient-producing step completes
        (DDP-style overlap with the remaining backward compute). */
    Eager,

    /** Only after every plan step has completed — the serial
        compute-then-communicate baseline overlap is measured against. */
    EndOfStep,
};

/** Short display name ("eager" / "end"). */
std::string flush_schedule_name(FlushSchedule flush);

/** Data-parallel execution knobs for one dispatch. */
struct DpOptions
{
    /** Number of devices G (>= 1; 1 skips all communication). */
    int degree = 1;

    /** Ring interconnect between neighbouring devices. */
    LinkConfig link;

    /**
     * Gradient-bucket capacity in bytes: tensors are packed into a
     * bucket (in plan order) until it holds at least this much, then
     * the next tensor opens a new one. 0 = one bucket per gradient
     * tensor. Small buckets overlap more but pay 2(G-1) chunk launches
     * each; large buckets amortize launches but delay the first flush
     * — the trade-off the adaptive layer explores.
     */
    int64_t bucket_bytes = 0;

    FlushSchedule flush = FlushSchedule::Eager;
};

/** Measured outcome of one data-parallel mini-batch. */
struct DpResult
{
    /** Makespan across all devices (compute + exposed comm). */
    double step_ns = 0.0;

    /**
     * When the last compute-stream kernel finished on the device whose
     * trace ends last (the lowest index on ties): the one that sets
     * step_ns.
     */
    double compute_ns = 0.0;

    /** Total link busy time on that device's comm stream. */
    double comm_ns = 0.0;

    /** Communication hidden under compute:
        max(0, compute_ns + comm_ns - step_ns). */
    double overlap_ns = 0.0;

    /** Bytes each device moved over its link (all buckets, all hops). */
    double comm_bytes = 0.0;

    int num_buckets = 0;
};

/**
 * Execute the plan on `opts.degree` fresh devices with ring-allreduce
 * of `grad_nodes` (the parameter-gradient graph nodes). All devices run
 * the identical plan — mini-batch predictability (§4.1) means the
 * per-device shapes match — so the dispatch is symmetric and timing-only
 * (kernel host callbacks are never executed; devices would otherwise
 * race on the shared TensorMap).
 */
DpResult dispatch_plan_dp(const ExecutionPlan& plan, const Graph& graph,
                          const TensorMap& tmap, const GpuConfig& cfg,
                          const std::vector<NodeId>& grad_nodes,
                          const DpOptions& opts);

}  // namespace astra

/**
 * @file
 * Execution plans: the interface between the compiler side (native
 * lowering, XLA-like static optimizer, Astra's custom wirer) and the
 * dispatcher that drives the simulated GPU.
 *
 * A plan is an ordered list of steps. Each step covers one or more
 * graph nodes (fusion collapses several nodes into one kernel), carries
 * a stream assignment, and may be marked for fine-grained profiling.
 * The dispatch order must be a valid topological order of the covered
 * nodes; the dispatcher adds cross-stream event synchronization.
 */
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"
#include "kernels/cost.h"
#include "support/profile_key.h"

namespace astra {

/** What kind of kernel a plan step lowers to. */
enum class StepKind
{
    Single,            ///< one graph node, one kernel
    FusedGemm,         ///< batched GEMM over sibling MatMul nodes
    LadderGemm,        ///< accumulation ladder: C = sum_i A_i * B_i
    FusedElementwise,  ///< chain of elementwise nodes in one kernel
    CompoundRnn,       ///< cuDNN-style whole-layer kernel (baselines)
    Barrier,           ///< cross-stream synchronization (super-epoch edge)
};

/** One dispatchable unit. */
struct PlanStep
{
    StepKind kind = StepKind::Single;

    /**
     * Graph nodes covered by this step, in execution order. For
     * FusedGemm these are the MatMul nodes; for LadderGemm the MatMuls
     * followed by the Add nodes they accumulate through; for
     * FusedElementwise the chain in dataflow order.
     */
    std::vector<NodeId> nodes;

    /** GEMM library for Single-MatMul / FusedGemm / LadderGemm steps. */
    GemmLib lib = GemmLib::Cublas;

    /** How FusedGemm/LadderGemm members combine (one-large vs batched). */
    FusionAxis fused_axis = FusionAxis::Batched;

    /** Stream the step is dispatched on. */
    int stream = 0;

    /** Record events around this step and report under profile_key. */
    bool profile = false;
    ProfileKey profile_key;

    /**
     * Stream-scheduling metric (paper §4.7): report, under profile_key,
     * the time from the most recent barrier to this step's completion,
     * maximized over all steps sharing the key.
     */
    bool epoch_metric = false;

    /** For CompoundRnn: precomputed cost of the compound kernel. */
    KernelCost compound_cost;
    /** For CompoundRnn: label. */
    std::string compound_name;

    /**
     * Additional serial setup charged to this step's kernel. The
     * XLA-like baseline uses it to model host round-trips around
     * embedding ops (paper §6.6).
     */
    double extra_setup_ns = 0.0;
};

/** A complete schedule for one mini-batch. */
struct ExecutionPlan
{
    std::vector<PlanStep> steps;

    /** Number of streams the plan uses (stream ids are [0, n)). */
    int num_streams = 1;
};

}  // namespace astra

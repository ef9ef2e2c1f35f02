/**
 * @file
 * What-if engine (§5.13).
 *
 * The paper's premise is that mini-batches are predictable, so
 * measurements are reusable. This module takes the next step (after
 * Daydream, arXiv 2006.03318): the *schedule simulation itself* is
 * reusable. Given a candidate ScheduleConfig, evaluate() binds it with
 * timing-only kernels (Scheduler::bind) and walks it with
 * enqueue_wired — the bind and the walk every wiring dispatch runs —
 * on a host-side device model, ranking a candidate
 * without spending a measured mini-batch on it. At base clock with
 * faults disarmed this replay is bit-exact against a real dispatch,
 * which is what lets the wirer replay its exploration trials without
 * giving up its exhaustive-identical answer.
 */
#pragma once

#include "core/scheduler.h"
#include "runtime/dispatcher.h"
#include "sim/gpu.h"

namespace astra {

/** The wirer's what-if mode (AstraOptions::whatif, §5.13). */
struct WhatIfOptions
{
    /**
     * Master switch. On: every exploration trial is replayed on the
     * host and only each stage's bound winner is measured. Off keeps
     * the wirer on the measured exhaustive path.
     */
    bool enabled = false;
};

/**
 * The evaluator: builds and simulates hypothetical configs on the
 * host. One engine per StrategyRun shard — it holds references to that
 * strategy's tensor map and scheduler and a sanitized device model
 * (faults disarmed, base clock, timing-only kernels).
 */
class WhatIfEngine
{
  public:
    /** `graph` is the one `scheduler` builds plans for. */
    WhatIfEngine(const Graph& graph, const TensorMap& tmap,
                 const Scheduler& scheduler, const GpuConfig& gpu);

    /**
     * Rank one candidate: the total_ns and profile_ns a dispatch of
     * `config` would measure, without a mini-batch. Every other field
     * keeps its default.
     */
    DispatchResult evaluate(const ScheduleConfig& config) const;

  private:
    const TensorMap& tmap_;
    const Scheduler& scheduler_;
    GpuConfig gpu_;
};

}  // namespace astra

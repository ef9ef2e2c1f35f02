/**
 * @file
 * Trace-driven what-if engine (ROADMAP item 3, §5.13).
 *
 * The paper's premise is that mini-batches are predictable, so
 * measurements are reusable. This module takes the next step (after
 * Daydream, arXiv 2006.03318): the *schedule simulation itself* is
 * reusable. Given a candidate ScheduleConfig, the engine builds its
 * plan, binds it with timing-only kernels (runtime/wired.h bind_plan)
 * and walks it with enqueue_wired — the bind and the walk every real
 * dispatch runs — on a host-side device model, ranking a candidate in
 * microseconds instead of spending a measured mini-batch on it. At
 * base clock with faults disarmed this replay is bit-exact against a
 * real dispatch, which is what lets the wirer replay its exploration
 * trials without giving up its exhaustive-identical answer.
 *
 * A RecordedTrace is the durable form: the compiled program, per-step
 * kernel cost shapes and profile keys, the collected spans, and the
 * measured metrics of one dispatched mini-batch — dependency-preserving
 * and richer than the Chrome export. replay_trace() re-runs it under
 * per-key cost substitutions (hypothetical library/fusion deltas fed
 * from ProfileIndex stats) without touching graph or scheduler.
 */
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheduler.h"
#include "obs/obs.h"
#include "runtime/wired.h"
#include "sim/gpu.h"

namespace astra {

/** The wirer's what-if mode (WirerOptions::whatif, §5.13). */
struct WhatIfOptions
{
    /**
     * Master switch. On: every exploration trial is replayed on the
     * host and only each stage's bound winner is measured. Off keeps
     * the wirer on the measured exhaustive path.
     */
    bool enabled = false;
};

/** One dependency-preserving record of a dispatched mini-batch. */
struct RecordedTrace
{
    /** The configuration the trace was recorded under. */
    ScheduleConfig config;

    /** Compiled command stream (events, barriers, profile slots). */
    WiredProgram program;

    /** Per-step timing-only kernel shapes (barrier steps stay empty). */
    std::vector<KernelDesc> kernels;

    /** Per-step profile key ("" for unkeyed/barrier steps). */
    std::vector<std::string> step_keys;

    /** Collected kernel spans (name, key, stream, start, end). */
    std::vector<TraceSpan> spans;

    /** Recorded wall time of the mini-batch, ns. */
    double total_ns = 0.0;

    /** Recorded per-key profile metrics, ns. */
    std::map<std::string, double> profile_ns;

    int num_streams = 1;

    /** Sanitized device model the record was simulated under. */
    GpuConfig gpu;
};

/** Host-replay outcome: the same metrics a DispatchResult carries. */
struct ReplayResult
{
    double total_ns = 0.0;
    std::map<std::string, double> profile_ns;
};

/**
 * Replay a recorded trace, optionally substituting per-key costs: an
 * entry {key -> ns} replaces every kernel of that profile key with a
 * pure-serial kernel of exactly that duration (blocks = 0), so on a
 * serial schedule the replayed total shifts by exactly the delta.
 */
ReplayResult
replay_trace(const RecordedTrace& trace,
             const std::map<std::string, double>& override_ns = {});

/**
 * The evaluator: builds and simulates hypothetical configs on the
 * host. One engine per StrategyRun shard — it holds references to that
 * strategy's graph/tensor-map/scheduler and a sanitized device model
 * (faults disarmed, base clock, timing-only kernels).
 */
class WhatIfEngine
{
  public:
    WhatIfEngine(const Graph& graph, const TensorMap& tmap,
                 const Scheduler& scheduler, const GpuConfig& gpu);

    /** Rank one candidate: exact simulated metrics, no mini-batch. */
    ReplayResult evaluate(const ScheduleConfig& config) const;

    /** Evaluate and keep the full dependency-preserving record. */
    RecordedTrace capture(const ScheduleConfig& config) const;

    const GpuConfig& device() const { return gpu_; }

  private:
    const Graph& graph_;
    const TensorMap& tmap_;
    const Scheduler& scheduler_;
    GpuConfig gpu_;
};

// ---- serialization (line-oriented, support/record.h conventions) ---------

/** Write a trace in the "astra-whatif-trace v1" text format. */
void write_trace(std::ostream& os, const RecordedTrace& trace);

/** Convenience: write_trace into a string. */
std::string trace_to_string(const RecordedTrace& trace);

/**
 * Parse a trace written by write_trace.
 * @return false (leaving *trace untouched) on malformed input; when
 *         `error` is non-null it receives "line N: reason".
 */
bool trace_from_string(std::string_view text, RecordedTrace* trace,
                       std::string* error = nullptr);

}  // namespace astra

/**
 * @file
 * Drives an ExecutionPlan on the simulated GPU.
 *
 * This is the layer Astra interposes at (paper Fig. 3): it owns stream
 * creation, cross-stream event synchronization, barrier realization and
 * the cudaEvent-style profiling instrumentation. All backends (native,
 * XLA-like, cuDNN-path, Astra) dispatch through this one function, so
 * measured times are comparable across them. dispatch_plan binds the
 * plan and runs it through the dispatch engine in runtime/wired.h, the
 * same one that replays lowered binaries.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "runtime/plan.h"
#include "runtime/tensor_map.h"
#include "sim/gpu.h"

namespace astra {

/** Timing results of one dispatched mini-batch. */
struct DispatchResult
{
    /** Makespan of the whole mini-batch in simulated ns. */
    double total_ns = 0.0;

    /**
     * Fine-grained measurements: profile_key -> summed elapsed ns
     * (for epoch_metric keys: max barrier-to-completion time).
     */
    std::map<std::string, double> profile_ns;

    /** Device counters accumulated during the run. */
    GpuStats stats;

    /**
     * Clock multiplier the device reported for this mini-batch (NVML
     * query; 1.0 at base clock). Measurement policies that normalize
     * for DVFS multiply measured spans by it (profile_index.h).
     */
    double clock_multiplier = 1.0;

    /** Kernel timeline (only when cfg.collect_trace is set). */
    std::vector<TraceSpan> trace;

    /**
     * True when the retry budget was exhausted and the final attempt
     * still contained an injected kernel fault — timing and tensor
     * values are suspect, and the wirer quarantines the measurement.
     */
    bool faulted = false;

    /** Abort-and-replay attempts taken after a faulted mini-batch. */
    int fault_attempts = 0;

    /** Injected kernel faults observed across all attempts. */
    int64_t faults_seen = 0;

    /** Injected straggler latency spikes across all attempts. */
    int64_t straggler_events = 0;

    /** Simulated exponential-backoff time spent between attempts. */
    double backoff_ns = 0.0;

    /**
     * Measured *wall-clock* host time spent enqueueing the mini-batch's
     * commands (launch calls summed over retry attempts, plus
     * dispatch_plan's one bind: dependency resolution and kernel
     * construction; device simulation excluded). The one real-time
     * field in this struct — replaying a lowered binary
     * (runtime/wired.h) skips the bind, and
     * bench/micro_dispatch_replay gates on the difference.
     */
    double host_enqueue_ns = 0.0;
};

/**
 * Execute the plan on a fresh simulated device.
 *
 * The plan's step order must be a valid topological order of the
 * covered graph nodes (checked). Cross-stream data dependencies are
 * enforced with event record/wait pairs; same-stream dependencies rely
 * on FIFO order. Barrier steps synchronize all streams.
 *
 * The dispatch is a mini-batch *transaction*: when cfg.faults injects a
 * transient kernel fault, the whole mini-batch is aborted and replayed
 * on a fresh device (with exponential backoff, simulated and reported
 * in DispatchResult::backoff_ns) up to the plan's retry budget. Because
 * each replay re-executes the full plan in topological order over the
 * same TensorMap, a clean final attempt leaves tensor values exactly as
 * a fault-free run would — no partial-state corruption survives. Each
 * attempt re-draws faults under a salt derived from cfg.fault_salt via
 * fault_mix(salt, attempt), so retries are reproducible too.
 *
 * The plan is bound once per call (bind_plan: command stream plus
 * kernel descriptors), then each attempt walks the bound program —
 * the engine replay_wired runs on a lowered binary.
 *
 * @param cfg device configuration (also selects timing-only mode).
 */
DispatchResult dispatch_plan(const ExecutionPlan& plan, const Graph& graph,
                             const TensorMap& tmap, const GpuConfig& cfg);

}  // namespace astra

/**
 * @file
 * Convergence reporting for the custom wirer's online exploration.
 *
 * The wirer (paper §4.7) walks the update tree stage by stage; each
 * stage is one "exploration epoch" of the report: how many real
 * mini-batch trials it spent, how large the exhaustive subspace it
 * covered would have been, and the best end-to-end mini-batch time
 * seen so far when the stage finished. The difference between the
 * exhaustive size and the trials actually run is the pruning won by
 * that stage's exploration mode (Parallel / Prefix / Hierarchical —
 * §4.5), which is what Table 7's state-space reduction quantifies.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace astra {

/** One exploration stage of one allocation strategy. */
struct ConvergenceEpoch
{
    /** Allocation-strategy index (hierarchical fork, §4.5.2). */
    int strategy = 0;

    /** Stage label: "chunks", "libs", "streams", or "final". */
    std::string stage;

    /** Exploration mode that pruned it: "parallel", "prefix", ... */
    std::string mode;

    /** Real mini-batches this stage dispatched. */
    int64_t trials = 0;

    /** Exhaustive size of the stage's subspace (product of choices). */
    int64_t exhaustive = 0;

    /** Configurations skipped thanks to the mode (exhaustive-trials). */
    int64_t pruned = 0;

    /** Best end-to-end mini-batch time seen so far (ns; -1 if none). */
    double best_ns = -1.0;

    /** Cumulative mini-batches dispatched when the stage ended. */
    int64_t minibatches_total = 0;

    // ---- what-if accounting (core/whatif.h, §5.13) -----------------------

    /** Host replays the stage spent (exploration trials). */
    int64_t whatif_evals = 0;
};

/**
 * Fault-injection and fault-tolerance accounting for one exploration
 * (all zeros on a fault-free run). Distinguishes the two retry layers:
 * dispatch_retries are the dispatcher's own abort-and-replay attempts
 * inside a mini-batch transaction; wirer_retries are whole-trial
 * re-measurements after every repeat of a trial came back faulted.
 */
struct FaultReport
{
    /** Transient kernel faults injected across all dispatch attempts. */
    int64_t injected_kernel_faults = 0;

    /** Straggler latency spikes injected. */
    int64_t straggler_events = 0;

    /** Mini-batches still faulted after the dispatcher's retries. */
    int64_t faulted_minibatches = 0;

    /** Dispatcher-level abort-and-replay attempts. */
    int64_t dispatch_retries = 0;

    /** Wirer-level whole-trial re-measurements. */
    int64_t wirer_retries = 0;

    /** Profile keys quarantined (only ever faulted, never sampled). */
    int64_t quarantined_keys = 0;

    /** Simulated exponential-backoff time between retry attempts. */
    double backoff_ns = 0.0;
};

/** Full exploration history, retrievable from WirerResult. */
struct ConvergenceReport
{
    std::vector<ConvergenceEpoch> epochs;

    /** Final best end-to-end time (matches WirerResult::best_ns). */
    double best_ns = -1.0;

    /** Total exploration mini-batches. */
    int64_t minibatches = 0;

    /**
     * Why exploration stopped: "complete", "budget" (safety valve) or
     * "fault_quarantine" (a config exhausted its fault-retry budget).
     * See core/wirer.h's WirerTermination.
     */
    std::string termination = "complete";

    /** Fault-injection / fault-tolerance accounting. */
    FaultReport faults;

    // ---- plan-store accounting (core/plan_store.h) -----------------------

    /**
     * Which rung of the knowledge-base ladder answered this job:
     * "miss" (cold), "l2" (shape-neighbor transfer), "l1" (exact hit,
     * wiring skipped), or "" when no store was configured.
     */
    std::string store_tier;

    /** Variables pre-bound from a transferred L2 configuration. */
    int64_t store_transferred_bindings = 0;

    /**
     * One line per store event a job should see, each naming its entry
     * file and the reason:
     *  - an entry present but rejected at lookup (corrupt, truncated,
     *    wrong version, or no longer fitting the search space) — a
     *    decaying store is visible here instead of silently
     *    cold-starting;
     *  - an L1 hit demoted to a warm start because its verification
     *    mini-batch faulted or drifted;
     *  - a winner not written back because no final run of it measured
     *    clean (or a write that failed).
     */
    std::vector<std::string> store_errors;

    /**
     * L1 exact hits demoted to L2 warm starts instead of being adopted
     * outright, because their verification mini-batch faulted or
     * drifted beyond kStoreDriftRel of the stored timing.
     */
    int64_t store_drift_demotions = 0;

    // ---- what-if accounting (core/whatif.h, §5.13) -----------------------

    /** Total host replays across the exploration (0 when off). */
    int64_t whatif_evals = 0;

    /**
     * Always 0; read by perfbench/spans.cc; delete with the next
     * benchmark change. Not written to JSON.
     */
    int64_t predictor_pruned = 0;

    /** Sum of `pruned` over epochs with the given mode. */
    int64_t pruned_by(const std::string& mode) const;

    /** Sum of `exhaustive` over all epochs. */
    int64_t exhaustive_total() const;

    /** Machine-readable dump: {"epochs":[...],"best_ns":...}. */
    void write_json(std::ostream& os) const;
};

}  // namespace astra

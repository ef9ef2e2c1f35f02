/**
 * @file
 * Discrete-event GPU simulator.
 *
 * This stands in for the CUDA device + driver in the paper's testbed.
 * It exposes exactly the abstractions Astra's runtime consumes — streams
 * (FIFO command queues), events (timestamps + cross-stream waits),
 * asynchronous kernel launch with a fixed launch overhead, and
 * cudaEvent-style elapsed-time queries — and models the performance
 * phenomena the paper's optimizations exploit:
 *
 *  - a fixed ~6 us per-kernel launch overhead (host driver + device
 *    command front-end) that pipelines under long kernels but starves
 *    the SMs when kernels are tiny (fusion amortizes it, §2.3);
 *  - an SM pool shared by concurrently-running kernels via fluid
 *    waterfilling, so multi-stream schedules overlap and a kernel's
 *    completion time depends on what else is resident (§3.3);
 *  - per-kernel occupancy caps, giving diminishing returns to very large
 *    fused kernels (§3.2's "fused can be slower than two streams");
 *  - optional autoboost clock jitter that breaks run-to-run
 *    repeatability (§7 "Predictable execution").
 *
 * Astra itself never reads the cost model — it can only launch work and
 * measure events, as on real hardware.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "obs/export.h"
#include "sim/faults.h"
#include "sim/kernel.h"
#include "support/profile_key.h"
#include "support/rng.h"

namespace astra {

/**
 * True when the ASTRA_SIM_AUTOBOOST environment variable is "1" — the
 * CI noise job uses it to run the whole suite under clock jitter.
 * Unset, empty or "0" means off; any other value is ignored (off) with
 * one line on stderr. Read once, then cached.
 */
bool sim_autoboost_env();

/** Max fractional speedup from autoboost (clock above base). */
inline constexpr double kAutoboostAmplitude = 0.12;

/** Device configuration (defaults approximate a P100). */
struct GpuConfig
{
    int num_sms = 56;

    /** FP32 multiply-add throughput per SM, in flops per nanosecond. */
    double flops_per_sm_ns = 166.0;

    /** HBM bandwidth in GB/s (elementwise kernels are bound by this). */
    double hbm_gbps = 650.0;

    /**
     * Host-side cost to enqueue one kernel launch (§2.3's 5-10 us).
     * The host enqueues asynchronously ahead of the device, so this
     * overhead hides under long-running kernels and dominates only
     * when kernels are small — the launch-bound regime that makes
     * naive RNN dispatch slow and fusion profitable.
     */
    double launch_overhead_ns = 6000.0;

    /**
     * Cost of recording one event on a stream (profiling overhead).
     * CUDA events are device-side timestamps and deliberately cheap
     * (§5.2 / §7 "lightweight profiling events").
     */
    double event_record_ns = 20.0;

    /**
     * Host-side cost to enqueue one event command (record or wait).
     * Much cheaper than a kernel launch but not free: dense
     * fine-grained instrumentation pays it per profiled step, which is
     * the §5.1/§6.4 profiling overhead the custom wirer keeps < 0.5%
     * by instrumenting at fusion-group granularity.
     */
    double event_enqueue_ns = 400.0;

    /**
     * Run kernels' host compute callbacks (real values). Timing-only
     * sweeps disable this; value-preservation tests enable it.
     */
    bool execute_kernels = true;

    /** Record a TraceSpan per executed kernel (timeline debugging). */
    bool collect_trace = false;

    /**
     * Enable autoboost clock jitter (violates predictability, §7).
     * Modeled as DVFS: the driver re-evaluates the clock when the
     * pipeline drains, so the multiplier is constant within one launch
     * sequence (a mini-batch lasts well under the clock governor's
     * reaction time) and re-drawn at every synchronize. The current
     * multiplier is queryable via clock_multiplier(), as the SM clock
     * is on real devices through NVML.
     */
    bool autoboost = sim_autoboost_env();

    uint64_t autoboost_seed = 17;

    /**
     * When > 0, the device holds this clock multiplier for every
     * launch sequence instead of drawing from its boost RNG. The
     * parallel wirer pre-draws one multiplier per dispatch from a
     * per-strategy ClockDomain so the jitter a trial sees depends only
     * on its position in that strategy's measurement sequence — never
     * on how concurrent strategies interleave (the determinism
     * contract of core/wirer.cc). 0 (the default) keeps the device's
     * own DVFS draw.
     */
    double forced_clock_multiplier = 0.0;

    /**
     * Fault-injection plan (sim/faults.h; empty = fault-free device).
     * Defaults to the process-wide ASTRA_FAULTS plan so the whole test
     * suite can run under an injected fault matrix.
     */
    FaultPlan faults = FaultPlan::from_env();

    /**
     * Domain salt for the device's fault draws. The faults a dispatch
     * sees are a pure function of (faults.seed, fault_salt), never of
     * dispatch ordering — the same determinism discipline as
     * forced_clock_multiplier. The dispatcher assigns a process-unique
     * salt when the caller leaves 0 and a plan is armed; retry attempts
     * re-salt so a transient fault does not repeat deterministically.
     */
    uint64_t fault_salt = 0;
};

/**
 * A deterministic source of per-dispatch DVFS multipliers.
 *
 * Physical autoboost state lives in the device and does not reset
 * between mini-batches, so successive dispatches measure at different
 * clocks (§7's repeatability violation). With concurrent exploration
 * there is no longer one global dispatch order to thread that state
 * through; instead each exploration strand owns a ClockDomain seeded
 * from (autoboost_seed, salt) and forces draw() onto each dispatch via
 * GpuConfig::forced_clock_multiplier. Same strand, same draw sequence,
 * regardless of what runs concurrently.
 */
class ClockDomain
{
  public:
    /** Golden-ratio mixing constant for salting seeds (splitmix64). */
    static constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;

    ClockDomain(const GpuConfig& config, uint64_t salt)
        : on_(config.autoboost),
          rng_(config.autoboost_seed + kSeedMix * salt)
    {
    }

    /**
     * Multiplier for the next dispatch: a fresh boost draw when
     * autoboost is on, 0.0 (= "do not force, stay at base clock")
     * when off.
     */
    double draw()
    {
        if (!on_)
            return 0.0;
        return 1.0 + kAutoboostAmplitude * rng_.next_double();
    }

  private:
    bool on_;
    Rng rng_;
};

/** Identifier for a stream on a SimGpu. */
using StreamId = int32_t;

/** Identifier for an event on a SimGpu. */
using EventId = int32_t;

/** Cumulative device counters (observable without perturbing timing). */
struct GpuStats
{
    int64_t kernels_launched = 0;
    int64_t events_recorded = 0;
    double busy_sm_ns = 0.0;     ///< integral of (allocated SMs) dt
    double elapsed_ns = 0.0;     ///< total simulated wall time

    /** Kernel launches whose compute was killed by an injected fault. */
    int64_t faults_injected = 0;

    /** Kernel launches hit by an injected straggler latency spike. */
    int64_t straggler_events = 0;
};

/** The simulated device. */
class SimGpu
{
  public:
    /** Outcome of one run_until() call. */
    enum class RunState
    {
        Drained,  ///< every stream's queue is empty, nothing running
        Blocked,  ///< stalled on events nobody on this device will record
        Paused,   ///< stopped at the horizon; next_event_ns() says when
    };

    explicit SimGpu(GpuConfig config = {});

    /** A copy's queued launches would point at this device's storage. */
    SimGpu(const SimGpu&) = delete;
    SimGpu& operator=(const SimGpu&) = delete;

    const GpuConfig& config() const { return config_; }

    /** Create a new stream; stream 0 exists by default. */
    StreamId create_stream();

    int num_streams() const { return static_cast<int>(streams_.size()); }

    /** Create an event (initially unrecorded). */
    EventId create_event();

    /**
     * Enqueue a kernel launch on a stream (asynchronous). The device
     * keeps the descriptor until it next drains. `key` is the
     * profile-index key of the plan step launching it (none when the
     * launch is not plan-keyed); the kernel's trace span carries it.
     */
    void launch(StreamId stream, KernelDesc kernel, ProfileKey key = {});

    /**
     * Enqueue a launch of a descriptor the caller owns, without
     * copying it: `kernel` must stay alive and unchanged until the
     * device has drained (synchronize, or run_until returning
     * Drained). The wired walk launches bound plans this way, and one
     * descriptor may serve launches under different keys.
     */
    void launch_ref(StreamId stream, const KernelDesc& kernel,
                    ProfileKey key = {});

    /** Enqueue an event record on a stream. */
    void record_event(StreamId stream, EventId event);

    /** Make a stream wait until an event has been recorded. */
    void wait_event(StreamId stream, EventId event);

    /** Run the device until every stream's queue is drained. */
    void synchronize();

    /**
     * Event-loop stepping for multi-device co-simulation (MultiSim):
     * process every device event with timestamp <= t_stop. Returns
     *  - Drained when all queues emptied,
     *  - Blocked when progress requires an event this device will never
     *    record itself (a cross-device dependency — the caller must
     *    record_external() it and call again),
     *  - Paused when the next event lies beyond the horizon; its time
     *    is then available from next_event_ns(). Kernels in flight are
     *    advanced (linearly) exactly to t_stop.
     * synchronize() is run_until(infinity) + panic on Blocked.
     */
    RunState run_until(double t_stop);

    /**
     * Earliest pending device event strictly beyond the last
     * run_until() horizon. Only meaningful after a Paused return.
     */
    double next_event_ns() const { return next_event_; }

    /**
     * Mark an event recorded at an externally-determined timestamp —
     * the arrival of a cross-device signal (MultiSim mirrors a peer
     * device's record onto this one). The event must not have been
     * recorded already. `t` may lie in this device's future; streams
     * waiting on it stall until the device clock reaches it.
     */
    void record_external(EventId event, double t);

    /** Current simulated time (ns). Only meaningful after synchronize. */
    double now_ns() const { return now_; }

    /** Timestamp of a recorded event; fatal if never recorded. */
    double event_time_ns(EventId event) const;

    /** True once the event has been recorded and executed. */
    bool event_recorded(EventId event) const;

    /** elapsed = end - start, both must be recorded. */
    double elapsed_ns(EventId start, EventId end) const;

    const GpuStats& stats() const { return stats_; }

    /** Average SM utilization over all simulated time so far. */
    double utilization() const;

    /**
     * Clock multiplier (current clock / base clock, >= 1.0) applied to
     * the most recent launch sequence — the NVML clock query. 1.0 at
     * base clock; under autoboost, re-drawn at each synchronize.
     */
    double clock_multiplier() const { return clock_m_; }

    /** Kernel spans recorded when config.collect_trace is set. */
    const std::vector<TraceSpan>& trace() const { return trace_; }

  private:
    enum class CmdType { Launch, Record, Wait };

    struct Command
    {
        CmdType type;
        const KernelDesc* kernel = nullptr;  // Launch
        ProfileKey key;  ///< Launch: the trace span's key
        EventId event = -1;  // Record / Wait
        double ready_at = 0.0;  ///< host enqueue completion time
        double slowdown = 1.0;  ///< injected straggler stretch (1 = none)

        /**
         * Injected transient failure: the kernel occupies the device
         * and records its events normally (its timing is real), but
         * its host compute callback is skipped — downstream values are
         * silently wrong until the mini-batch is replayed, exactly the
         * uncorrected-error model the dispatcher's retry transaction
         * recovers from.
         */
        bool faulted = false;
    };

    struct Stream
    {
        std::deque<Command> queue;
        int active = -1;     ///< index into running_, -1 when idle
    };

    struct Running
    {
        int stream = -1;
        double serial_left = 0.0;   ///< setup remaining
        double blocks_left = 0.0;   ///< parallel work remaining
        double blocks_total = 0.0;  ///< launched block count
        double block_ns = 1.0;
        int max_sms = 0;
        double alloc = 0.0;         ///< SMs currently assigned
        double demand = 0.0;        ///< waterfill: SMs it can hold
        bool filling = false;       ///< waterfill: still below demand
        bool is_event = false;      ///< event-record pseudo-kernel
        EventId event = -1;
        double started_at = 0.0;    ///< activation time (for tracing)
        const KernelDesc* kernel = nullptr;  ///< null for events
        ProfileKey key;  ///< the launch's key (for tracing)
    };

    /** Start every startable command; returns true if anything started. */
    bool activate_ready();

    /** Distribute SMs over kernels in their parallel phase. */
    void waterfill();

    /** Time-scale factor of the current clock state (1.0 when off). */
    double boost_factor() const;

    /**
     * Sample the DVFS state at the start of a launch sequence (first
     * enqueue after a drain) and return the time-scale factor to apply
     * to the command being enqueued.
     */
    double begin_command();

    GpuConfig config_;
    FaultInjector injector_;  ///< draws from config_.faults
    std::vector<Stream> streams_;
    std::vector<double> event_times_;   // -1 = unrecorded
    std::vector<Running> running_;
    /** Descriptors launched by value; deque growth keeps addresses. */
    std::deque<KernelDesc> owned_;
    double now_ = 0.0;
    double next_event_ = 0.0;  ///< set by run_until on Paused
    double host_time_ = 0.0;  ///< host enqueue pipeline position
    GpuStats stats_;
    std::vector<TraceSpan> trace_;
    Rng boost_rng_;
    double clock_m_ = 1.0;  ///< current clock / base clock (DVFS state)
    bool clock_sampled_ = false;  ///< clock held for the open sequence
};

}  // namespace astra

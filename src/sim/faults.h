/**
 * @file
 * Deterministic, seeded fault injection for the simulated testbed.
 *
 * Astra's premise is that every mini-batch re-executes the same DFG
 * (§4.1), so the runtime can keep making training progress while it
 * explores — but a production-scale deployment must keep custom-wiring
 * through transient kernel failures, allocation failures, stragglers
 * and degraded links. A FaultPlan describes which perturbations to
 * inject; a FaultInjector draws them reproducibly from a stateless
 * splitmix64 hash of (plan seed, injector salt, fault kind, per-kind
 * sequence number), so the faults a dispatch sees are a pure function
 * of its salt — never of thread interleaving or of how many other
 * dispatches ran before it. That is what keeps the parallel wirer's
 * bit-identical determinism contract intact under fault injection.
 *
 * Fault model (one FaultSpec per clause of the spec string):
 *  - kernel:    a launched kernel completes timing-wise and records its
 *               events, but its host compute callback is skipped (a
 *               sticky uncorrected-error model: values are wrong until
 *               the mini-batch is replayed). Optional name substring
 *               targets specific kernels.
 *  - straggler: a launched kernel's setup and block times are scaled by
 *               factor `x` (a latency spike / slow SM partition).
 *  - alloc:     a device allocation fails (cudaMalloc error), and
 *               factor `x` models fragmentation by shrinking the
 *               effective pool capacity.
 *  - comm:      a link transfer's cost is scaled by factor `x`
 *               (degraded ring link).
 *
 * Beyond device-level draws, a plan can carry *replica* fault specs for
 * the serving fleet (serve/router.h): scheduled replica death and
 * flapping (periodic down/up cycles). These are pure functions of
 * simulated time — replica_alive() answers "is replica r up at t?"
 * deterministically, so a chaos bench under a fixed plan pins exact
 * failover counts.
 *
 * Spec grammar (ASTRA_FAULTS / astra_cli --fault-spec), clauses
 * separated by ';':
 *
 *   seed=N;retries=N;backoff_us=F
 *   kernel:p=F[,at=N][,name=SUBSTR]
 *   straggler:p=F[,x=F][,at=N]
 *   alloc:p=F[,at=N][,x=F]
 *   comm:p=F[,x=F][,at=N]
 *   replica_death:r=N,at_ns=F
 *   replica_flap:r=N,at_ns=F,down_ns=F[,up_ns=F][,count=N]
 *
 * `p` fires a fault with that probability per draw; `at` fires exactly
 * once, at the given per-kind sequence number (deterministic one-shot).
 * N is a plain decimal integer and F a finite decimal or "0x" hex
 * number, each a whole token (support/record.h): "x=inf", "p=nan",
 * "seed=+5" and "seed= 5" are errors. Malformed specs are rejected with
 * the record layer's "token N: reason" diagnostic (tokens are the
 * 1-based ';'-separated clauses): unknown keys, duplicate keys and
 * out-of-range values all name the offending token instead of being
 * silently ignored.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace astra {

/** Which perturbation a FaultSpec injects. */
enum class FaultKind
{
    Kernel,     ///< transient kernel failure (compute skipped)
    Straggler,  ///< latency spike: kernel time scaled by `factor`
    Alloc,      ///< allocation failure / fragmentation
    Comm,       ///< link degradation: transfer cost scaled by `factor`
};

constexpr int kNumFaultKinds = 4;

/** Short display name ("kernel", "straggler", "alloc", "comm"). */
const char* fault_kind_name(FaultKind kind);

/** One injection clause of a FaultPlan. */
struct FaultSpec
{
    FaultKind kind = FaultKind::Kernel;

    /** Per-draw fault probability (0 = never fires probabilistically). */
    double p = 0.0;

    /**
     * Severity factor: time scale for Straggler/Comm, fragmentation
     * headroom divisor on pool capacity for Alloc. Ignored for Kernel.
     */
    double factor = 1.0;

    /** One-shot: fire exactly at this per-kind sequence number (-1 off). */
    int64_t at = -1;

    /** Kernel-name substring filter (Kernel/Straggler only; "" = any). */
    std::string name;
};

/**
 * One scheduled replica-level fault of the serving fleet: a death
 * (down forever from at_ns) or a flap (repeating down/up cycles).
 * Liveness is a pure function of simulated time (replica_alive), so
 * the router's failure handling is bit-reproducible under a fixed
 * plan — never a function of event interleaving.
 */
struct ReplicaFaultSpec
{
    /** False: death (down forever). True: periodic down/up flapping. */
    bool flap = false;

    /** Target replica id (serve/replica.h numbering). */
    int replica = 0;

    /** First down edge (simulated ns). */
    double at_ns = 0.0;

    /** Flap only: down duration per cycle (ns). */
    double down_ns = 0.0;

    /** Flap only: up duration between down intervals (ns). */
    double up_ns = 0.0;

    /** Flap only: number of down intervals (-1 = forever). */
    int64_t count = -1;
};

/** A parsed fault-injection plan (empty = fault-free). */
struct FaultPlan
{
    /** Base seed for every injector draw. */
    uint64_t seed = 1;

    /** Retry budget for a transiently-faulted mini-batch dispatch. */
    int max_retries = 8;

    /** Base of the dispatcher's exponential retry backoff. */
    double backoff_us = 50.0;

    std::vector<FaultSpec> specs;

    /** Replica death/flap schedule (consumed by serve/router.h). */
    std::vector<ReplicaFaultSpec> replica_faults;

    bool empty() const { return specs.empty() && replica_faults.empty(); }

    /** True when any spec injects the given kind. */
    bool has(FaultKind kind) const;

    /**
     * Parse a spec string (grammar in the file header).
     * @return false (leaving *out untouched) on malformed input;
     *         *error receives "token N: reason" when non-null.
     */
    static bool parse(const std::string& spec, FaultPlan* out,
                      std::string* error = nullptr);

    /**
     * The process-wide plan from ASTRA_FAULTS (empty when unset or
     * malformed — a bad env spec must not crash every binary, and is
     * reported once on stderr). Read once, then cached; the other
     * environment switches (sim_autoboost_env(), obs::init_from_env())
     * parse as strictly.
     */
    static const FaultPlan& from_env();

    /** Round-trippable spec string (for logs and reports). */
    std::string to_string() const;
};

/**
 * splitmix64 finalizer over a seed/value pair: the stateless hash all
 * injector draws come from. Also used to derive independent per-attempt
 * and per-strategy fault salts without any shared RNG state.
 */
uint64_t fault_mix(uint64_t seed, uint64_t value);

/**
 * Is replica `replica` up at simulated time `t_ns` under the plan's
 * replica fault schedule? A replica starts alive; each matching spec
 * can only take it down (overlapping specs OR their down intervals).
 */
bool replica_alive(const FaultPlan& plan, int replica, double t_ns);

/**
 * All liveness transition edges of one replica within [0, horizon_ns),
 * sorted ascending and deduplicated. Even positions entering a
 * down-interval are not distinguished — callers probe replica_alive on
 * either side of an edge. The serving router uses these to schedule
 * deterministic failure/revival events.
 */
std::vector<double> replica_transitions(const FaultPlan& plan,
                                        int replica, double horizon_ns);

/** Outcome of one kernel-launch draw. */
struct KernelFault
{
    bool fail = false;       ///< skip the compute callback
    double slowdown = 1.0;   ///< time scale (straggler spike)
};

/**
 * Draws faults for one execution domain (one SimGpu, one SimMemory,
 * one comm endpoint). Holds only per-kind sequence counters; every
 * draw is a pure hash of (plan seed, salt, kind, sequence), so two
 * injectors with the same plan and salt replay identical faults.
 */
class FaultInjector
{
  public:
    FaultInjector() = default;

    /** @param plan must outlive the injector; nullptr disarms it. */
    FaultInjector(const FaultPlan* plan, uint64_t salt)
        : plan_(plan != nullptr && !plan->empty() ? plan : nullptr),
          salt_(salt)
    {
    }

    bool armed() const { return plan_ != nullptr; }

    /** Draw for one kernel launch (advances the launch sequence). */
    KernelFault on_kernel(const std::string& name);

    /** Draw for one allocation; true = the allocation fails. */
    bool on_alloc();

    /** Draw for one link transfer; returns the cost scale (>= 1). */
    double on_comm();

    /**
     * Fragmentation headroom: the largest Alloc-spec factor (>= 1).
     * SimMemory divides its effective capacity by it while armed.
     */
    double alloc_headroom() const;

  private:
    /** Uniform [0,1) draw for (kind, seq) under this plan and salt. */
    double draw(FaultKind kind, uint64_t seq) const;

    /** True when `spec` fires for sequence number `seq`. */
    bool fires(const FaultSpec& spec, uint64_t seq) const;

    const FaultPlan* plan_ = nullptr;
    uint64_t salt_ = 0;
    uint64_t seq_[kNumFaultKinds] = {0, 0, 0, 0};
};

}  // namespace astra

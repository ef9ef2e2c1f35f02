/**
 * @file
 * Open-loop traffic generation for the online serving scenario.
 *
 * Inference traffic, unlike training, arrives on its own clock: an
 * open-loop generator emits requests at times the server cannot slow
 * down, so queueing delay — not just service time — shapes the latency
 * distribution. Arrivals follow a non-homogeneous Poisson process (a
 * base rate modulated by a diurnal burst schedule, sampled by
 * thinning), and each request carries a PTB-like variable token length
 * (models/data.h's sentence-length sampler, the same distribution the
 * paper calibrated its Table 8 buckets on) plus an absolute deadline
 * (arrival + SLO). Generation is a pure function of the config — the
 * same seed replays the same trace, so benches can compare serving
 * policies on identical workloads.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace astra::serve {

/** One inference request of the open-loop stream. */
struct ServeRequest
{
    int64_t id = 0;

    /** Absolute arrival time on the simulated clock (ns). */
    double arrival_ns = 0.0;

    /** True token length (pre-padding). */
    int length = 0;

    /** Absolute completion deadline (arrival + SLO), ns. */
    double deadline_ns = 0.0;
};

/** One diurnal phase: rate multiplier over [start_ns, end_ns). */
struct BurstPhase
{
    double start_ns = 0.0;
    double end_ns = 0.0;
    double rate_multiplier = 1.0;  ///< multiplies the base rate
};

/** Floor on sampled request lengths (tokens). */
inline constexpr int kMinRequestLength = 2;

/** Parameters of one generated trace. */
struct TrafficConfig
{
    /** Open-loop horizon: arrivals are generated in [0, duration_ns). */
    double duration_ns = 1e9;

    /** Base arrival rate in requests per simulated second. */
    double base_rps = 100.0;

    /**
     * Diurnal burst schedule. Phases may overlap; the rate at time t is
     * base_rps times the product of every phase covering t (empty =
     * flat Poisson traffic).
     */
    std::vector<BurstPhase> bursts;

    /** Per-request SLO: deadline_ns = arrival_ns + slo_ns. */
    double slo_ns = 50e6;

    /** PTB length scale divisor (graphs unroll per token; 1:4 scale). */
    int length_div = 4;

    uint64_t seed = 1;

    /** Rate multiplier in effect at time t (product of live phases). */
    double rate_multiplier_at(double t_ns) const;

    /** Largest multiplier over the horizon (thinning envelope). */
    double peak_multiplier() const;
};

/**
 * Generate the full arrival trace, sorted by arrival time. Ids number
 * the requests 0..n-1 in arrival order.
 */
std::vector<ServeRequest> generate_traffic(const TrafficConfig& cfg);

}  // namespace astra::serve

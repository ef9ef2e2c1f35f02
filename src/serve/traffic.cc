#include "serve/traffic.h"

#include <algorithm>
#include <cmath>

#include "models/data.h"
#include "support/logging.h"
#include "support/rng.h"

namespace astra::serve {

double
TrafficConfig::rate_multiplier_at(double t_ns) const
{
    double m = 1.0;
    for (const BurstPhase& p : bursts)
        if (t_ns >= p.start_ns && t_ns < p.end_ns)
            m *= p.rate_multiplier;
    return m;
}

double
TrafficConfig::peak_multiplier() const
{
    // Phase boundaries are the only points the (piecewise-constant)
    // multiplier can change. Both ends are change points: with
    // overlapping phases the rate also rises when a sub-unity phase
    // *ends* (e.g. [0,100)x2.0 overlapped by [0,50)x0.1 peaks on
    // [50,100)), so probe every start and every end.
    double peak = 1.0;
    peak = std::max(peak, rate_multiplier_at(0.0));
    for (const BurstPhase& p : bursts) {
        peak = std::max(peak, rate_multiplier_at(p.start_ns));
        peak = std::max(peak, rate_multiplier_at(p.end_ns));
    }
    return peak;
}

std::vector<ServeRequest>
generate_traffic(const TrafficConfig& cfg)
{
    ASTRA_ASSERT(cfg.duration_ns > 0.0 && cfg.base_rps > 0.0);
    ASTRA_ASSERT(cfg.slo_ns > 0.0);
    ASTRA_ASSERT(cfg.length_div > 0);
    for (const BurstPhase& p : cfg.bursts)
        ASTRA_ASSERT(p.rate_multiplier > 0.0 && p.end_ns > p.start_ns);

    Rng rng(cfg.seed);
    std::vector<ServeRequest> out;

    // Thinning (Lewis & Shedler): draw candidate arrivals from a
    // homogeneous Poisson process at the peak rate, accept each with
    // probability rate(t) / peak_rate. Exact for piecewise-constant
    // rates, and one RNG stream keeps the trace a pure function of the
    // seed.
    const double peak_rps = cfg.base_rps * cfg.peak_multiplier();
    const double mean_gap_ns = 1e9 / peak_rps;
    double t = 0.0;
    while (true) {
        // Exponential inter-arrival gap; clamp the uniform draw away
        // from 0 so log() stays finite.
        const double u = std::max(rng.next_double(), 1e-12);
        t += -std::log(u) * mean_gap_ns;
        if (t >= cfg.duration_ns)
            break;
        const double accept =
            cfg.rate_multiplier_at(t) * cfg.base_rps / peak_rps;
        if (rng.next_double() >= accept)
            continue;
        ServeRequest r;
        r.id = static_cast<int64_t>(out.size());
        r.arrival_ns = t;
        r.length = std::max(kMinRequestLength,
                            sample_ptb_length(rng) / cfg.length_div);
        r.deadline_ns = t + cfg.slo_ns;
        out.push_back(r);
    }
    return out;
}

}  // namespace astra::serve

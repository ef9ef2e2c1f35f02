#include "sim/multi.h"

#include <limits>

#include "support/logging.h"

namespace astra {

MultiSim::MultiSim(int count, const GpuConfig& config)
{
    ASTRA_ASSERT(count >= 1, "MultiSim needs at least one device");
    devices_.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        // Each physical GPU boosts independently: salt the jitter seed
        // per device so co-simulated devices draw distinct, seed-stable
        // sequences (SimGpu itself no longer carries global state).
        GpuConfig dev_cfg = config;
        dev_cfg.autoboost_seed +=
            ClockDomain::kSeedMix * static_cast<uint64_t>(i);
        // Same rule for fault injection: each device is its own fault
        // domain with a seed-stable, device-indexed salt.
        if (dev_cfg.fault_salt != 0)
            dev_cfg.fault_salt +=
                ClockDomain::kSeedMix * static_cast<uint64_t>(i);
        devices_.push_back(std::make_unique<SimGpu>(dev_cfg));
    }
}

void
MultiSim::mirror(int src, EventId src_event, int dst, EventId dst_event)
{
    ASTRA_ASSERT(src >= 0 && src < num_devices());
    ASTRA_ASSERT(dst >= 0 && dst < num_devices());
    ASTRA_ASSERT(src != dst, "mirror source and destination must differ");
    ASTRA_ASSERT(!device(src).event_recorded(src_event),
                 "mirror registered after source event already recorded");
    mirrors_.push_back({src, src_event, dst, dst_event, false});
}

bool
MultiSim::deliver_mirrors()
{
    bool delivered = false;
    for (Mirror& m : mirrors_) {
        if (m.delivered)
            continue;
        SimGpu& src = device(m.src);
        if (!src.event_recorded(m.src_event))
            continue;
        device(m.dst).record_external(m.dst_event,
                                      src.event_time_ns(m.src_event));
        m.delivered = true;
        delivered = true;
    }
    return delivered;
}

void
MultiSim::run()
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double horizon = 0.0;
    while (true) {
        std::vector<SimGpu::RunState> states;
        states.reserve(devices_.size());
        for (auto& d : devices_)
            states.push_back(d->run_until(horizon));

        // Newly-recorded events may unblock peers at this same horizon,
        // so re-run before advancing time.
        if (deliver_mirrors())
            continue;

        bool all_drained = true;
        double next = kInf;
        for (size_t i = 0; i < devices_.size(); ++i) {
            if (states[i] == SimGpu::RunState::Drained)
                continue;
            all_drained = false;
            if (states[i] == SimGpu::RunState::Paused)
                next = std::min(next, devices_[i]->next_event_ns());
        }
        if (all_drained)
            break;
        if (next == kInf)
            panic("MultiSim deadlock: devices blocked on cross-device "
                  "events that will never be recorded");
        horizon = next;
    }
}

double
MultiSim::now_ns() const
{
    double t = 0.0;
    for (const auto& d : devices_)
        t = std::max(t, d->now_ns());
    return t;
}

}  // namespace astra

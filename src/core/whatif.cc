#include "core/whatif.h"

#include <vector>

#include "obs/obs.h"
#include "runtime/wired.h"

namespace astra {

namespace {

/**
 * Strip the device model down to a deterministic timing oracle: no
 * host compute, no fault draws, base clock. Replay exactness (and with
 * it the wirer's identity guarantee) holds against measurements taken
 * under the same conditions; the wirer's arming predicate enforces
 * that on the measuring side.
 */
GpuConfig
sanitize_device(const GpuConfig& gpu)
{
    GpuConfig g = gpu;
    g.execute_kernels = false;
    g.collect_trace = false;
    g.autoboost = false;
    g.forced_clock_multiplier = 0.0;
    g.faults = FaultPlan{};
    g.fault_salt = 0;
    return g;
}

}  // namespace

WhatIfEngine::WhatIfEngine(const Graph& /*graph*/, const TensorMap& tmap,
                           const Scheduler& scheduler,
                           const GpuConfig& gpu)
    : tmap_(tmap), scheduler_(scheduler),
      gpu_(sanitize_device(gpu))
{
}

DispatchResult
WhatIfEngine::evaluate(const ScheduleConfig& config) const
{
    obs::ScopedSpan span(obs::Category::Wire, "whatif.evaluate");
    // The trial binds over its strategy's kept skeleton, as a measured
    // dispatch does: only the command stream is compiled.
    const WiredBinary bound = scheduler_.bind(config, tmap_, gpu_);
    SimGpu gpu(gpu_);
    for (int s = 1; s < bound.program.num_streams; ++s)
        gpu.create_stream();
    // The walk a real dispatch runs: replay and dispatch diverge by
    // construction nowhere.
    std::vector<EventId> events;
    enqueue_wired(bound.program, bound.kernels, gpu, events);
    gpu.synchronize();

    DispatchResult r;
    collect_wired_profiles(bound.program, events, gpu, r);
    r.total_ns = gpu.now_ns();
    return r;
}

}  // namespace astra

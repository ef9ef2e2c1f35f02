#include "runtime/dispatcher_dp.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "kernels/cost.h"
#include "obs/obs.h"
#include "runtime/wired.h"
#include "support/logging.h"

namespace astra {

namespace {

/** One gradient flush group: tensors reduced together as one message. */
struct Bucket
{
    std::vector<NodeId> grads;
    int64_t bytes = 0;
    int flush_step = -1;  ///< last producing plan step (plan order)
};

/**
 * Pack gradient tensors into buckets walking the plan in step order —
 * backward produces late-layer gradients first, so early buckets are
 * ready while early-layer backward compute is still running.
 */
std::vector<Bucket>
assign_buckets(const ExecutionPlan& plan, const Graph& graph,
               const std::set<NodeId>& grads, int64_t cap)
{
    std::vector<Bucket> buckets;
    const int num_steps = static_cast<int>(plan.steps.size());
    size_t covered = 0;
    for (int i = 0; i < num_steps; ++i) {
        for (NodeId id : plan.steps[i].nodes) {
            if (!grads.count(id))
                continue;
            ++covered;
            if (buckets.empty() || cap == 0 ||
                buckets.back().bytes >= cap)
                buckets.push_back({});
            Bucket& b = buckets.back();
            b.grads.push_back(id);
            b.bytes += static_cast<int64_t>(graph.node(id).desc.bytes());
            b.flush_step = i;
        }
    }
    ASTRA_ASSERT(covered == grads.size(),
                 "plan covers ", covered, " of ", grads.size(),
                 " gradient nodes");
    return buckets;
}

}  // namespace

std::string
flush_schedule_name(FlushSchedule flush)
{
    return flush == FlushSchedule::Eager ? "eager" : "end";
}

DpResult
dispatch_plan_dp(const ExecutionPlan& plan, const Graph& graph,
                 const TensorMap& tmap, const GpuConfig& cfg,
                 const std::vector<NodeId>& grad_nodes,
                 const DpOptions& opts)
{
    ASTRA_ASSERT(opts.degree >= 1);
    ASTRA_ASSERT(opts.bucket_bytes >= 0);
    const int G = opts.degree;

    const bool obs_on = obs::enabled();
    obs::ScopedSpan dispatch_span(obs::Category::Dispatch,
                                  "dispatch_plan_dp");
    const double obs_anchor = obs_on ? obs::now_ns() : 0.0;

    // Timing-only: the devices run identical shapes (mini-batch
    // predictability), and executing host callbacks on G devices would
    // race on the one shared TensorMap.
    GpuConfig gpu_cfg = cfg;
    gpu_cfg.execute_kernels = false;
    gpu_cfg.collect_trace = true;  // compute/comm split comes from spans

    MultiSim multi(G, gpu_cfg);

    // Each device's link endpoint is its own fault domain: derive a
    // per-device comm injector the same way MultiSim salts its devices,
    // so degraded-link draws are seed-stable per (device, transfer) and
    // independent of the devices' kernel-fault sequences.
    std::vector<FaultInjector> comm_faults;
    comm_faults.reserve(static_cast<size_t>(G));
    for (int d = 0; d < G; ++d)
        comm_faults.emplace_back(
            &gpu_cfg.faults,
            fault_mix(gpu_cfg.fault_salt +
                          ClockDomain::kSeedMix * static_cast<uint64_t>(d),
                      0xC0));

    // The plan's compute streams, plus one comm stream per device. The
    // comm stream *is* the device's link endpoint: its FIFO serializes
    // transfers the way the full-duplex ring link does.
    const int comm_stream = plan.num_streams;
    for (int d = 0; d < G; ++d) {
        SimGpu& gpu = multi.device(d);
        for (int s = 1; s < plan.num_streams; ++s)
            gpu.create_stream();
        if (G > 1)
            ASTRA_ASSERT(gpu.create_stream() == comm_stream);
    }

    std::vector<Bucket> buckets;
    if (G > 1) {
        const std::set<NodeId> grad_set(grad_nodes.begin(),
                                        grad_nodes.end());
        buckets = assign_buckets(plan, graph, grad_set, opts.bucket_bytes);
    }
    const int nbuckets = static_cast<int>(buckets.size());
    const int nhops = 2 * (G - 1);  // ring allreduce chunk transfers

    // Ring progress events: ready[d][b*nhops+s] = "device d finished
    // hop s of bucket b"; its mirror on the downstream neighbour d+1 is
    // recv[d+1][b*nhops+s], which that device's hop s+1 waits on.
    std::vector<std::vector<EventId>> ready(static_cast<size_t>(G));
    std::vector<std::vector<EventId>> recv(static_cast<size_t>(G));
    for (int d = 0; d < G; ++d) {
        for (int k = 0; k < nbuckets * nhops; ++k) {
            ready[static_cast<size_t>(d)].push_back(
                multi.device(d).create_event());
            recv[static_cast<size_t>(d)].push_back(
                multi.device(d).create_event());
        }
    }
    for (int d = 0; d < G; ++d) {
        const int dn = (d + 1) % G;
        for (int k = 0; k < nbuckets * nhops; ++k)
            multi.mirror(d, ready[static_cast<size_t>(d)][k], dn,
                         recv[static_cast<size_t>(dn)][k]);
    }

    // Which buckets flush after which plan step (Eager only).
    std::map<int, std::vector<int>> flush_at;
    if (G > 1 && opts.flush == FlushSchedule::Eager)
        for (int b = 0; b < nbuckets; ++b)
            flush_at[buckets[static_cast<size_t>(b)].flush_step]
                .push_back(b);

    // Enqueue one bucket's ring allreduce on a device's comm stream:
    // 2(G-1) chunk transfers, each gated on the upstream neighbour
    // having finished the previous hop (the reduce-scatter/allgather
    // pipeline), the first on the local gradients being ready.
    auto enqueue_ring = [&](int d, int b, EventId gate) {
        SimGpu& gpu = multi.device(d);
        const double chunk_bytes =
            static_cast<double>(buckets[static_cast<size_t>(b)].bytes) /
            static_cast<double>(G);
        const KernelCost cost = comm_transfer_cost(
            chunk_bytes, opts.link.link_gbps, opts.link.latency_us);
        for (int s = 0; s < nhops; ++s) {
            const int k = b * nhops + s;
            if (s == 0) {
                if (gate >= 0)
                    gpu.wait_event(comm_stream, gate);
            } else {
                gpu.wait_event(comm_stream,
                               recv[static_cast<size_t>(d)]
                                   [static_cast<size_t>(k - 1)]);
            }
            KernelDesc kd;
            kd.name = "comm.b" + std::to_string(b) + ".s" +
                      std::to_string(s);
            kd.blocks = 0;  // copy-engine work, holds no SMs
            kd.setup_ns =
                cost.setup_ns * comm_faults[static_cast<size_t>(d)].on_comm();
            gpu.launch(comm_stream, std::move(kd));
            gpu.record_event(comm_stream,
                             ready[static_cast<size_t>(d)]
                                  [static_cast<size_t>(k)]);
        }
    };

    // One bind for all G devices: the dependency analysis and kernel
    // descriptors are shared, and every device walks the same program.
    const WiredBinary bound =
        bind_plan(plan, graph, tmap, gpu_cfg, /*profiling=*/false);

    for (int d = 0; d < G; ++d) {
        SimGpu& gpu = multi.device(d);
        std::function<void(int)> hook;
        if (!flush_at.empty()) {
            // The comm commands enqueue through the same host pipeline
            // as compute launches, so per-bucket flush cost (2(G-1)
            // launches + events) delays later compute launches exactly
            // like a DDP autograd hook — per-tensor bucketing pays it
            // once per gradient.
            hook = [&, d](int i) {
                const auto it = flush_at.find(i);
                if (it == flush_at.end())
                    return;
                const EventId gate = gpu.create_event();
                gpu.record_event(plan.steps[static_cast<size_t>(i)].stream,
                                 gate);
                for (int b : it->second)
                    enqueue_ring(d, b, gate);
            };
        }
        std::vector<EventId> events;
        enqueue_wired(bound.program, bound.kernels, gpu, events, hook);

        if (G > 1 && opts.flush == FlushSchedule::EndOfStep) {
            // Serial baseline: the comm stream waits for every compute
            // stream to drain before the first transfer starts.
            for (int s = 0; s < plan.num_streams; ++s) {
                const EventId gate = gpu.create_event();
                gpu.record_event(s, gate);
                gpu.wait_event(comm_stream, gate);
            }
            for (int b = 0; b < nbuckets; ++b)
                enqueue_ring(d, b, /*gate=*/-1);
        }
    }

    multi.run();

    DpResult result;
    result.step_ns = multi.now_ns();
    // Compute and comm come from the device whose trace ends last (the
    // lowest index on ties), the one that sets the step, so overlap_ns
    // never mixes one device's spans with another device's step.
    int last = 0;
    double last_end = 0.0;
    for (int d = 0; d < G; ++d)
        for (const TraceSpan& s : multi.device(d).trace())
            if (s.end_ns > last_end) {
                last_end = s.end_ns;
                last = d;
            }
    double compute_end = 0.0;
    double comm_sum = 0.0;
    for (const TraceSpan& s : multi.device(last).trace()) {
        if (G > 1 && s.stream == comm_stream)
            comm_sum += s.end_ns - s.start_ns;
        else
            compute_end = std::max(compute_end, s.end_ns);
    }
    result.compute_ns = compute_end;
    result.comm_ns = comm_sum;
    result.overlap_ns =
        std::max(0.0, result.compute_ns + result.comm_ns - result.step_ns);
    for (const Bucket& b : buckets)
        result.comm_bytes += static_cast<double>(nhops) *
                             static_cast<double>(b.bytes) /
                             static_cast<double>(G);
    result.num_buckets = nbuckets;

    if (obs_on) {
        obs::add_kernel_spans(multi.device(0).trace(), obs_anchor);
        static obs::Counter& bytes = obs::counter("comm.bytes");
        bytes.add(static_cast<int64_t>(result.comm_bytes));
        static obs::Counter& transfers = obs::counter("comm.transfers");
        transfers.add(static_cast<int64_t>(nbuckets) * nhops);
        static obs::Counter& overlap = obs::counter("comm.overlap_ns");
        overlap.add(static_cast<int64_t>(result.overlap_ns));
        obs::observe("dispatch.dp_step_ns", result.step_ns);
    }
    return result;
}

}  // namespace astra

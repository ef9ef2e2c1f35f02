#include "core/data_parallel.h"

#include "core/search_space.h"
#include "obs/obs.h"
#include "support/logging.h"

namespace astra {

double
ring_allreduce_ns(int64_t bytes, int degree, const LinkConfig& net)
{
    ASTRA_ASSERT(degree >= 1);
    if (degree == 1)
        return 0.0;
    const double g = static_cast<double>(degree);
    // link_gbps is gigabits/s (1 Gbit/s == 1 bit/ns): ns = bits/gbps.
    const double bw_term = 2.0 * (g - 1.0) / g *
                           static_cast<double>(bytes) * 8.0 /
                           net.link_gbps;
    const double lat_term = 2.0 * (g - 1.0) * net.latency_us * 1e3;
    return bw_term + lat_term;
}

namespace {

/**
 * Measure each (flush, capacity) binding of one degree once, Eager
 * first and capacities ascending, and bind the first strictly fastest
 * step. enumerate_dp_space ends the capacities at grad_bytes, so the
 * sweep's last point, one bucket flushed after compute, is the serial
 * baseline; no transfer of it starts before the compute streams drain,
 * so its compute span is the compute-only time. Fills the chosen
 * binding, its detail, serial_ns and compute_ns into `p`.
 */
void
sweep_dp_bindings(const ExecutionPlan& plan, const Graph& graph,
                  const TensorMap& tmap, const AstraOptions& opts,
                  const LinkConfig& net, const DataParallelSpace& dp,
                  ScalePoint& p)
{
    DpOptions dopts;
    dopts.degree = p.degree;
    dopts.link = net;
    for (const FlushSchedule flush :
         {FlushSchedule::Eager, FlushSchedule::EndOfStep})
        for (const int64_t cap : dp.bucket_options) {
            dopts.bucket_bytes = cap;
            dopts.flush = flush;
            p.sweep.push_back({cap, flush,
                               dispatch_plan_dp(plan, graph, tmap,
                                                opts.gpu, dp.grad_nodes,
                                                dopts)});
            ++p.minibatches;
        }

    const BucketTrial* best = &p.sweep.front();
    for (const BucketTrial& t : p.sweep)
        if (t.result.step_ns < best->result.step_ns)
            best = &t;
    p.bucket_bytes = best->bucket_bytes;
    p.flush = best->flush;
    p.step_ns = best->result.step_ns;
    p.comm_ns = best->result.comm_ns;
    p.overlap_ns = best->result.overlap_ns;
    p.num_buckets = best->result.num_buckets;

    const BucketTrial& serial = p.sweep.back();
    ASTRA_ASSERT(serial.bucket_bytes == dp.grad_bytes &&
                 serial.flush == FlushSchedule::EndOfStep);
    p.serial_ns = serial.result.step_ns;
    p.compute_ns = serial.result.compute_ns;
}

}  // namespace

std::vector<ScalePoint>
measure_scaling(const BatchGraphFn& build, int64_t global_batch,
                const std::vector<int>& degrees, const AstraOptions& opts,
                const LinkConfig& net)
{
    std::vector<ScalePoint> points;
    for (int degree : degrees) {
        if (degree < 1 || global_batch % degree != 0) {
            warn("skipping degree ", degree,
                 ": does not divide global batch ", global_batch);
            obs::counter("dp.degrees_skipped").add();
            continue;
        }
        GraphBuilder b;
        build(b, global_batch / degree);
        AstraSession session(b.graph(), opts);

        ScalePoint p;
        p.degree = degree;

        // All devices run the identical tuned schedule on identical
        // shapes; mini-batch predictability (§4.1) makes one device's
        // compute tuning stand for all of them.
        const WirerResult r = session.optimize();
        const ExecutionPlan plan =
            session.scheduler().build(r.best_config);
        const TensorMap& tmap =
            session.tensor_map(r.best_config.strategy);

        const DataParallelSpace dp = enumerate_dp_space(b.graph());
        p.grad_bytes = dp.grad_bytes;
        p.allreduce_ns = ring_allreduce_ns(p.grad_bytes, degree, net);

        if (degree == 1) {
            // Pure-compute makespan under the dp dispatcher (one
            // device moves no gradients), so every degree shares one
            // measurement pipeline.
            p.compute_ns = dispatch_plan_dp(plan, b.graph(), tmap,
                                            opts.gpu, {}, DpOptions())
                               .step_ns;
            ++p.minibatches;
            p.step_ns = p.compute_ns;
            p.serial_ns = p.compute_ns;
        } else {
            sweep_dp_bindings(plan, b.graph(), tmap, opts, net, dp, p);
        }
        obs::observe("dp.step_ns", p.step_ns);
        obs::observe("dp.overlap_ns", p.overlap_ns);
        points.push_back(std::move(p));
    }
    ASTRA_ASSERT(!points.empty(), "no feasible parallelism degree");
    return points;
}

size_t
best_degree(const std::vector<ScalePoint>& points, int64_t global_batch)
{
    ASTRA_ASSERT(!points.empty(),
                 "best_degree called with no scaling points");
    size_t best = 0;
    for (size_t i = 1; i < points.size(); ++i)
        if (points[i].throughput(global_batch) >
            points[best].throughput(global_batch))
            best = i;
    return best;
}

}  // namespace astra

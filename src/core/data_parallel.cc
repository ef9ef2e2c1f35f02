#include "core/data_parallel.h"

#include <limits>
#include <string>

#include "core/adaptive.h"
#include "core/search_space.h"
#include "obs/obs.h"
#include "support/logging.h"

namespace astra {

double
ring_allreduce_ns(int64_t bytes, int degree, const InterconnectConfig& net)
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
 * Explore gradient-bucket capacity and flush schedule for one degree
 * with the adaptive machinery: two variables under an Exhaustive
 * update node, in an index of their own, with the flush binding in the
 * bucket variable's context (so a capacity measured under one schedule
 * never answers for the other). Fills the chosen binding and measured
 * detail into `p`.
 */
void
explore_dp_binding(const ExecutionPlan& plan, const Graph& graph,
                   const TensorMap& tmap, const AstraOptions& opts,
                   const InterconnectConfig& net,
                   const DataParallelSpace& dp, ScalePoint& p)
{
    const int G = p.degree;
    ContextTable contexts;

    const int nbuckets = static_cast<int>(dp.bucket_options.size());
    constexpr uint32_t kBucketVar = 0, kFlushVar = 1;
    auto bucket_var =
        std::make_shared<AdaptiveVariable>(kBucketVar, nbuckets);
    auto flush_var = std::make_shared<AdaptiveVariable>(kFlushVar, 2);

    std::vector<std::unique_ptr<UpdateNode>> leaves;
    leaves.push_back(UpdateNode::leaf(bucket_var));
    leaves.push_back(UpdateNode::leaf(flush_var));
    auto root = UpdateNode::composite(UpdateNode::Mode::Exhaustive,
                                      std::move(leaves));
    root->initialize();

    ProfileIndex index(opts.normalize_clock);

    DpOptions dopts;
    dopts.degree = G;
    dopts.link = net;

    const auto bucket_context = [&](int flush_choice) {
        return contexts.extend(contexts.root(), kFlushVar, flush_choice);
    };

    // Exhaustive sweep: each trial dispatches the current binding on G
    // devices and records the measured step under both variables' keys
    // (the flush key accumulates the best across capacities — ranking
    // schedules by their best achievable step).
    while (true) {
        const int fc = flush_var->current();
        bucket_var->set_context(bucket_context(fc));
        dopts.bucket_bytes =
            dp.bucket_options[static_cast<size_t>(bucket_var->current())];
        dopts.flush = fc == 0 ? FlushSchedule::Eager
                              : FlushSchedule::EndOfStep;
        const DpResult m = dispatch_plan_dp(plan, graph, tmap, opts.gpu,
                                            dp.grad_nodes, dopts);
        ++p.minibatches;
        index.record(bucket_var->profile_key(), m.step_ns);
        index.record(flush_var->profile_key(), m.step_ns);
        if (root->finished())
            break;
        root->advance(index);
    }

    // Bind: flush first, then the capacity under that schedule (the
    // bucket variable's context depends on the flush binding).
    flush_var->bind_best(index);
    bucket_var->set_context(bucket_context(flush_var->current()));
    bucket_var->bind_best(index);

    p.flush = flush_var->current() == 0 ? FlushSchedule::Eager
                                        : FlushSchedule::EndOfStep;
    p.bucket_bytes =
        dp.bucket_options[static_cast<size_t>(bucket_var->current())];

    // Re-dispatch the chosen binding for the detail fields.
    dopts.bucket_bytes = p.bucket_bytes;
    dopts.flush = p.flush;
    const DpResult chosen =
        dispatch_plan_dp(plan, graph, tmap, opts.gpu, dp.grad_nodes,
                         dopts);
    ++p.minibatches;
    p.step_ns = chosen.step_ns;
    p.comm_ns = chosen.comm_ns;
    p.overlap_ns = chosen.overlap_ns;
    p.num_buckets = chosen.num_buckets;

    // Serial baseline: one bucket, flushed only after compute drains.
    DpOptions serial = dopts;
    serial.bucket_bytes = dp.grad_bytes;
    serial.flush = FlushSchedule::EndOfStep;
    const DpResult base =
        dispatch_plan_dp(plan, graph, tmap, opts.gpu, dp.grad_nodes,
                         serial);
    ++p.minibatches;
    p.serial_ns = base.step_ns;
}

}  // namespace

std::vector<ScalePoint>
measure_scaling(const BatchGraphFn& build, int64_t global_batch,
                const std::vector<int>& degrees, const AstraOptions& opts,
                const InterconnectConfig& net, ConvergenceReport* report)
{
    std::vector<ScalePoint> points;
    for (int degree : degrees) {
        if (degree < 1 || global_batch % degree != 0) {
            const std::string why =
                "skipping degree " + std::to_string(degree) +
                ": does not divide global batch " +
                std::to_string(global_batch);
            warn(why);
            if (report != nullptr)
                report->dp_skipped.push_back(why);
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

        // Pure-compute makespan under the dp dispatcher (no gradient
        // nodes -> no communication), so serial/overlap comparisons
        // share one measurement pipeline.
        DpOptions compute_only;
        compute_only.degree = degree;
        compute_only.link = net;
        p.compute_ns = dispatch_plan_dp(plan, b.graph(), tmap, opts.gpu,
                                        {}, compute_only)
                           .step_ns;
        ++p.minibatches;

        if (degree == 1) {
            p.step_ns = p.compute_ns;
            p.serial_ns = p.compute_ns;
        } else {
            explore_dp_binding(plan, b.graph(), tmap, opts, net, dp, p);
        }
        obs::observe("dp.step_ns", p.step_ns);
        obs::observe("dp.overlap_ns", p.overlap_ns);
        points.push_back(p);
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

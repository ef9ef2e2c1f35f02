/**
 * @file
 * Tests for measured data-parallel execution (§3.4 extension): the
 * analytic ring formula's algebra (bit/byte units pinned by hand), the
 * multi-device measurement mechanics, allreduce/backward overlap, the
 * adaptive gradient-bucket choice, and the communication/computation
 * crossover that makes the degree a quantity worth *measuring*.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/data_parallel.h"
#include "core/search_space.h"
#include "models/models.h"
#include "sim/faults.h"

namespace astra {
namespace {

TEST(RingAllreduce, Algebra)
{
    LinkConfig net;
    net.link_gbps = 10.0;  // gigabits/s: 10 bits per ns
    net.latency_us = 5.0;
    EXPECT_DOUBLE_EQ(ring_allreduce_ns(1 << 20, 1, net), 0.0);
    // Hand-computed, 2 devices: the bandwidth term moves
    // 2*(G-1)/G = 1x the payload. 1 MiB = 2^20 bytes = 8*2^20 bits;
    // at 10 Gbit/s (10 bits/ns) that is 8*2^20/10 = 838860.8 ns, plus
    // 2*(G-1) = 2 latency hops of 5000 ns. A bytes/gbps formula (the
    // GB/s misreading this pins against) would claim 104857.6 ns —
    // 8x optimistic.
    const double two = ring_allreduce_ns(1 << 20, 2, net);
    EXPECT_DOUBLE_EQ(two, (1 << 20) * 8.0 / 10.0 + 2 * 5000.0);
    // Bandwidth term approaches 2x bytes/bw as G grows; latency grows
    // linearly, so time is monotone in G for fixed bytes.
    double prev = two;
    for (int g = 4; g <= 32; g *= 2) {
        const double t = ring_allreduce_ns(1 << 20, g, net);
        EXPECT_GT(t, prev);
        prev = t;
    }
    // More bytes, more time.
    EXPECT_GT(ring_allreduce_ns(2 << 20, 4, net),
              ring_allreduce_ns(1 << 20, 4, net));
}

BatchGraphFn
model_builder()
{
    return [](GraphBuilder& b, int64_t batch) {
        ModelConfig cfg;
        cfg.batch = batch;
        cfg.seq_len = 4;
        cfg.hidden = 64;
        cfg.embed_dim = 64;
        cfg.vocab = 100;
        BuiltModel m = build_model(ModelKind::SubLstm, cfg);
        b = std::move(*m.builder);
    };
}

AstraOptions
quiet_opts()
{
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    // Measured-overlap comparisons are exact only at base clock; the
    // noise CI job (ASTRA_SIM_AUTOBOOST) has its own suites.
    opts.gpu.autoboost = false;
    opts.features = features_fk();
    return opts;
}

TEST(DataParallel, MeasuresEveryFeasibleDegree)
{
    const AstraOptions opts = quiet_opts();
    LinkConfig net;
    const auto points =
        measure_scaling(model_builder(), 32, {1, 2, 4, 3}, opts, net);
    // Degree 3 does not divide 32 and is skipped.
    ASSERT_EQ(points.size(), 3u);
    for (const ScalePoint& p : points) {
        EXPECT_GT(p.compute_ns, 0.0);
        EXPECT_GT(p.grad_bytes, 0);
        // The step is executed, not summed from parts: it can never
        // beat pure compute, and the overlapped schedule the adaptive
        // layer picked can never lose to the serial baseline.
        EXPECT_GE(p.step_ns, p.compute_ns);
        EXPECT_LE(p.step_ns, p.serial_ns);
        if (p.degree == 1) {
            EXPECT_DOUBLE_EQ(p.step_ns, p.compute_ns);
            EXPECT_DOUBLE_EQ(p.comm_ns, 0.0);
        } else {
            EXPECT_GT(p.comm_ns, 0.0);
            EXPECT_GT(p.num_buckets, 0);
            EXPECT_GT(p.minibatches, 0);
        }
    }
    EXPECT_DOUBLE_EQ(points[0].allreduce_ns, 0.0);  // G = 1
    // Gradient volume is batch-independent (parameters only).
    EXPECT_EQ(points[0].grad_bytes, points[2].grad_bytes);
    // Per-device compute shrinks with the per-device batch.
    EXPECT_LT(points[2].compute_ns, points[0].compute_ns);
}

TEST(DataParallel, SkippedDegreesAreReportedNotJustLogged)
{
    // A sweep asked for degrees {3, 4} at global batch 16: degree 3
    // does not divide, so the returned points, not only a log line,
    // show that it was never measured.
    const AstraOptions opts = quiet_opts();
    LinkConfig net;
    const auto points =
        measure_scaling(model_builder(), 16, {3, 4}, opts, net);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].degree, 4);
}

TEST(DataParallel, OverlapBeatsSerialAndAnalyticSum)
{
    const AstraOptions opts = quiet_opts();
    LinkConfig net;  // 12 Gbit/s: comm is worth hiding
    const auto points =
        measure_scaling(model_builder(), 32, {2}, opts, net);
    ASSERT_EQ(points.size(), 1u);
    const ScalePoint& p = points[0];
    // The tentpole claim: measured overlapped execution strictly beats
    // both the measured serial baseline and the analytic
    // compute-plus-allreduce sum the old model reported.
    EXPECT_LT(p.step_ns, p.serial_ns);
    EXPECT_LT(p.step_ns, p.compute_ns + p.allreduce_ns);
    EXPECT_GT(p.overlap_ns, 0.0);
    // The analytic formula stays honest as a cross-check: the measured
    // link busy time brackets it (same chunks, plus per-chunk launch
    // serialization on the comm stream).
    EXPECT_GT(p.comm_ns, 0.9 * p.allreduce_ns);
}

TEST(DataParallel, AdaptiveBucketChoiceIsNotWorseThanExtremes)
{
    const AstraOptions opts = quiet_opts();
    LinkConfig net;
    const int G = 2;
    const auto points =
        measure_scaling(model_builder(), 32, {G}, opts, net);
    ASSERT_EQ(points.size(), 1u);
    const ScalePoint& p = points[0];

    // The sweep measured the fixed extremes through the same pipeline;
    // the chosen capacity can't lose to either (it was picked by
    // measured argmin over a superset).
    const auto eager = [&](int64_t cap) {
        for (const BucketTrial& t : p.sweep)
            if (t.bucket_bytes == cap && t.flush == FlushSchedule::Eager)
                return t.result.step_ns;
        ADD_FAILURE() << "no eager sweep point at capacity " << cap;
        return 0.0;
    };
    EXPECT_LE(p.step_ns, eager(p.grad_bytes));  // one bucket
    EXPECT_LE(p.step_ns, eager(0));             // per-tensor
}

TEST(DataParallel, CommunicationCreatesACrossover)
{
    // On a fast link, scaling out wins; on a very slow link, the
    // allreduce swamps the smaller per-device compute and the measured
    // best degree collapses back toward 1 — the cost-benefit dynamic
    // the paper says must be measured, not modelled.
    const AstraOptions opts = quiet_opts();

    LinkConfig fast;
    fast.link_gbps = 400.0;
    fast.latency_us = 1.0;
    const auto fast_points =
        measure_scaling(model_builder(), 64, {1, 2, 4}, opts, fast);
    const size_t fast_best = best_degree(fast_points, 64);

    LinkConfig slow;
    slow.link_gbps = 0.05;
    slow.latency_us = 300.0;
    const auto slow_points =
        measure_scaling(model_builder(), 64, {1, 2, 4}, opts, slow);
    const size_t slow_best = best_degree(slow_points, 64);

    EXPECT_GT(fast_points[fast_best].degree,
              slow_points[slow_best].degree);
    EXPECT_EQ(slow_points[slow_best].degree, 1);
}

/** Tuned plan + map + gradient nodes for direct dp dispatches. */
struct DpHarness
{
    GraphBuilder b;
    std::unique_ptr<AstraSession> session;
    ExecutionPlan plan;
    DataParallelSpace dp;

    explicit DpHarness(const AstraOptions& opts)
    {
        model_builder()(b, 16);
        session = std::make_unique<AstraSession>(b.graph(), opts);
        const WirerResult wr = session->optimize();
        plan = session->scheduler().build(wr.best_config);
        dp = enumerate_dp_space(b.graph());
        strategy = wr.best_config.strategy;
    }

    DpResult
    run(const GpuConfig& cfg, const DpOptions& dopts) const
    {
        return dispatch_plan_dp(plan, b.graph(),
                                session->tensor_map(strategy), cfg,
                                dp.grad_nodes, dopts);
    }

    int strategy = 0;
};

TEST(DataParallel, SweepMeasuresEachBindingOnce)
{
    // One dispatch per (flush, capacity) binding, Eager first and
    // capacities ascending; the point's detail is read back from the
    // sweep, so it equals a fresh dispatch of the chosen binding, of
    // the serial one (one grad_bytes bucket flushed after compute) and,
    // for compute_ns, of a compute-only run bit for bit.
    AstraOptions opts = quiet_opts();
    opts.gpu.faults = FaultPlan();
    const LinkConfig net;
    const auto points =
        measure_scaling(model_builder(), 32, {2}, opts, net);
    ASSERT_EQ(points.size(), 1u);
    const ScalePoint& p = points[0];
    const DpHarness h(opts);  // per-device batch 16 = 32 / 2
    const std::vector<int64_t>& caps = h.dp.bucket_options;
    EXPECT_EQ(p.minibatches, static_cast<int>(2 * caps.size()));
    ASSERT_EQ(p.sweep.size(), 2 * caps.size());
    bool before_chosen = true;
    for (size_t i = 0; i < p.sweep.size(); ++i) {
        const BucketTrial& t = p.sweep[i];
        EXPECT_EQ(t.bucket_bytes, caps[i % caps.size()]) << i;
        EXPECT_EQ(t.flush, i < caps.size() ? FlushSchedule::Eager
                                           : FlushSchedule::EndOfStep)
            << i;
        // The first strictly fastest binding is the chosen one.
        if (t.bucket_bytes == p.bucket_bytes && t.flush == p.flush)
            before_chosen = false;
        else if (before_chosen)
            EXPECT_GT(t.result.step_ns, p.step_ns) << i;
        else
            EXPECT_GE(t.result.step_ns, p.step_ns) << i;
    }
    EXPECT_FALSE(before_chosen);

    DpOptions dopts;
    dopts.degree = 2;
    dopts.link = net;
    dopts.bucket_bytes = p.bucket_bytes;
    dopts.flush = p.flush;
    const DpResult chosen = h.run(opts.gpu, dopts);
    EXPECT_EQ(p.step_ns, chosen.step_ns);
    EXPECT_EQ(p.comm_ns, chosen.comm_ns);
    EXPECT_EQ(p.overlap_ns, chosen.overlap_ns);
    EXPECT_EQ(p.num_buckets, chosen.num_buckets);
    dopts.bucket_bytes = p.grad_bytes;
    dopts.flush = FlushSchedule::EndOfStep;
    EXPECT_EQ(p.serial_ns, h.run(opts.gpu, dopts).step_ns);
    DpOptions compute_only;
    compute_only.degree = 2;
    compute_only.link = net;
    EXPECT_EQ(p.compute_ns,
              dispatch_plan_dp(h.plan, h.b.graph(),
                               h.session->tensor_map(h.strategy),
                               opts.gpu, {}, compute_only)
                  .step_ns);
}

TEST(DataParallel, SweepComputeIsTheComputeOnlyMakespanUnderAutoboost)
{
    // Per-device clocks: the devices finish at different times. The
    // serial point's compute_ns is read from the device that finishes
    // last, so it still equals a compute-only run's makespan bit for
    // bit, as at base clock.
    AstraOptions opts = quiet_opts();
    opts.gpu.faults = FaultPlan();
    opts.gpu.autoboost = true;
    const LinkConfig net;
    const auto points =
        measure_scaling(model_builder(), 32, {2}, opts, net);
    ASSERT_EQ(points.size(), 1u);
    const DpHarness h(opts);
    DpOptions compute_only;
    compute_only.degree = 2;
    compute_only.link = net;
    EXPECT_EQ(points[0].compute_ns,
              dispatch_plan_dp(h.plan, h.b.graph(),
                               h.session->tensor_map(h.strategy),
                               opts.gpu, {}, compute_only)
                  .step_ns);
}

TEST(DataParallel, CommFaultDegradesMeasuredLink)
{
    // A degraded interconnect (comm:x=4 on every hop) must show up in
    // the *measured* link busy time — same payload, slower chunks —
    // without perturbing compute.
    const AstraOptions opts = quiet_opts();
    const DpHarness h(opts);
    DpOptions dopts;
    dopts.degree = 2;
    dopts.flush = FlushSchedule::Eager;
    const DpResult clean = h.run(opts.gpu, dopts);
    ASSERT_GT(clean.comm_ns, 0.0);

    GpuConfig degraded_cfg = opts.gpu;
    ASSERT_TRUE(
        FaultPlan::parse("seed=5;comm:p=1,x=4", &degraded_cfg.faults));
    const DpResult degraded = h.run(degraded_cfg, dopts);
    EXPECT_GT(degraded.comm_ns, clean.comm_ns);
    EXPECT_GE(degraded.step_ns, clean.step_ns);
    // The payload is a property of the model, not of link health.
    EXPECT_DOUBLE_EQ(degraded.comm_bytes, clean.comm_bytes);
    EXPECT_EQ(degraded.num_buckets, clean.num_buckets);
}

TEST(DataParallel, DispatchTimingsArePinned)
{
    // Exact measured outcomes of one fixed fused, two-stream plan over
    // the dp dispatcher's grid (degree x flush schedule x bucket
    // extremes). The other tests here check relations between
    // results; this one pins the numbers, so a change to how the plan
    // is bound or walked cannot move simulated time unnoticed.
    ModelConfig mc;
    mc.batch = 8;
    mc.seq_len = 3;
    mc.hidden = 32;
    mc.embed_dim = 32;
    mc.vocab = 50;
    mc.layers = 2;
    const BuiltModel m = build_model(ModelKind::StackedLstm, mc);
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.gpu.autoboost = false;
    opts.gpu.faults = FaultPlan();
    const AstraSession session(m.graph(), opts);
    const SearchSpace& space = session.space();
    ScheduleConfig cfg;
    cfg.group_chunk.assign(space.groups.size(), 1);
    cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
    for (const FusionGroup& g : space.groups)
        cfg.group_chunk[static_cast<size_t>(g.id)] =
            g.chunk_options.back();
    cfg.use_streams = true;
    cfg.num_streams = 2;
    const ExecutionPlan plan = session.scheduler().build(cfg);
    const DataParallelSpace dp = enumerate_dp_space(m.graph());

    struct Pin
    {
        int degree;
        FlushSchedule flush;
        bool one_bucket;  ///< bucket_bytes = grad_bytes, else 0
        double step_ns, compute_ns, comm_ns, overlap_ns;
        int num_buckets;
    };
    // Values as measured when the dispatcher still built its kernels
    // at enqueue time.
    const Pin pins[] = {
        {1, FlushSchedule::Eager, false, 1319910.7243123013,
         1319910.7243123013, 0, 0, 0},
        {1, FlushSchedule::Eager, true, 1319910.7243123013,
         1319910.7243123013, 0, 0, 0},
        {1, FlushSchedule::EndOfStep, false, 1319910.7243123013,
         1319910.7243123013, 0, 0, 0},
        {1, FlushSchedule::EndOfStep, true, 1319910.7243123013,
         1319910.7243123013, 0, 0, 0},
        {2, FlushSchedule::Eager, false, 1652529.14193823,
         1557458.6584615384, 593039.9999999986, 497969.51652330719, 27},
        {2, FlushSchedule::Eager, true, 1393010.7243123013,
         1319910.7243123013, 73040, 0, 1},
        {2, FlushSchedule::EndOfStep, false, 1914050.7243122999,
         1319910.7243123013, 593039.9999999986, 0, 27},
        {2, FlushSchedule::EndOfStep, true, 1393010.7243123013,
         1319910.7243123013, 73040, 0, 1},
        {4, FlushSchedule::Eager, false, 2594919.9004603806,
         2264658.6584615386, 1699559.9999999937, 1369298.758001152, 27},
        {4, FlushSchedule::Eager, true, 1459610.7243123013,
         1319910.7243123013, 139560, 0, 1},
        {4, FlushSchedule::EndOfStep, false, 3022730.7243122961,
         1319910.7243123013, 1699559.9999999949, 0, 27},
        {4, FlushSchedule::EndOfStep, true, 1459610.7243123013,
         1319910.7243123013, 139560, 0, 1},
    };
    for (const Pin& pin : pins) {
        DpOptions dopts;
        dopts.degree = pin.degree;
        dopts.flush = pin.flush;
        dopts.bucket_bytes = pin.one_bucket ? dp.grad_bytes : 0;
        const DpResult r =
            dispatch_plan_dp(plan, m.graph(), session.tensor_map(0),
                             opts.gpu, dp.grad_nodes, dopts);
        const std::string at =
            "G=" + std::to_string(pin.degree) + " " +
            flush_schedule_name(pin.flush) +
            (pin.one_bucket ? " one-bucket" : " per-tensor");
        EXPECT_EQ(r.step_ns, pin.step_ns) << at;
        EXPECT_EQ(r.compute_ns, pin.compute_ns) << at;
        EXPECT_EQ(r.comm_ns, pin.comm_ns) << at;
        EXPECT_EQ(r.overlap_ns, pin.overlap_ns) << at;
        EXPECT_EQ(r.num_buckets, pin.num_buckets) << at;
    }
}

TEST(DataParallel, BestDegreeAssertsOnEmptyInput)
{
    EXPECT_DEATH(best_degree({}, 32), "no scaling points");
}

TEST(DataParallel, DpSpaceBracketsTheExtremes)
{
    GraphBuilder b;
    model_builder()(b, 16);
    const DataParallelSpace dp = enumerate_dp_space(b.graph());
    EXPECT_FALSE(dp.grad_nodes.empty());
    EXPECT_GT(dp.grad_bytes, 0);
    ASSERT_GE(dp.bucket_options.size(), 2u);
    EXPECT_EQ(dp.bucket_options.front(), 0);          // per-tensor
    EXPECT_EQ(dp.bucket_options.back(), dp.grad_bytes);  // one bucket
    EXPECT_TRUE(std::is_sorted(dp.bucket_options.begin(),
                               dp.bucket_options.end()));
}

}  // namespace
}  // namespace astra

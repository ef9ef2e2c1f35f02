/**
 * @file
 * Tests for the online serving loop (src/serve; a single server is a
 * one-replica ReplicaFleet) and the concurrency contract of the
 * bucketed routing path it leans on: race-free concurrent
 * bucket_for/step_ns, single-count overflow accounting, rejection of
 * over-long requests at admission, deterministic open-loop
 * traffic, the live re-wiring story — drift detection from window
 * statistics, an off-path re-wire, and a hot swap between mini-batches
 * whose installed configuration is bit-identical (by FNV fingerprint)
 * to an offline re-wire on the same throttled device — and the
 * multi-replica failover, shedding and degradation paths.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "core/bucketed.h"
#include "models/models.h"
#include "obs/obs.h"
#include "serve/metrics.h"
#include "serve/queue.h"
#include "serve/replica.h"
#include "serve/router.h"
#include "serve/traffic.h"
#include "sim/faults.h"

namespace astra {
namespace {

namespace fs = std::filesystem;

/** Fresh per-test store directory under the test temp dir. */
std::string
fresh_store_dir(const std::string& name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/**
 * Deterministic base options: timing-only device at a pinned base
 * clock with faults disarmed and no ambient plan store — the serve
 * tests assert exact reproduction properties, which the CI noise and
 * fault matrices would otherwise perturb through the environment
 * defaults.
 */
AstraOptions
serve_astra_opts()
{
    AstraOptions o;
    o.features = features_fk();
    o.gpu.execute_kernels = false;
    o.gpu.autoboost = false;
    o.gpu.faults = FaultPlan();
    o.plan_store = "";
    return o;
}

LengthGraphFn
scrnn_builder()
{
    return [](GraphBuilder& b, int length) {
        ModelConfig cfg;
        cfg.batch = 4;
        cfg.seq_len = length;
        cfg.hidden = 32;
        cfg.embed_dim = 32;
        cfg.vocab = 50;
        BuiltModel m = build_model(ModelKind::Scrnn, cfg);
        b = std::move(*m.builder);
    };
}

BucketedAstra
make_router(std::vector<int> lengths)
{
    return BucketedAstra(std::move(lengths), scrnn_builder(),
                         serve_astra_opts());
}

/** Evenly spaced single-length traffic (drift tests pin every knob). */
std::vector<serve::ServeRequest>
steady_traffic(int count, int length, double gap_ns, double slo_ns)
{
    std::vector<serve::ServeRequest> out;
    for (int i = 0; i < count; ++i) {
        serve::ServeRequest r;
        r.id = i;
        r.arrival_ns = static_cast<double>(i + 1) * gap_ns;
        r.length = length;
        r.deadline_ns = r.arrival_ns + slo_ns;
        out.push_back(r);
    }
    return out;
}

// ---- bucketed routing concurrency (the serving fast path) ------------

TEST(BucketedRouting, ConcurrentRoutingAndServingIsRaceFree)
{
    // Serving threads route (bucket_for) and serve (step_ns)
    // concurrently through one const router. Under TSan this pins the
    // two fixed races: the once-per-instance overflow warning flag is
    // atomic, and overflow tallying happens exactly once per *routing*
    // — step_ns's non-counting lookup never double-counts.
    BucketedAstra router = make_router({3, 4});
    router.optimize();

    constexpr int kThreads = 4;
    constexpr int kPerThread = 25;
    std::atomic<int> routed_overflows{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&router, &routed_overflows, t] {
            for (int i = 0; i < kPerThread; ++i) {
                // Half the threads route overflowing lengths, half
                // route in-range ones; everyone serves what it routed.
                const int len = (t % 2 == 0) ? 99 : 3;
                const int bucket = router.bucket_for(len);
                EXPECT_EQ(bucket, (t % 2 == 0) ? 1 : 0);
                if (len > 4)
                    routed_overflows.fetch_add(1);
                const double ns = router.step_ns(len);
                EXPECT_GT(ns, 0.0);
            }
        });
    }
    for (auto& th : threads)
        th.join();

    // Every overflow was counted exactly once: by bucket_for at
    // routing time, never again when step_ns served the same length.
    EXPECT_EQ(router.overflow_count(), routed_overflows.load());
    EXPECT_EQ(router.overflow_count(), 2 * kPerThread);
}

TEST(BucketedRouting, OverflowCountedOncePerRoutingDecision)
{
    // The regression this pins: step_ns used to re-invoke the counting
    // bucket_for, so one routed-then-served request tallied twice.
    BucketedAstra router = make_router({3, 4});
    router.optimize();

    ASSERT_EQ(router.overflow_count(), 0);
    const int bucket = router.bucket_for(50);
    EXPECT_EQ(bucket, 1);
    EXPECT_EQ(router.overflow_count(), 1);

    (void)router.step_ns(50);
    EXPECT_EQ(router.overflow_count(), 1);  // serving must not re-count

    // An unrouted in-range length is never an overflow from any path.
    (void)router.step_ns(3);
    EXPECT_EQ(router.overflow_count(), 1);
}

// ---- admission queue -------------------------------------------------

TEST(AdmissionQueue, StrictOverflowRejectsAtAdmission)
{
    BucketedAstra router = make_router({3, 4});
    serve::AdmissionQueue queue(router);

    serve::ServeRequest ok;
    ok.length = 3;
    ok.deadline_ns = 10.0;
    serve::ServeRequest too_long;
    too_long.length = 9;
    too_long.deadline_ns = 5.0;

    EXPECT_TRUE(queue.admit(ok));
    EXPECT_FALSE(queue.admit(too_long));  // refused, not truncated
    EXPECT_EQ(queue.admitted(), 1);
    EXPECT_EQ(queue.rejected(), 1);
    EXPECT_EQ(queue.depth(), 1u);
    // A refusal is not a clamp: the router's overflow tally stays clean.
    EXPECT_EQ(router.overflow_count(), 0);
}

TEST(AdmissionQueue, RoutesToSmallestCoveringBucketAndBatchesFifo)
{
    BucketedAstra router = make_router({3, 4});
    serve::AdmissionQueue queue(router);

    for (int i = 0; i < 5; ++i) {
        serve::ServeRequest r;
        r.id = i;
        r.length = (i < 3) ? 2 : 4;
        r.deadline_ns = 100.0 - i;  // later arrivals, tighter deadlines
        ASSERT_TRUE(queue.admit(r));
    }
    EXPECT_EQ(queue.depth(0), 3u);
    EXPECT_EQ(queue.depth(1), 2u);

    // Head deadlines: bucket 0 holds id 0 (100), bucket 1 id 3 (97).
    EXPECT_EQ(queue.most_urgent_bucket(), 1);
    const auto batch = queue.pop_batch(1, 8);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].id, 3);  // FIFO within the bucket
    EXPECT_EQ(batch[1].id, 4);
    EXPECT_EQ(queue.most_urgent_bucket(), 0);
}

// ---- traffic generation ----------------------------------------------

TEST(Traffic, DeterministicPoissonWithBursts)
{
    serve::TrafficConfig cfg;
    cfg.duration_ns = 2e8;
    cfg.base_rps = 400.0;
    cfg.slo_ns = 10e6;
    cfg.seed = 7;
    cfg.bursts.push_back({5e7, 1e8, 3.0});

    const auto a = serve::generate_traffic(cfg);
    const auto b = serve::generate_traffic(cfg);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, static_cast<int64_t>(i));
        EXPECT_DOUBLE_EQ(a[i].arrival_ns, b[i].arrival_ns);
        EXPECT_EQ(a[i].length, b[i].length);
        EXPECT_DOUBLE_EQ(a[i].deadline_ns, a[i].arrival_ns + cfg.slo_ns);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_ns, a[i - 1].arrival_ns);
        }
        EXPECT_GE(a[i].length, serve::kMinRequestLength);
    }

    // The burst phase triples the rate over [50ms, 100ms): that
    // window must be visibly denser than the preceding calm one.
    int calm = 0, burst = 0;
    for (const auto& r : a) {
        if (r.arrival_ns < 5e7)
            ++calm;
        else if (r.arrival_ns < 1e8)
            ++burst;
    }
    EXPECT_GT(burst, calm * 3 / 2);

    serve::TrafficConfig other = cfg;
    other.seed = 8;
    const auto c = serve::generate_traffic(other);
    ASSERT_FALSE(c.empty());
    EXPECT_TRUE(c.size() != a.size() ||
                c[0].arrival_ns != a[0].arrival_ns);
}

TEST(Traffic, PeakMultiplierCoversPhaseEndChangePoints)
{
    // Overlapping phases: [0,100)x2.0 dimmed by [0,50)x0.1. The rate
    // *rises* when the sub-unity phase ends, so the true peak (2.0 on
    // [50,100)) is only visible at an end_ns change point. Probing
    // starts alone would report 1.0 and break the thinning bound.
    serve::TrafficConfig cfg;
    cfg.bursts.push_back({0.0, 100.0, 2.0});
    cfg.bursts.push_back({0.0, 50.0, 0.1});
    EXPECT_DOUBLE_EQ(cfg.rate_multiplier_at(25.0), 0.2);
    EXPECT_DOUBLE_EQ(cfg.rate_multiplier_at(75.0), 2.0);
    EXPECT_DOUBLE_EQ(cfg.peak_multiplier(), 2.0);

    // The thinning invariant behind the fix: peak bounds the rate at
    // every change point, so acceptance probabilities never exceed 1.
    const double peak = cfg.peak_multiplier();
    for (const serve::BurstPhase& p : cfg.bursts) {
        EXPECT_LE(cfg.rate_multiplier_at(p.start_ns), peak);
        EXPECT_LE(cfg.rate_multiplier_at(p.end_ns), peak);
    }
}

TEST(Traffic, RejectsDegenerateLengthConfig)
{
    serve::TrafficConfig cfg;
    cfg.duration_ns = 1e6;
    cfg.base_rps = 1000.0;
    cfg.slo_ns = 1e6;

    serve::TrafficConfig zero_div = cfg;
    zero_div.length_div = 0;  // would be integer division by zero
    EXPECT_DEATH((void)serve::generate_traffic(zero_div),
                 "length_div");
}

// ---- serving loop (a fleet of one replica) ---------------------------

/** A one-replica fleet: the single-server configuration. */
serve::FleetOptions
one_replica(serve::ServeOptions so)
{
    serve::FleetOptions fo;
    fo.base = std::move(so);
    fo.replicas = 1;
    return fo;
}

TEST(Serve, CalmTrafficMeetsSloAndDropsNothing)
{
    serve::ServeOptions so;
    so.bucket_lengths = {3, 4};
    so.build = scrnn_builder();
    so.astra = serve_astra_opts();
    so.max_batch = 4;
    serve::ReplicaFleet server(one_replica(std::move(so)));
    ASSERT_GT(server.optimize(), 0);

    // Self-calibrate against the measured plan: arrivals at half the
    // per-request service capacity, SLO at 20 batch times.
    const double batch_ns = server.replica(0).plan(1).baseline_ns;
    serve::TrafficConfig cfg;
    cfg.duration_ns = 400.0 * batch_ns;
    cfg.base_rps = 0.5 * 4.0 * 1e9 / batch_ns;
    cfg.slo_ns = 20.0 * batch_ns;
    cfg.length_div = 20;  // PTB lengths scaled into the {3,4} buckets
    cfg.seed = 11;
    const auto traffic = serve::generate_traffic(cfg);
    ASSERT_GT(traffic.size(), 50u);

    const serve::ServeReport rep = server.serve(traffic).total;
    EXPECT_EQ(rep.offered, static_cast<int64_t>(traffic.size()));
    EXPECT_EQ(rep.served, rep.offered);
    EXPECT_EQ(rep.dropped, 0);
    EXPECT_EQ(rep.rejected, 0);
    EXPECT_EQ(rep.deadline_misses, 0);
    EXPECT_LE(rep.p99_ns, cfg.slo_ns);
    EXPECT_GT(rep.goodput_rps, 0.0);
    EXPECT_GT(rep.batches, 0);
    // Padded slots exist (variable lengths in fixed buckets) but the
    // accounting stays a fraction.
    EXPECT_GE(rep.padded_token_frac, 0.0);
    EXPECT_LT(rep.padded_token_frac, 1.0);
    // Calm device: the armed watcher must stay silent.
    EXPECT_EQ(rep.drift_detections, 0);
    EXPECT_EQ(rep.swaps, 0);
}

TEST(Serve, ArmedWatcherIsFreeInSimulatedTime)
{
    // The watcher observes completed batches; it never adds simulated
    // work. On a calm device the whole latency distribution must be
    // bit-identical with the watcher armed or disarmed.
    auto run = [](bool watcher_on) {
        serve::ServeOptions so;
        so.bucket_lengths = {4};
        so.build = scrnn_builder();
        so.astra = serve_astra_opts();
        so.max_batch = 2;
        so.watcher.enabled = watcher_on;
        serve::ReplicaFleet server(one_replica(std::move(so)));
        server.optimize();
        const double b = server.replica(0).plan(0).baseline_ns;
        return server.serve(steady_traffic(40, 4, 1.5 * b, 30.0 * b))
            .total;
    };

    const serve::ServeReport armed = run(true);
    const serve::ServeReport disarmed = run(false);
    EXPECT_DOUBLE_EQ(armed.p50_ns, disarmed.p50_ns);
    EXPECT_DOUBLE_EQ(armed.p99_ns, disarmed.p99_ns);
    EXPECT_DOUBLE_EQ(armed.makespan_ns, disarmed.makespan_ns);
    EXPECT_EQ(armed.batches, disarmed.batches);
    EXPECT_EQ(armed.drift_detections, 0);
}

TEST(Serve, DriftTriggersRewireAndHotSwapWithoutDrops)
{
    serve::ServeOptions so;
    so.bucket_lengths = {4};
    so.build = scrnn_builder();
    so.astra = serve_astra_opts();
    // The full knowledge-base story: optimize() writes the base-clock
    // entry; the re-wire under throttled clocks L1-hits it (gpu_sig
    // ignores the forced multiplier), fails drift verification, warm
    // starts, and writes the refreshed entry back.
    so.astra.plan_store = fresh_store_dir("serve_drift_store");
    so.max_batch = 2;
    so.watcher.min_window = 3;
    so.record_batches = true;
    serve::ReplicaFleet server(one_replica(std::move(so)));
    server.optimize();

    const double b = server.replica(0).plan(0).baseline_ns;
    ASSERT_GT(b, 0.0);
    const double gap = 1.5 * b;
    const double drift_at = 20.0 * gap;

    // The drifting run: same workload, but with a thermal-throttle
    // step injected mid-trace (the schedule is fixed at construction,
    // so this is a second fleet).
    serve::ServeOptions so2;
    so2.bucket_lengths = {4};
    so2.build = scrnn_builder();
    so2.astra = serve_astra_opts();
    so2.astra.plan_store = fresh_store_dir("serve_drift_store2");
    so2.max_batch = 2;
    so2.watcher.min_window = 3;
    so2.record_batches = true;
    so2.rewire_latency_ns = 5.0 * b;
    // 0.7x clocks stretch every batch by ~1.43x — beyond the default
    // 0.25 drift margin, so the watcher must fire.
    so2.clock_schedule.push_back({drift_at, 0.7});
    serve::ReplicaFleet drifting(one_replica(std::move(so2)));
    drifting.optimize();

    const auto traffic = steady_traffic(60, 4, gap, 40.0 * b);
    const serve::FleetReport frep = drifting.serve(traffic);
    const serve::ServeReport& rep = frep.total;

    EXPECT_EQ(rep.offered, 60);
    EXPECT_EQ(rep.served, 60);
    EXPECT_EQ(rep.dropped, 0);
    EXPECT_GE(rep.drift_detections, 1);
    EXPECT_GE(rep.rewires, 1);
    EXPECT_GE(rep.swaps, 1);
    // Detection within a bounded request budget after drift onset.
    EXPECT_GE(rep.detection_request_budget, 1);
    EXPECT_LE(rep.detection_request_budget, 20);

    // Hot-swap contract over the batch log: epochs only move forward,
    // the swap lands between batches (never inside one), and at least
    // one batch still ran on the old plan *after* drift onset — the
    // off-path re-wire did not stall serving. Those batches bypass the
    // invalidated blob through generic dispatch until the swap-back.
    ASSERT_FALSE(rep.batch_log.empty());
    EXPECT_EQ(rep.batch_log.front().plan_epoch, 0);
    EXPECT_GE(rep.batch_log.back().plan_epoch, 1);
    bool old_plan_served_during_rewire = false;
    for (size_t i = 1; i < rep.batch_log.size(); ++i) {
        const auto& prev = rep.batch_log[i - 1];
        const auto& cur = rep.batch_log[i];
        EXPECT_GE(cur.plan_epoch, prev.plan_epoch);
        EXPECT_GE(cur.start_ns, prev.end_ns);  // batches serialize
        if (cur.plan_epoch == 0 && cur.start_ns > drift_at)
            old_plan_served_during_rewire = true;
    }
    EXPECT_TRUE(old_plan_served_during_rewire);
    EXPECT_GE(frep.generic_batches, 1);
    EXPECT_GE(frep.swap_backs, 1);
    EXPECT_EQ(drifting.replica(0).plan(0).epoch, 1);

    // Bit-identity: an offline re-wire on the same throttled device
    // resolves to the exact configuration the live swap installed
    // (the refreshed store entry answers it at L1).
    GpuConfig throttled = serve_astra_opts().gpu;
    throttled.forced_clock_multiplier = 0.7;
    const auto offline = drifting.prototype().rewire(0, throttled);
    EXPECT_EQ(offline.config_fnv, drifting.replica(0).plan(0).config_fnv);
    EXPECT_NE(offline.config_fnv, 0u);

    // The unused calm fleet pins the no-schedule default: no drift
    // ever detected on a base-clock device.
    const serve::ServeReport calm = server.serve(traffic).total;
    EXPECT_EQ(calm.drift_detections, 0);
    EXPECT_EQ(calm.swaps, 0);
    EXPECT_EQ(server.replica(0).plan(0).epoch, 0);
}

TEST(Serve, RepeatedServeRestartsTheClockSchedule)
{
    // Every serve() call starts at t = 0, clock schedule included: a
    // second call must not begin already throttled by the first one's
    // clock step. The watcher is off, so the plan never changes and
    // only the clock could tell the two calls apart.
    serve::ServeOptions so;
    so.bucket_lengths = {4};
    so.build = scrnn_builder();
    so.astra = serve_astra_opts();
    so.max_batch = 2;
    so.watcher.enabled = false;
    serve::ReplicaFleet probe(one_replica(so));
    probe.optimize();
    const double b = probe.replica(0).plan(0).baseline_ns;
    ASSERT_GT(b, 0.0);
    const double gap = 1.5 * b;

    so.clock_schedule.push_back({20.0 * gap, 0.7});
    serve::ReplicaFleet fleet(one_replica(std::move(so)));
    fleet.optimize();
    const auto traffic = steady_traffic(40, 4, gap, 40.0 * b);
    const serve::ServeReport first = fleet.serve(traffic).total;
    const serve::ServeReport second = fleet.serve(traffic).total;

    // The step bit the first call: its tail runs throttled...
    EXPECT_GT(first.p99_ns, first.p50_ns);
    // ...and the second call replays the same schedule from t = 0.
    EXPECT_EQ(second.p50_ns, first.p50_ns);
    EXPECT_EQ(second.p99_ns, first.p99_ns);
    EXPECT_EQ(second.makespan_ns, first.makespan_ns);
    EXPECT_EQ(second.batches, first.batches);
}

TEST(Serve, ObsCountersMirrorTheReport)
{
    // The serve.* counters count the same events as the report fields
    // they mirror: drift detections, re-wires, swaps and rejections.
    serve::ServeOptions so;
    so.bucket_lengths = {4};
    so.build = scrnn_builder();
    so.astra = serve_astra_opts();
    so.max_batch = 2;
    so.watcher.min_window = 3;
    serve::ReplicaFleet probe(one_replica(so));
    probe.optimize();
    const double b = probe.replica(0).plan(0).baseline_ns;
    ASSERT_GT(b, 0.0);
    const double gap = 1.5 * b;

    so.rewire_latency_ns = 5.0 * b;
    so.clock_schedule.push_back({20.0 * gap, 0.7});
    serve::ReplicaFleet fleet(one_replica(std::move(so)));
    fleet.optimize();
    auto traffic = steady_traffic(60, 4, gap, 40.0 * b);
    traffic[5].length = 50;  // beyond the largest bucket: rejected

    obs::reset();
    obs::set_enabled(true);
    const serve::ServeReport rep = fleet.serve(traffic).total;
    obs::set_enabled(false);
    const std::map<std::string, int64_t> c = obs::counter_values();
    obs::reset();

    ASSERT_GE(rep.swaps, 1);
    EXPECT_EQ(rep.rejected, 1);
    EXPECT_EQ(c.at("serve.drift_detections"), rep.drift_detections);
    EXPECT_EQ(c.at("serve.rewires"), rep.rewires);
    EXPECT_EQ(c.at("serve.swaps"), rep.swaps);
    EXPECT_EQ(c.at("serve.rejected"), rep.rejected);
}

TEST(Serve, StrictOverflowSurfacesRejectionsInReport)
{
    serve::ServeOptions so;
    so.bucket_lengths = {3, 4};
    so.build = scrnn_builder();
    so.astra = serve_astra_opts();
    serve::ReplicaFleet server(one_replica(std::move(so)));
    server.optimize();

    const double b = server.replica(0).plan(1).baseline_ns;
    auto traffic = steady_traffic(10, 4, 2.0 * b, 30.0 * b);
    traffic[3].length = 50;  // beyond the largest bucket
    traffic[7].length = 50;

    const serve::ServeReport rep = server.serve(traffic).total;
    EXPECT_EQ(rep.offered, 10);
    EXPECT_EQ(rep.rejected, 2);
    EXPECT_EQ(rep.admitted, 8);
    EXPECT_EQ(rep.served, 8);
    EXPECT_EQ(rep.dropped, 0);
    // Rejections are refusals, not clamps: the router's truncation
    // tally stays clean.
    EXPECT_EQ(server.prototype().router().overflow_count(), 0);
}

TEST(Serve, StrictOverflowRejectedTrailingRequestsEndLoopCleanly)
{
    // Regression: when the *final* arrivals are all rejected as
    // over-long while the queue is drained, the loop must terminate
    // cleanly instead of reading past the end of the trace.
    serve::ServeOptions so;
    so.bucket_lengths = {3, 4};
    so.build = scrnn_builder();
    so.astra = serve_astra_opts();
    so.record_batches = true;
    serve::ReplicaFleet server(one_replica(std::move(so)));
    server.optimize();

    const double b = server.replica(0).plan(1).baseline_ns;
    auto traffic = steady_traffic(10, 4, 2.0 * b, 30.0 * b);
    traffic[8].length = 50;  // beyond the largest bucket
    traffic[9].length = 50;

    const serve::ServeReport rep = server.serve(traffic).total;
    EXPECT_EQ(rep.offered, 10);
    EXPECT_EQ(rep.rejected, 2);
    EXPECT_EQ(rep.admitted, 8);
    EXPECT_EQ(rep.served, 8);
    EXPECT_EQ(rep.dropped, 0);
    // The makespan is the completion of the last batch, not the time
    // of the last (rejected) arrival.
    ASSERT_FALSE(rep.batch_log.empty());
    EXPECT_EQ(rep.makespan_ns, rep.batch_log.back().end_ns);
    EXPECT_LT(rep.makespan_ns, traffic[9].arrival_ns);

    // Degenerate variant from the review: a trace whose *only*
    // request exceeds the largest bucket.
    auto lone = steady_traffic(1, 4, 2.0 * b, 30.0 * b);
    lone[0].length = 50;
    const serve::ServeReport none = server.serve(lone).total;
    EXPECT_EQ(none.offered, 1);
    EXPECT_EQ(none.rejected, 1);
    EXPECT_EQ(none.served, 0);
    EXPECT_EQ(none.dropped, 0);
    EXPECT_EQ(none.makespan_ns, 0.0);  // no batch ever completed
}

// ---- bounded queue policies (fleet shedding building blocks) ---------

TEST(AdmissionQueue, EdfShedEvictsLatestDeadlineNotNewestArrival)
{
    BucketedAstra router = make_router({4});
    serve::AdmissionQueue q(router, 2, serve::QueuePolicy::EdfShed);

    serve::ServeRequest a{0, 10.0, 4, 500.0};
    serve::ServeRequest b{1, 20.0, 4, 900.0};  // most slack: the victim
    serve::ServeRequest c{2, 30.0, 4, 400.0};
    ASSERT_TRUE(q.admit_bounded(a).admitted);
    ASSERT_TRUE(q.admit_bounded(b).admitted);

    const serve::AdmitResult r = q.admit_bounded(c);
    EXPECT_TRUE(r.admitted);  // the arrival wins a slot...
    ASSERT_TRUE(r.evicted);   // ...by evicting the laziest deadline
    EXPECT_EQ(r.victim.id, 1);
    EXPECT_EQ(q.depth(0), 2u);
    EXPECT_EQ(q.overflowed(), 1);

    // An arrival with the latest deadline of all is its own victim:
    // rejected outright, nothing queued is disturbed.
    serve::ServeRequest d{3, 40.0, 4, 2000.0};
    const serve::AdmitResult r2 = q.admit_bounded(d);
    EXPECT_FALSE(r2.admitted);
    EXPECT_FALSE(r2.evicted);
    EXPECT_EQ(q.depth(0), 2u);

    // FIFO tail-drop under the same pressure refuses the newcomer even
    // though it has less slack than everything queued.
    serve::AdmissionQueue fifo(router, 2,
                               serve::QueuePolicy::FifoOverflow);
    ASSERT_TRUE(fifo.admit_bounded(a).admitted);
    ASSERT_TRUE(fifo.admit_bounded(b).admitted);
    const serve::AdmitResult r3 = fifo.admit_bounded(c);
    EXPECT_FALSE(r3.admitted);
    EXPECT_FALSE(r3.evicted);
}

TEST(AdmissionQueue, ShedHopelessDropsOnlyDoomedRequests)
{
    BucketedAstra router = make_router({4});
    serve::AdmissionQueue q(router);
    q.admit(serve::ServeRequest{0, 0.0, 4, 100.0});   // doomed
    q.admit(serve::ServeRequest{1, 0.0, 4, 1000.0});  // can still win
    q.admit(serve::ServeRequest{2, 0.0, 4, 140.0});   // doomed

    const auto shed = q.shed_hopeless(0, 50.0, 100.0);
    ASSERT_EQ(shed.size(), 2u);
    EXPECT_EQ(shed[0].id, 0);
    EXPECT_EQ(shed[1].id, 2);
    ASSERT_EQ(q.depth(0), 1u);
    EXPECT_EQ(q.head(0).id, 1);
}

TEST(AdmissionQueue, RequeuePreservesAgeOrderWithoutRecounting)
{
    BucketedAstra router = make_router({4});
    serve::AdmissionQueue q(router, 2, serve::QueuePolicy::EdfShed);
    q.admit_bounded(serve::ServeRequest{0, 10.0, 4, 500.0});
    q.admit_bounded(serve::ServeRequest{1, 20.0, 4, 600.0});
    const int64_t admitted_before = q.admitted();

    // A failed-over request re-enters at the *front* (it is the oldest
    // work in the bucket), is not a second admission, and is exempt
    // from the capacity bound: its slot was granted at admission.
    q.requeue(serve::ServeRequest{7, 1.0, 4, 450.0});
    EXPECT_EQ(q.admitted(), admitted_before);
    EXPECT_EQ(q.depth(0), 3u);
    EXPECT_EQ(q.head(0).id, 7);
}

// ---- multi-replica fleet: failover, degradation, exactly-once --------

serve::FleetOptions
fleet_options(std::vector<int> lengths, const std::string& store,
              int replicas)
{
    serve::FleetOptions fo;
    fo.base.bucket_lengths = std::move(lengths);
    fo.base.build = scrnn_builder();
    fo.base.astra = serve_astra_opts();
    fo.base.astra.plan_store = store;
    fo.base.max_batch = 2;
    fo.replicas = replicas;
    return fo;
}

TEST(Fleet, ArmedButSilentSingleReplicaMatchesSingleServer)
{
    // The fleet carries a death spec that never fires inside the
    // trace: detection machinery armed, failure path silent. It must
    // reproduce an unarmed fleet of one bit for bit, and both must
    // reproduce the retired single-server loop: the pinned values are
    // that loop's outputs on this trace, under the plan Astra now picks.
    const std::string store = fresh_store_dir("fleet_silent_store");
    serve::ReplicaFleet unarmed(fleet_options({4}, store, 1));
    unarmed.optimize();
    const double b = unarmed.replica(0).plan(0).baseline_ns;
    EXPECT_DOUBLE_EQ(b, 809771.27127066941);
    const auto traffic = steady_traffic(40, 4, 1.5 * b, 40.0 * b);
    const serve::FleetReport plain = unarmed.serve(traffic);

    serve::FleetOptions fo = fleet_options({4}, store, 1);
    ASSERT_TRUE(FaultPlan::parse("replica_death:r=0,at_ns=1e17",
                                 &fo.faults));
    serve::ReplicaFleet fleet(std::move(fo));
    fleet.optimize();
    const serve::FleetReport rep = fleet.serve(traffic);

    EXPECT_EQ(rep.total.offered, plain.total.offered);
    EXPECT_EQ(rep.total.served, plain.total.served);
    EXPECT_EQ(rep.total.batches, plain.total.batches);
    EXPECT_EQ(rep.total.p50_ns, plain.total.p50_ns);
    EXPECT_EQ(rep.total.p99_ns, plain.total.p99_ns);
    EXPECT_EQ(rep.total.makespan_ns, plain.total.makespan_ns);

    EXPECT_EQ(rep.total.served, 40);
    EXPECT_EQ(rep.total.dropped, 0);
    EXPECT_EQ(rep.total.batches, 20);
    EXPECT_DOUBLE_EQ(rep.total.p50_ns, 2024428.1781766713);
    EXPECT_DOUBLE_EQ(rep.total.p99_ns, 2024428.1781766787);
    EXPECT_DOUBLE_EQ(rep.total.makespan_ns, 49396047.547510833);
    EXPECT_EQ(rep.deaths_detected, 0);
    EXPECT_EQ(rep.failed_batches, 0);
    EXPECT_EQ(rep.retries, 0);
    EXPECT_EQ(rep.failover_detect_budget, -1);
}

TEST(Fleet, ReplicaDeathFailsOverExactlyOnce)
{
    serve::ReplicaFleet probe(fleet_options(
        {4}, fresh_store_dir("fleet_death_probe"), 2));
    probe.optimize();
    const double b = probe.replica(0).plan(0).baseline_ns;
    ASSERT_GT(b, 0.0);
    // 125% of fleet capacity: both replicas are continuously busy
    // from early in the trace, so the death lands mid-batch and the
    // failover path (not just detection) runs.
    const double gap = 0.2 * b;
    const double death_at = 80.0 * gap;

    serve::FleetOptions fo =
        fleet_options({4}, fresh_store_dir("fleet_death_store"), 2);
    ASSERT_TRUE(FaultPlan::parse(
        "replica_death:r=1,at_ns=" + std::to_string(death_at),
        &fo.faults));
    serve::ReplicaFleet fleet(std::move(fo));
    fleet.optimize();

    // TSan value: a health-checker thread polls plan snapshots while
    // the DES loop routes — the slot mutex is the only thing between
    // them.
    std::atomic<bool> stop{false};
    std::thread poller([&] {
        uint64_t sink = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            for (int i = 0; i < fleet.num_replicas(); ++i) {
                const auto p = fleet.replica(i).plan(0);
                sink ^= p.config_fnv + static_cast<uint64_t>(p.epoch);
            }
        }
        (void)sink;
    });

    const auto traffic = steady_traffic(200, 4, gap, 500.0 * b);
    const serve::FleetReport rep = fleet.serve(traffic);
    stop.store(true);
    poller.join();

    EXPECT_EQ(rep.total.offered, 200);
    EXPECT_EQ(rep.total.dropped, 0);
    EXPECT_EQ(rep.double_served, 0);
    EXPECT_EQ(rep.failed, 0);  // the survivor absorbed every retry
    EXPECT_EQ(rep.total.served, 200);
    EXPECT_EQ(rep.deaths_detected, 1);
    EXPECT_GE(rep.failed_batches, 1);
    EXPECT_GE(rep.retries, 1);
    EXPECT_GE(rep.failover_detect_budget, 0);
    ASSERT_EQ(rep.replicas.size(), 2u);
    EXPECT_EQ(rep.replicas[1].deaths, 1);
    EXPECT_EQ(rep.replicas[0].deaths, 0);
    // Repeat on the same fleet: counters are bit-identical (the fault
    // schedule is simulated time, not wall time).
    const serve::FleetReport again = fleet.serve(traffic);
    EXPECT_EQ(again.total.served, rep.total.served);
    EXPECT_EQ(again.retries, rep.retries);
    EXPECT_EQ(again.failed_batches, rep.failed_batches);
    EXPECT_EQ(again.failover_detect_budget,
              rep.failover_detect_budget);
    EXPECT_EQ(again.total.makespan_ns, rep.total.makespan_ns);
}

TEST(Fleet, FlapBlipShorterThanHeartbeatIsNotADeath)
{
    serve::ReplicaFleet probe(fleet_options(
        {4}, fresh_store_dir("fleet_flap_probe"), 2));
    probe.optimize();
    const double b = probe.replica(0).plan(0).baseline_ns;
    const double gap = 0.2 * b;

    serve::FleetOptions fo =
        fleet_options({4}, fresh_store_dir("fleet_flap_store"), 2);
    // One blip much shorter than the heartbeat deadline (auto: 2x the
    // bucket baseline): the in-flight batch dies, but the replica is
    // back before its heartbeat deadline passes — a retry, not a
    // declared death.
    ASSERT_TRUE(FaultPlan::parse(
        "replica_flap:r=1,at_ns=" + std::to_string(80.0 * gap) +
            ",down_ns=" + std::to_string(0.2 * b) + ",count=1",
        &fo.faults));
    serve::ReplicaFleet fleet(std::move(fo));
    fleet.optimize();
    ASSERT_GT(fleet.heartbeat_timeout_ns(), 0.2 * b);

    const auto traffic = steady_traffic(200, 4, gap, 500.0 * b);
    const serve::FleetReport rep = fleet.serve(traffic);

    EXPECT_EQ(rep.total.dropped, 0);
    EXPECT_EQ(rep.double_served, 0);
    EXPECT_EQ(rep.total.served, 200);
    EXPECT_EQ(rep.deaths_detected, 0);  // blip suppressed
    EXPECT_EQ(rep.rejoins, 0);
    EXPECT_GE(rep.failed_batches, 1);  // but the batch still failed
    EXPECT_GE(rep.retries, 1);
    ASSERT_EQ(rep.replicas.size(), 2u);
    EXPECT_EQ(rep.replicas[1].deaths, 0);
}

TEST(Fleet, FleetExtinctionFailsQueuedRequestsInsteadOfLosingThem)
{
    serve::ReplicaFleet probe(fleet_options(
        {4}, fresh_store_dir("fleet_extinct_probe"), 1));
    probe.optimize();
    const double b = probe.replica(0).plan(0).baseline_ns;
    const double gap = 0.6 * b;

    serve::FleetOptions fo =
        fleet_options({4}, fresh_store_dir("fleet_extinct_store"), 1);
    ASSERT_TRUE(FaultPlan::parse(
        "replica_death:r=0,at_ns=" + std::to_string(30.0 * gap),
        &fo.faults));
    serve::ReplicaFleet fleet(std::move(fo));
    fleet.optimize();

    const auto traffic = steady_traffic(60, 4, gap, 500.0 * b);
    const serve::FleetReport rep = fleet.serve(traffic);

    // The only replica died mid-trace: everything already served
    // stays served, everything else resolves Failed — audited, never
    // silently dropped.
    EXPECT_EQ(rep.total.offered, 60);
    EXPECT_EQ(rep.total.dropped, 0);
    EXPECT_EQ(rep.double_served, 0);
    EXPECT_EQ(rep.deaths_detected, 1);
    EXPECT_GT(rep.total.served, 0);
    EXPECT_GT(rep.failed, 0);
    EXPECT_EQ(rep.total.served + rep.failed, rep.total.admitted);
}

TEST(Fleet, DriftDegradesToGenericDispatchThenSwapsBack)
{
    serve::ReplicaFleet probe(fleet_options(
        {4}, fresh_store_dir("fleet_degrade_probe"), 2));
    probe.optimize();
    const double b = probe.replica(0).plan(0).baseline_ns;
    const double gap = 0.3 * b;

    serve::FleetOptions fo =
        fleet_options({4}, fresh_store_dir("fleet_degrade_store"), 2);
    fo.base.watcher.min_window = 3;
    fo.base.rewire_latency_ns = 4.0 * b;
    // Replica 1 throttles mid-trace; replica 0 stays calm. The drift
    // watcher must invalidate replica 1's blob (generic dispatch, same
    // simulated semantics), re-wire off-path, and hot-swap back.
    fo.replica_clocks = {{}, {{30.0 * gap, 0.7}}};
    serve::ReplicaFleet fleet(std::move(fo));
    fleet.optimize();

    const auto traffic = steady_traffic(200, 4, gap, 500.0 * b);
    const serve::FleetReport rep = fleet.serve(traffic);

    EXPECT_EQ(rep.total.dropped, 0);
    EXPECT_EQ(rep.double_served, 0);
    EXPECT_EQ(rep.total.served, 200);
    EXPECT_EQ(rep.deaths_detected, 0);
    ASSERT_EQ(rep.replicas.size(), 2u);
    EXPECT_GE(rep.replicas[1].rewires, 1);
    EXPECT_GE(rep.replicas[1].swaps, 1);
    EXPECT_GE(rep.generic_batches, 1);  // degraded window served
    EXPECT_GE(rep.swap_backs, 1);       // and recovered
    EXPECT_EQ(rep.replicas[0].rewires, 0);
    EXPECT_EQ(rep.replicas[0].generic_batches, 0);
    // The swap landed: replica 1 runs a later plan epoch now.
    EXPECT_GE(fleet.replica(1).plan(0).epoch, 1);
}

TEST(Fleet, SingleReplicaDriftBudgetMatchesSingleServer)
{
    // Serve.DriftTriggersRewireAndHotSwapWithoutDrops' drift scenario
    // on a fleet of one: it reports the requests completed between
    // drift onset and the first detection, and reproduces the retired
    // single-server loop, whose outputs on this trace, under the plan
    // Astra now picks, are pinned.
    const auto options = [](const std::string& store) {
        serve::FleetOptions fo =
            fleet_options({4}, fresh_store_dir(store), 1);
        fo.base.watcher.min_window = 3;
        return fo;
    };
    serve::ReplicaFleet probe(options("drift_budget_probe"));
    probe.optimize();
    const double b = probe.replica(0).plan(0).baseline_ns;
    EXPECT_DOUBLE_EQ(b, 809771.27127066941);
    const double gap = 1.5 * b;
    const auto traffic = steady_traffic(60, 4, gap, 40.0 * b);

    serve::FleetOptions fo = options("drift_budget_fleet");
    fo.base.rewire_latency_ns = 5.0 * b;
    fo.base.clock_schedule.push_back({20.0 * gap, 0.7});
    serve::ReplicaFleet fleet(std::move(fo));
    fleet.optimize();
    const serve::FleetReport rep = fleet.serve(traffic);

    EXPECT_EQ(rep.total.served, 60);
    EXPECT_EQ(rep.total.batches, 30);
    EXPECT_EQ(rep.total.drift_detections, 1);
    EXPECT_EQ(rep.total.swaps, 1);
    EXPECT_EQ(rep.total.detection_request_budget, 4);
    EXPECT_EQ(rep.failover_detect_budget, -1);  // no replica died
    EXPECT_DOUBLE_EQ(rep.total.p50_ns, 2024428.1781766713);
    EXPECT_DOUBLE_EQ(rep.total.p99_ns, 2371473.0087212548);
    EXPECT_DOUBLE_EQ(rep.total.makespan_ns, 74036230.516175479);
}

TEST(Fleet, DeathBetweenRewireReadyAndSwapInstallLosesNothing)
{
    // Satellite chaos scenario: replica 1 drifts, the off-path re-wire
    // completes, and the replica is killed before the swap installs.
    // The pending plan must simply never install; queued and in-flight
    // work fails over with zero losses and zero duplicates. The gap
    // [re-wire ready, swap installed] is a simulated-time window, so
    // we scan death times across the re-wire region deterministically
    // and require at least one landing inside the gap.
    const std::string store = fresh_store_dir("fleet_gap_store");
    serve::ReplicaFleet probe(fleet_options({4}, store, 2));
    probe.optimize();
    const double b = probe.replica(0).plan(0).baseline_ns;
    const double gap = 0.25 * b;
    const double drift_at = 40.0 * gap;

    bool hit_gap = false;
    for (int k = 0; k <= 10 && !hit_gap; ++k) {
        const double death_at = drift_at + (4.0 + 2.0 * k) * b;
        serve::FleetOptions fo = fleet_options({4}, store, 2);
        fo.base.watcher.min_window = 3;
        fo.base.rewire_latency_ns = 6.0 * b;
        fo.replica_clocks = {{}, {{drift_at, 0.7}}};
        ASSERT_TRUE(FaultPlan::parse(
            "replica_death:r=1,at_ns=" + std::to_string(death_at),
            &fo.faults));
        serve::ReplicaFleet fleet(std::move(fo));
        fleet.optimize();

        // TSan value: concurrent plan-snapshot polling while the DES
        // loop installs/abandons pending swaps.
        std::atomic<bool> stop{false};
        std::thread poller([&] {
            uint64_t sink = 0;
            while (!stop.load(std::memory_order_relaxed))
                sink ^= fleet.replica(1).plan(0).config_fnv;
            (void)sink;
        });
        const auto traffic = steady_traffic(200, 4, gap, 500.0 * b);
        const serve::FleetReport rep = fleet.serve(traffic);
        stop.store(true);
        poller.join();

        // Exactly-once holds at *every* death position...
        EXPECT_EQ(rep.total.dropped, 0) << "death_at=" << death_at;
        EXPECT_EQ(rep.double_served, 0) << "death_at=" << death_at;
        EXPECT_EQ(rep.deaths_detected, 1) << "death_at=" << death_at;
        ASSERT_EQ(rep.replicas.size(), 2u);
        // ...and we keep scanning until one lands in the window where
        // the re-wire finished but the swap never got to install.
        if (rep.replicas[1].rewires >= 1 &&
            rep.replicas[1].swaps == 0) {
            hit_gap = true;
            EXPECT_EQ(fleet.replica(1).plan(0).epoch, 0);
        }
    }
    EXPECT_TRUE(hit_gap)
        << "no scanned death time landed between re-wire-ready and "
           "swap-install; widen the scan";
}

}  // namespace
}  // namespace astra

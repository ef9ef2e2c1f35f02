/**
 * @file
 * Gates the online serving loop (src/serve) end to end, each scenario
 * served by a one-replica ReplicaFleet (the single-server
 * configuration):
 *
 *  1. Calm traffic: p99 latency under the SLO, zero requests dropped
 *     or missed, on Poisson arrivals with a diurnal burst.
 *  2. Armed-but-silent watcher: arming the drift watcher on a calm
 *     device must cost <= 1% p99 versus a no-watcher baseline (it
 *     observes completed batches, it never adds simulated work).
 *  3. Forced drift: a mid-trace thermal-throttle step (0.7x clocks)
 *     must be detected from window statistics within a bounded
 *     request budget, trigger an off-path re-wire warm-started from
 *     the plan store (the bucket serves through generic dispatch
 *     meanwhile), and hot-swap the new wired blob with ZERO
 *     dropped requests — and the installed configuration must be
 *     FNV-bit-identical to an offline re-wire on the same throttled
 *     device (the refreshed store entry answers both).
 *
 * Exits non-zero on any gate failure so CI runs it as a check
 * (--smoke shortens the traffic).
 */
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.h"
#include "serve/router.h"

using namespace astra;
using namespace astra::bench;

namespace {

/** Simulated-seconds scale of the generated traces (batch times). */
double g_duration_batches = 400.0;

/** Bound on requests served between drift onset and detection. */
constexpr int64_t kDetectBudget = 64;

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

serve::FleetOptions
base_options(const Env& env, const std::string& store)
{
    serve::FleetOptions fo;
    fo.replicas = 1;
    serve::ServeOptions& so = fo.base;
    so.bucket_lengths = {4, 6, 8};
    so.build = scrnn_builder();
    so.astra.gpu = env.gpu;
    so.astra.sched = env.sched;
    so.astra.features = features_fk();
    // The serving gates assert exact properties (bit-identical
    // configs, zero drops); pin out the environment's noise and fault
    // matrices like every other identity bench.
    so.astra.gpu.autoboost = false;
    so.astra.gpu.faults = FaultPlan();
    so.astra.plan_store = store;
    so.max_batch = 4;
    return fo;
}

std::string
fresh_store(const char* name)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

serve::TrafficConfig
calibrated_traffic(serve::ReplicaFleet& fleet, uint64_t seed)
{
    // Self-calibrate to the measured plans so the gates track the
    // timing model instead of hard-coding nanoseconds: a base load of
    // ~35% of the largest bucket's batch capacity (the 2x burst then
    // peaks at ~70%, loaded but stable), SLO at 30 batches.
    const int last = fleet.prototype().router().num_buckets() - 1;
    const double batch_ns = fleet.replica(0).plan(last).baseline_ns;
    serve::TrafficConfig cfg;
    cfg.duration_ns = g_duration_batches * batch_ns;
    cfg.base_rps = 0.35 * 4.0 * 1e9 / batch_ns;
    cfg.slo_ns = 30.0 * batch_ns;
    cfg.length_div = 10;  // PTB lengths scaled into the {4,6,8} buckets
    cfg.seed = seed;
    // One diurnal burst: 2x traffic over the middle fifth.
    cfg.bursts.push_back(
        {0.4 * cfg.duration_ns, 0.6 * cfg.duration_ns, 2.0});
    return cfg;
}

bool
gate(bool ok, const char* what)
{
    if (!ok)
        std::printf("FAIL: %s\n", what);
    return ok;
}

}  // namespace

int
main(int argc, char** argv)
{
    init_observability(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            g_duration_batches = 200.0;

    Env env;
    bool ok = true;

    // ---- calm traffic, watcher armed ---------------------------------
    serve::ReplicaFleet armed(
        base_options(env, fresh_store("astra_bench_serve_calm")));
    const int64_t explored = armed.optimize();
    const serve::TrafficConfig tcfg = calibrated_traffic(armed, 23);
    const auto traffic = serve::generate_traffic(tcfg);
    const serve::ServeReport calm = armed.serve(traffic).total;
    std::printf("%s\n",
                calm.to_text("calm traffic (watcher armed)").c_str());

    // ---- same trace, watcher disarmed --------------------------------
    serve::FleetOptions disarmed_opts =
        base_options(env, fresh_store("astra_bench_serve_off"));
    disarmed_opts.base.watcher.enabled = false;
    serve::ReplicaFleet disarmed(disarmed_opts);
    disarmed.optimize();
    const serve::ServeReport baseline = disarmed.serve(traffic).total;

    // ---- forced drift mid-trace --------------------------------------
    // Give the drifting run headroom: 0.7x clocks stretch service by
    // ~1.43x, so the queue deepens until the refreshed plans land.
    serve::TrafficConfig dcfg = calibrated_traffic(armed, 23);
    dcfg.slo_ns *= 2.0;
    const double drift_at = 0.5 * dcfg.duration_ns;
    serve::FleetOptions drift_opts =
        base_options(env, fresh_store("astra_bench_serve_drift"));
    drift_opts.base.record_batches = true;
    drift_opts.base.watcher.min_window = 4;
    drift_opts.base.clock_schedule.push_back({drift_at, 0.7});
    serve::ReplicaFleet drifting(drift_opts);
    drifting.optimize();
    const auto dtraffic = serve::generate_traffic(dcfg);
    const serve::ServeReport drift = drifting.serve(dtraffic).total;
    std::printf("%s\n", drift.to_text("forced drift (0.7x clocks)")
                            .c_str());

    // ---- summary table -----------------------------------------------
    TextTable table(
        "Micro: online serving over bucketed wired plans "
        "(gates: p99 <= SLO calm, watcher <= 1% p99, zero drops + "
        "bounded detection + FNV identity under drift)");
    table.set_header({"Scenario", "p99 ms", "goodput rps", "drops",
                      "swaps", "detect budget"});
    const auto row = [&](const char* name,
                         const serve::ServeReport& r) {
        table.add_row(name,
                      {r.p99_ns / 1e6, r.goodput_rps,
                       static_cast<double>(r.dropped),
                       static_cast<double>(r.swaps),
                       static_cast<double>(r.detection_request_budget)});
    };
    row("calm / watcher armed", calm);
    row("calm / watcher off", baseline);
    row("drift 0.7x / live re-wire", drift);
    table.print();
    std::printf("exploration mini-batches (calm fleet): %lld\n",
                static_cast<long long>(explored));

    // ---- gates -------------------------------------------------------
    ok &= gate(calm.served == calm.offered && calm.dropped == 0,
               "calm traffic dropped requests");
    ok &= gate(calm.deadline_misses == 0,
               "calm traffic missed deadlines");
    ok &= gate(calm.p99_ns <= tcfg.slo_ns, "calm p99 above the SLO");
    ok &= gate(calm.drift_detections == 0 && calm.swaps == 0,
               "watcher fired on a calm device");

    ok &= gate(baseline.p99_ns > 0.0 &&
                   calm.p99_ns <= 1.01 * baseline.p99_ns,
               "armed watcher cost more than 1% p99");

    ok &= gate(drift.dropped == 0,
               "requests dropped across the hot swap");
    ok &= gate(drift.drift_detections >= 1 && drift.rewires >= 1 &&
                   drift.swaps >= 1,
               "drift never detected / no re-wire installed");
    ok &= gate(drift.detection_request_budget >= 0 &&
                   drift.detection_request_budget <= kDetectBudget,
               "drift detection exceeded the request budget");

    // FNV bit-identity: the installed plan of every swapped bucket
    // must match an offline re-wire on the same throttled device.
    GpuConfig throttled = drift_opts.base.astra.gpu;
    throttled.forced_clock_multiplier = 0.7;
    bool any_swapped = false;
    const BucketedAstra& router = drifting.prototype().router();
    for (int b = 0; b < router.num_buckets(); ++b) {
        const auto installed = drifting.replica(0).plan(b);
        if (installed.epoch == 0)
            continue;
        any_swapped = true;
        const auto offline = drifting.prototype().rewire(b, throttled);
        ok &= gate(offline.config_fnv == installed.config_fnv,
                   "live re-wire config differs from offline re-wire");
    }
    ok &= gate(any_swapped, "no bucket was ever hot-swapped");

    // The swap must land between batches: epochs never regress and
    // batches never overlap.
    bool log_ok = !drift.batch_log.empty();
    for (size_t i = 1; i < drift.batch_log.size(); ++i) {
        log_ok &= drift.batch_log[i].start_ns >=
                  drift.batch_log[i - 1].end_ns;
    }
    ok &= gate(log_ok, "hot swap landed inside a mini-batch");

    return ok ? 0 : 1;
}

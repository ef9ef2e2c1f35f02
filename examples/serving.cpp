/**
 * @file
 * Online serving demo: bucketed wired plans behind an open-loop
 * request stream, with live re-wiring under clock drift.
 *
 * The training-side story (examples/dynamic_buckets.cpp) buckets
 * variable-length inputs and explores each bucket offline. This demo
 * takes the next step and *serves*: Poisson traffic with a diurnal
 * burst arrives on its own clock, a deadline-aware queue batches
 * requests per bucket, and every mini-batch replays the bucket's
 * wired binary. The server is a one-replica ReplicaFleet, the same
 * serving loop a multi-replica fleet runs. Mid-trace, the device
 * thermally throttles to 70% clocks; the drift watcher notices from
 * window statistics, the bucket falls back to generic dispatch while a
 * re-wire runs off-path (warm-started from the plan store when one is
 * configured), and the refreshed blob is hot-swapped between
 * mini-batches — no queued request is dropped.
 *
 * Usage: serving [--trace-out FILE]
 */
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "models/models.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "serve/router.h"

using namespace astra;

int
main(int argc, char** argv)
{
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace-out" && i + 1 < argc)
            trace_out = argv[++i];
    }
    if (!trace_out.empty())
        obs::set_enabled(true);
    else
        obs::init_from_env();

    serve::FleetOptions fo;
    fo.replicas = 1;
    serve::ServeOptions& so = fo.base;
    so.bucket_lengths = {4, 6, 8};
    so.build = [](GraphBuilder& b, int length) {
        ModelConfig cfg;
        cfg.batch = 4;
        cfg.seq_len = length;
        cfg.hidden = 32;
        cfg.embed_dim = 32;
        cfg.vocab = 50;
        BuiltModel m = build_model(ModelKind::Scrnn, cfg);
        b = std::move(*m.builder);
    };
    so.astra.features = features_fk();
    so.astra.gpu.execute_kernels = false;
    so.astra.gpu.autoboost = false;
    so.max_batch = 4;
    so.record_batches = true;

    std::printf("exploring %zu buckets offline...\n",
                so.bucket_lengths.size());
    serve::ReplicaFleet server(fo);
    const int64_t explored = server.optimize();
    std::printf("exploration mini-batches: %lld\n\n",
                static_cast<long long>(explored));

    // Self-calibrated open-loop traffic: ~40% of the largest bucket's
    // batch capacity, one 2x burst, SLO at 30 batch times.
    const double batch_ns = server.replica(0).plan(2).baseline_ns;
    serve::TrafficConfig tcfg;
    tcfg.duration_ns = 600.0 * batch_ns;
    tcfg.base_rps = 0.4 * so.max_batch * 1e9 / batch_ns;
    tcfg.slo_ns = 30.0 * batch_ns;
    tcfg.length_div = 10;
    tcfg.bursts.push_back(
        {0.2 * tcfg.duration_ns, 0.4 * tcfg.duration_ns, 2.0});
    const auto traffic = serve::generate_traffic(tcfg);

    const serve::ServeReport calm = server.serve(traffic).total;
    std::printf("%s\n", calm.to_text("calm device").c_str());

    // Same workload, but the device throttles to 70% clocks at the
    // halfway mark. Watch the report: drift detected, one off-path
    // re-wire, one hot swap, still zero drops.
    serve::FleetOptions drift_opts = fo;
    drift_opts.base.clock_schedule.push_back(
        {0.5 * tcfg.duration_ns, 0.7});
    serve::ReplicaFleet drifting(drift_opts);
    drifting.optimize();
    const serve::ServeReport drift = drifting.serve(traffic).total;
    std::printf("%s\n",
                drift.to_text("thermal throttle at t/2 (0.7x clocks)")
                    .c_str());

    int swapped_batches = 0;
    for (const auto& rec : drift.batch_log)
        if (rec.plan_epoch > 0)
            ++swapped_batches;
    std::printf("batches on re-wired plans: %d of %lld\n",
                swapped_batches,
                static_cast<long long>(drift.batches));

    if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        if (!out) {
            std::cerr << "error: cannot open " << trace_out << "\n";
            return 1;
        }
        obs::write_chrome_trace(out);
        std::cout << "serving trace (serve lane + host/device spans) -> "
                  << trace_out << "\n";
    }
    return 0;
}

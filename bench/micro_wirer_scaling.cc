/**
 * @file
 * Micro-benchmark: exploration wall-clock vs wirer threads.
 *
 * The parallel wirer fans allocation-strategy pipelines across host
 * threads while guaranteeing results bit-identical to a serial run.
 * This harness measures that trade:
 * one full online exploration per thread count on a multi-strategy
 * stacked LSTM, reporting wall-clock, speedup over threads=1, the
 * plan-cache hit rate, and whether the result matched the serial run
 * exactly (configuration, best time, mini-batch count, convergence
 * minibatch totals). Identity failures fail the binary regardless of
 * speed.
 *
 * The speedup floor (>= 2x at 4 threads) is only asserted when the
 * host actually has 4 hardware threads; on smaller machines (and in
 * `--smoke` CI runs) the identity checks still execute.
 *
 * `--smoke` runs a tiny model at {1,2,4} threads for CI.
 */
#include <chrono>
#include <cstring>
#include <thread>

#include "bench/common.h"
#include "core/config_io.h"

using namespace astra;
using namespace astra::bench;

namespace {

double
now_ms()
{
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now()
                       .time_since_epoch())
                   .count()) /
           1000.0;
}

}  // namespace

int
main(int argc, char** argv)
{
    init_observability(&argc, argv);
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    Env env;
    ModelConfig cfg;
    cfg.layers = 2;
    if (smoke) {
        cfg.batch = 8;
        cfg.seq_len = 2;
        cfg.hidden = 64;
        cfg.embed_dim = 64;
        cfg.vocab = 200;
    } else {
        cfg.batch = 16;
        cfg.seq_len = 4;
        cfg.hidden = 256;
        cfg.embed_dim = 256;
        cfg.vocab = 1000;
    }
    const BuiltModel model = build_model(ModelKind::StackedLstm, cfg);

    AstraOptions base;
    base.gpu = env.gpu;
    base.sched = env.sched;
    base.features = features_all();
    // Clock-normalized measurement, so that under ASTRA_SIM_AUTOBOOST
    // the identity checks also cover each strategy's clock draws.
    base.normalize_clock = true;

    const std::vector<int> thread_counts =
        smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};

    struct Point
    {
        int threads = 0;
        double wall_ms = 0.0;
        WirerResult result;
    };
    std::vector<Point> points;
    size_t num_strategies = 0;
    for (int threads : thread_counts) {
        AstraOptions opts = base;
        opts.wirer_threads = threads;
        AstraSession session(model.graph(), opts);
        num_strategies = session.space().strategies.size();
        Point p;
        p.threads = threads;
        const double t0 = now_ms();
        p.result = session.optimize();
        p.wall_ms = now_ms() - t0;
        points.push_back(std::move(p));
    }

    const Point& serial = points.front();
    auto identical = [&](const WirerResult& r) {
        if (config_to_string(r.best_config) !=
                config_to_string(serial.result.best_config) ||
            r.best_ns != serial.result.best_ns ||
            r.minibatches != serial.result.minibatches ||
            r.convergence.epochs.size() !=
                serial.result.convergence.epochs.size())
            return false;
        for (size_t i = 0; i < r.convergence.epochs.size(); ++i)
            if (r.convergence.epochs[i].minibatches_total !=
                serial.result.convergence.epochs[i].minibatches_total)
                return false;
        return true;
    };

    const unsigned hw = std::thread::hardware_concurrency();
    TextTable table(
        "Wirer exploration scaling, stacked LSTM (hidden " +
        std::to_string(cfg.hidden) + "), " +
        std::to_string(num_strategies) + " allocation strategies, " +
        std::to_string(hw) + " hardware threads");
    table.set_header({"threads", "wall ms", "speedup", "explored",
                      "cache hit rate", "identical to serial"});

    bool all_identical = true;
    double speedup_at_4 = 0.0;
    for (const Point& p : points) {
        const bool same = identical(p.result);
        all_identical = all_identical && same;
        const double speedup = serial.wall_ms / p.wall_ms;
        if (p.threads == 4)
            speedup_at_4 = speedup;
        table.add_row(
            {std::to_string(p.threads), TextTable::fmt(p.wall_ms, 1),
             TextTable::fmt(speedup, 2),
             std::to_string(p.result.minibatches),
             TextTable::fmt(
                 p.result.convergence.plan_cache_hit_rate() * 100.0, 1) +
                 "%",
             same ? "yes" : "NO"});
    }
    table.print();

    // A 2x floor at 4 threads is only meaningful with >= 4 hardware
    // threads and >= 4 strategies to fan out.
    const bool can_scale = !smoke && hw >= 4 && num_strategies >= 4 &&
                           speedup_at_4 > 0.0;
    bool scaling_ok = true;
    if (can_scale) {
        scaling_ok = speedup_at_4 >= 2.0;
        std::cout << "  speedup at 4 threads: "
                  << TextTable::fmt(speedup_at_4, 2)
                  << "x (floor 2.00x): " << (scaling_ok ? "ok" : "FAIL")
                  << "\n";
    } else {
        std::cout << "  speedup floor skipped (smoke, < 4 hardware "
                     "threads, or < 4 strategies)\n";
    }
    std::cout << "  results bit-identical across thread counts: "
              << (all_identical ? "yes" : "NO") << "\n";
    return all_identical && scaling_ok ? 0 : 1;
}

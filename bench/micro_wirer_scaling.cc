/**
 * @file
 * Micro-benchmark: exploration wall-clock vs wirer threads.
 *
 * The parallel wirer fans allocation-strategy pipelines across host
 * threads while guaranteeing results bit-identical to a serial run.
 * This harness measures that trade on a multi-strategy stacked LSTM:
 * every run is a full online exploration on a fresh session, and each
 * round runs every thread count once, rotating which count goes first
 * so that a slow stretch of host time does not always land on the same
 * one. It prints every run's wall-clock and whether its result matched
 * the serial run exactly (configuration, best time, mini-batch count,
 * the profile summary, whose shards are reduced on the worker threads,
 * and convergence minibatch totals), then the median wall per thread
 * count. Identity failures fail the binary regardless of speed.
 *
 * The full run does 5 rounds and gates the ratio of median walls,
 * 1 thread over 4 threads, at >= 2x, but only when the host has 4
 * hardware threads and the space has 4 strategies to fan out.
 * `--smoke` runs a tiny model for one round at {1,2,4} threads for CI;
 * the floor never arms there, and the identity checks still execute.
 */
#include <chrono>
#include <cstring>
#include <map>
#include <thread>

#include "bench/common.h"
#include "core/config_io.h"
#include "support/stats.h"

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
    const int rounds = smoke ? 1 : 5;

    // Round 0 starts with one thread: the serial reference.
    WirerResult serial;
    auto identical = [&](const WirerResult& r) {
        if (config_to_string(r.best_config) !=
                config_to_string(serial.best_config) ||
            r.best_ns != serial.best_ns ||
            r.minibatches != serial.minibatches ||
            r.profile != serial.profile ||
            r.convergence.epochs.size() != serial.convergence.epochs.size())
            return false;
        for (size_t i = 0; i < r.convergence.epochs.size(); ++i)
            if (r.convergence.epochs[i].minibatches_total !=
                serial.convergence.epochs[i].minibatches_total)
                return false;
        return true;
    };

    const unsigned hw = std::thread::hardware_concurrency();
    const size_t num_strategies =
        AstraSession(model.graph(), base).space().strategies.size();
    TextTable table(
        "Wirer exploration scaling, stacked LSTM (hidden " +
        std::to_string(cfg.hidden) + "), " +
        std::to_string(num_strategies) + " allocation strategies, " +
        std::to_string(hw) + " hardware threads, " +
        std::to_string(rounds) + (rounds == 1 ? " round" : " rounds"));
    table.set_header({"round", "threads", "wall ms", "explored",
                      "identical to serial"});
    bool all_identical = true;
    std::map<int, RunningStats> walls;
    for (int round = 0; round < rounds; ++round)
        for (size_t k = 0; k < thread_counts.size(); ++k) {
            const int threads =
                thread_counts[(k + static_cast<size_t>(round)) %
                              thread_counts.size()];
            AstraOptions opts = base;
            opts.wirer_threads = threads;
            AstraSession session(model.graph(), opts);
            const double t0 = now_ms();
            const WirerResult r = session.optimize();
            const double wall_ms = now_ms() - t0;
            if (round == 0 && k == 0)
                serial = r;
            const bool same = identical(r);
            all_identical = all_identical && same;
            walls[threads].add(wall_ms);
            table.add_row({std::to_string(round + 1),
                           std::to_string(threads),
                           TextTable::fmt(wall_ms, 1),
                           std::to_string(r.minibatches),
                           same ? "yes" : "NO"});
        }
    table.print();

    TextTable medians("Median wall over rounds");
    medians.set_header({"threads", "median wall ms", "speedup"});
    const double serial_ms = walls.at(1).percentile(0.5);
    for (int threads : thread_counts) {
        const double ms = walls.at(threads).percentile(0.5);
        medians.add_row({std::to_string(threads), TextTable::fmt(ms, 1),
                         TextTable::fmt(serial_ms / ms, 2)});
    }
    medians.print();

    // A 2x floor at 4 threads is only meaningful with >= 4 hardware
    // threads and >= 4 strategies to fan out.
    const double speedup_at_4 = serial_ms / walls.at(4).percentile(0.5);
    const bool can_scale = !smoke && hw >= 4 && num_strategies >= 4;
    bool scaling_ok = true;
    if (can_scale) {
        scaling_ok = speedup_at_4 >= 2.0;
        std::cout << "  median speedup at 4 threads: "
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

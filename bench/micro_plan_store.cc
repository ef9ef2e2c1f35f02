/**
 * @file
 * Micro-benchmark: what the plan knowledge base buys and what
 * it costs.
 *
 * The value side is the fleet contract: a second sighting of a wired
 * workload must be answered from the store's L1 rung for one measured
 * verification mini-batch, >= 10x fewer than the cold exploration, and
 * with a bit-identical configuration. The cost side is the store
 * machinery itself: entry serialization, checksummed parsing, and the
 * full ladder lookup against a populated directory — all host-side
 * work that sits on the job-launch path, so it is measured in
 * microseconds next to the mini-batches it replaces.
 *
 * Exits non-zero when the warm sighting misses L1, spends more than
 * one mini-batch, diverges from the cold configuration, or falls short
 * of the 10x reduction. `--smoke` shrinks the model for CI.
 */
#include <chrono>
#include <cstring>
#include <filesystem>

#include "bench/common.h"
#include "core/config_io.h"
#include "core/plan_store.h"

using namespace astra;
using namespace astra::bench;

namespace {

double
now_us()
{
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
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

    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "astra_micro_plan_store";
    fs::remove_all(dir);
    fs::create_directories(dir);

    Env env;
    env.gpu.autoboost = false;  // bit-identical reuse needs base clock
    const BuiltModel model = build_model(
        ModelKind::Scrnn,
        smoke ? ModelConfig{.batch = 8, .seq_len = 4, .hidden = 32,
                            .embed_dim = 32, .vocab = 50}
              : paper_config(ModelKind::Scrnn, 32));
    AstraOptions opts;
    opts.gpu = env.gpu;
    opts.sched = env.sched;
    opts.plan_store = dir.string();

    // Cold sighting: full exploration, write-through to the store.
    AstraSession cold(model.graph(), opts);
    const double t0 = now_us();
    const WirerResult first = cold.optimize();
    const double cold_us = now_us() - t0;

    // Warm sighting: a fresh session (cold in-process caches), the
    // store is the only carried-over state.
    AstraSession warm(model.graph(), opts);
    const double t1 = now_us();
    const WirerResult second = warm.optimize();
    const double warm_us = now_us() - t1;

    TextTable table("Plan store: cold vs warm sighting");
    table.set_header({"sighting", "tier", "mini-batches", "wall us"});
    table.add_row({"cold", first.convergence.store_tier,
                   std::to_string(first.minibatches),
                   TextTable::fmt(cold_us, 0)});
    table.add_row({"warm", second.convergence.store_tier,
                   std::to_string(second.minibatches),
                   TextTable::fmt(warm_us, 0)});
    table.print();

    // Store-machinery costs, amortized over repetitions.
    const PlanStoreKey key = make_plan_store_key(model.graph(), opts.gpu);
    PlanStoreEntry entry;
    entry.key = key;
    entry.config = first.best_config;
    entry.best_ns = first.best_ns;
    const int reps = smoke ? 50 : 1000;

    double t = now_us();
    std::string text;
    for (int i = 0; i < reps; ++i)
        text = PlanStore::entry_to_string(entry);
    const double ser_us = (now_us() - t) / reps;

    t = now_us();
    PlanStoreEntry parsed;
    for (int i = 0; i < reps; ++i)
        PlanStore::entry_from_string(text, &parsed);
    const double parse_us = (now_us() - t) / reps;

    PlanStore store(dir);
    t = now_us();
    for (int i = 0; i < reps; ++i)
        store.lookup(key);
    const double lookup_us = (now_us() - t) / reps;

    TextTable costs("Store machinery (host-side, per call)");
    costs.set_header({"operation", "us", "entry bytes"});
    costs.add_row({"entry_to_string", TextTable::fmt(ser_us, 1),
                   std::to_string(text.size())});
    costs.add_row({"entry_from_string (checksummed)",
                   TextTable::fmt(parse_us, 1), ""});
    costs.add_row({"ladder lookup (L1 hit)",
                   TextTable::fmt(lookup_us, 1), ""});
    costs.print();

    fs::remove_all(dir);

    if (second.convergence.store_tier != "l1")
        fatal("warm sighting answered from ",
              second.convergence.store_tier, ", expected l1");
    if (second.minibatches != 1)
        fatal("warm sighting spent ", second.minibatches,
              " mini-batches, expected 1");
    if (first.minibatches < 10 * second.minibatches)
        fatal("reduction below 10x: ", first.minibatches, " cold vs ",
              second.minibatches, " warm");
    if (config_to_string(first.best_config) !=
        config_to_string(second.best_config))
        fatal("warm configuration is not bit-identical to cold");
    std::cout << "\nOK: warm sighting L1, 1 mini-batch ("
              << first.minibatches << " cold), config bit-identical\n";
    return 0;
}

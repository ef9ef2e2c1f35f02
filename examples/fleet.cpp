/**
 * @file
 * Multi-job fleet driver: replays a stream of heterogeneous training
 * jobs against a shared plan store and reports how the knowledge base
 * amortizes wiring cost across sightings.
 *
 * Usage:
 *   fleet --store DIR [--rounds N] [--smoke] [--report FILE]
 *         [--wirer-threads N]
 *
 * Every job is a fresh AstraSession (the in-process plan cache starts
 * cold each time); the store directory is the only channel between
 * sightings, exactly as it is between fleet processes. Round 1 wires
 * every workload cold and writes the winners back; round 2 should
 * answer every workload from the store's L1 rung with a single
 * measured verification mini-batch — the >= 10x reduction the
 * warm-start CI job gates. The stream deliberately includes a
 * shape-neighbor pair (same model, different width) so the L2 transfer
 * rung is exercised too when only one of the pair has been seen.
 *
 * --report appends one machine-readable line per sighting:
 *   sighting round=R workload=W tier=T minibatches=M config_fnv=H
 * which the CI gate parses to check the reduction ratio and that the
 * warm final configuration is bit-identical to the cold one.
 */
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/astra.h"
#include "core/config_io.h"
#include "core/plan_store.h"
#include "models/models.h"
#include "support/record.h"
#include "support/table.h"

using namespace astra;

namespace {

struct Workload
{
    std::string name;
    ModelKind kind;
    ModelConfig cfg;
};

std::vector<Workload>
make_stream(bool smoke)
{
    // Each entry keeps embed_dim == hidden so the neighbor pair
    // differs in exactly one width. scrnn-h32 / scrnn-h48 share a
    // shape class (same structure, different dimension values): the
    // store's L2 rung answers whichever of the two arrives second.
    auto wl = [](std::string name, ModelKind kind, int64_t batch,
                 int64_t seq, int64_t hidden) {
        Workload w;
        w.name = std::move(name);
        w.kind = kind;
        w.cfg = {.batch = batch, .seq_len = seq, .hidden = hidden,
                 .embed_dim = hidden, .vocab = 50};
        return w;
    };
    std::vector<Workload> stream = {
        wl("scrnn-h32", ModelKind::Scrnn, 8, 4, 32),
        wl("scrnn-h48", ModelKind::Scrnn, 8, 4, 48),
        wl("milstm-h32", ModelKind::MiLstm, 8, 4, 32),
    };
    if (!smoke) {
        stream.push_back(wl("sublstm-h64", ModelKind::SubLstm, 16, 8, 64));
        stream.push_back(wl("scrnn-h64", ModelKind::Scrnn, 16, 4, 64));
    }
    return stream;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string store_dir = plan_store_dir_from_env();
    std::string report_path;
    int rounds = 2;
    int wirer_threads = 1;
    bool smoke = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--store")
            store_dir = next();
        else if (arg == "--rounds")
            rounds = static_cast<int>(record::int_arg(arg, next(), 1, 1000));
        else if (arg == "--report")
            report_path = next();
        else if (arg == "--wirer-threads")
            wirer_threads =
                static_cast<int>(record::int_arg(arg, next(), 1, 256));
        else if (arg == "--smoke")
            smoke = true;
        else
            fatal("unknown flag ", arg);
    }
    if (store_dir.empty())
        fatal("no store directory (pass --store DIR or set "
              "ASTRA_PLAN_STORE)");

    std::ofstream report;
    if (!report_path.empty()) {
        report.open(report_path, std::ios::app);
        if (!report)
            fatal("cannot open ", report_path, " for writing");
    }

    const std::vector<Workload> stream = make_stream(smoke);
    std::cout << "fleet: " << stream.size() << " workloads x " << rounds
              << " rounds, store " << store_dir << "\n";

    TextTable table("Fleet");
    table.set_header({"round", "workload", "tier", "mini-batches",
                      "mini-batch ms", "config fnv"});
    std::vector<int64_t> round_minibatches(
        static_cast<size_t>(rounds), 0);
    for (int round = 1; round <= rounds; ++round) {
        for (const Workload& w : stream) {
            const BuiltModel model = build_model(w.kind, w.cfg);
            AstraOptions opts;
            opts.plan_store = store_dir;
            opts.wirer_threads = wirer_threads;
            opts.gpu.execute_kernels = false;
            // Bit-identical warm/cold configs require the base clock
            // (§4.1): pin it so an autoboost environment (the CI
            // noise job's ASTRA_SIM_AUTOBOOST) cannot make the gate
            // flaky.
            opts.gpu.autoboost = false;
            AstraSession session(model.graph(), opts);
            const WirerResult r = session.optimize();
            const std::string tier = r.convergence.store_tier;
            const std::string config_fnv =
                hash_hex(fnv1a64(config_to_string(r.best_config)));
            round_minibatches[static_cast<size_t>(round - 1)] +=
                r.minibatches;
            table.add_row({std::to_string(round), w.name, tier,
                           std::to_string(r.minibatches),
                           TextTable::fmt(r.best_ns / 1e6, 3),
                           config_fnv});
            for (const std::string& e : r.convergence.store_errors)
                std::cerr << "plan store: " << e << "\n";
            if (report)
                report << "sighting round=" << round << " workload="
                       << w.name << " tier=" << tier
                       << " minibatches=" << r.minibatches
                       << " config_fnv=" << config_fnv << "\n";
        }
    }
    table.print();

    // Amortization summary: wiring cost per round, and how far the
    // store cut it versus the cold first round.
    std::cout << "\namortized wiring cost (measured mini-batches per "
                 "round):\n";
    for (int round = 1; round <= rounds; ++round) {
        const int64_t mb =
            round_minibatches[static_cast<size_t>(round - 1)];
        std::cout << "  round " << round << ": " << mb;
        if (round > 1 && mb > 0)
            std::cout << "  ("
                      << TextTable::fmt(
                             static_cast<double>(round_minibatches[0]) /
                                 static_cast<double>(mb),
                             1)
                      << "x fewer than cold)";
        std::cout << "\n";
    }
    return 0;
}

/**
 * @file
 * Command-line driver: run any model of the zoo through any backend
 * with explicit hyper-parameters; optionally persist / reuse the tuned
 * configuration and dump a Chrome trace.
 *
 * Usage:
 *   astra_cli --model sublstm --batch 16 --seq 8 --hidden 256
 *             [--features f|fk|fks|all] [--streams N]
 *             [--wirer-threads N] [--fault-spec SPEC]
 *             [--save-config FILE | --load-config FILE]
 *             [--plan-store DIR] [--whatif]
 *             [--trace FILE.json] [--trace-out FILE.json]
 *             [--no-embedding]
 *
 * --plan-store points exploration at the persistent knowledge base
 * (core/plan_store.h; defaults to $ASTRA_PLAN_STORE): a previously
 * wired workload is reused instead of re-explored, and this run's
 * winner is written back for the next process.
 *
 * --whatif turns on the wirer's what-if path (core/whatif.h): every
 * exploration trial is an exact host replay instead of a measured
 * mini-batch, and only each stage's bound winner is measured on the
 * device. The converged configuration is unchanged; a summary of
 * replays and measurements goes to stderr.
 *
 * --fault-spec injects deterministic faults (sim/faults.h grammar,
 * e.g. "seed=3;kernel:p=0.01;alloc:at=0;straggler:p=0.001,x=4") into
 * every dispatch; exploration retries, quarantines and degrades
 * instead of aborting.
 *
 * --trace dumps the tuned run's kernel spans alone; --trace-out (or
 * ASTRA_TRACE=FILE.json) captures the whole invocation through the
 * observability layer -- enumeration, exploration, dispatch and device
 * kernels on one merged Chrome-trace timeline.
 */
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/astra.h"
#include "core/config_io.h"
#include "models/models.h"
#include "obs/export.h"
#include "support/table.h"

using namespace astra;

namespace {

ModelKind
parse_model(const std::string& name)
{
    if (name == "scrnn")
        return ModelKind::Scrnn;
    if (name == "milstm")
        return ModelKind::MiLstm;
    if (name == "sublstm")
        return ModelKind::SubLstm;
    if (name == "stacked")
        return ModelKind::StackedLstm;
    if (name == "gnmt")
        return ModelKind::Gnmt;
    if (name == "rhn")
        return ModelKind::Rhn;
    if (name == "attnlstm")
        return ModelKind::AttnLstm;
    fatal("unknown model '", name,
          "' (scrnn|milstm|sublstm|stacked|gnmt|rhn|attnlstm)");
}

AstraFeatures
parse_features(const std::string& name)
{
    if (name == "f")
        return features_f();
    if (name == "fk")
        return features_fk();
    if (name == "fks")
        return features_fks();
    if (name == "all")
        return features_all();
    fatal("unknown feature preset '", name, "' (f|fk|fks|all)");
}

}  // namespace

int
main(int argc, char** argv)
{
    ModelKind kind = ModelKind::SubLstm;
    ModelConfig cfg;
    cfg.batch = 16;
    cfg.seq_len = 8;
    cfg.hidden = 256;
    cfg.embed_dim = 256;
    cfg.vocab = 1000;
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    std::string save_path, load_path, trace_path, trace_out;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--model")
            kind = parse_model(next());
        else if (arg == "--batch")
            cfg.batch = std::atoll(next().c_str());
        else if (arg == "--seq")
            cfg.seq_len = std::atoll(next().c_str());
        else if (arg == "--hidden")
            cfg.hidden = cfg.embed_dim = std::atoll(next().c_str());
        else if (arg == "--vocab")
            cfg.vocab = std::atoll(next().c_str());
        else if (arg == "--features")
            opts.features = parse_features(next());
        else if (arg == "--streams")
            opts.num_streams = std::atoi(next().c_str());
        else if (arg == "--wirer-threads")
            opts.wirer_threads = std::atoi(next().c_str());
        else if (arg == "--fault-spec") {
            const std::string spec = next();
            if (!FaultPlan::parse(spec, &opts.gpu.faults))
                fatal("malformed --fault-spec '", spec,
                      "' (see sim/faults.h for the grammar)");
        }
        else if (arg == "--save-config")
            save_path = next();
        else if (arg == "--load-config")
            load_path = next();
        else if (arg == "--plan-store")
            opts.plan_store = next();
        else if (arg == "--whatif")
            opts.whatif.enabled = true;
        else if (arg == "--trace")
            trace_path = next();
        else if (arg == "--trace-out")
            trace_out = next();
        else if (arg == "--no-embedding")
            cfg.include_embedding = false;
        else
            fatal("unknown flag ", arg);
    }

    if (!trace_out.empty())
        obs::set_enabled(true);
    else
        obs::init_from_env();

    const BuiltModel model = build_model(kind, cfg);
    std::cout << model.name << ": " << model.graph().size()
              << " graph nodes, batch " << cfg.batch << ", seq "
              << cfg.seq_len << ", hidden " << cfg.hidden << "\n";
    if (!opts.gpu.faults.empty())
        std::cout << "fault injection armed: "
                  << opts.gpu.faults.to_string() << "\n";

    opts.gpu.collect_trace = !trace_path.empty();
    // Arm the full OOM degradation ladder: injected (or genuine)
    // allocation failures degrade Bump -> Reuse -> recompute.
    opts.grads = &model.grads;
    AstraSession session(model.graph(), opts);
    const double native = session.run_native().total_ns;

    ScheduleConfig best;
    int64_t explored = 0;
    if (!load_path.empty()) {
        std::ifstream in(load_path);
        std::string load_error;
        if (!in)
            fatal("cannot open config file ", load_path);
        if (!read_config(in, &best, &load_error))
            fatal("cannot load config from ", load_path, ": ",
                  load_error);
        if (!session.config_fits(best, &load_error))
            fatal("config from ", load_path, " does not fit ",
                  model.name, ": ", load_error);
        std::cout << "loaded tuned configuration from " << load_path
                  << " (skipping exploration)\n";
    } else {
        const WirerResult r = session.optimize();
        best = r.best_config;
        explored = r.minibatches;
        if (r.convergence.whatif_evals > 0)
            std::cerr << "whatif: " << r.convergence.whatif_evals
                      << " host replays, "
                      << r.convergence.measured_configs
                      << " configs measured (" << r.minibatches
                      << " mini-batches)\n";
        if (!r.convergence.store_tier.empty()) {
            std::cout << "plan store: tier " << r.convergence.store_tier
                      << ", " << r.minibatches
                      << " measured mini-batches";
            if (r.convergence.store_transferred_bindings > 0)
                std::cout << ", "
                          << r.convergence.store_transferred_bindings
                          << " bindings transferred";
            std::cout << "\n";
            for (const std::string& e : r.convergence.store_errors)
                std::cerr << "plan store: rejected entry: " << e
                          << "\n";
        }
        if (!save_path.empty()) {
            std::ofstream out(save_path);
            write_config(out, best);
            std::cout << "saved tuned configuration to " << save_path
                      << "\n";
        }
    }

    const DispatchResult tuned = session.run(best);
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        write_chrome_trace(out, tuned.trace);
        std::cout << "wrote " << tuned.trace.size() << " kernel spans to "
                  << trace_path << "\n";
    }

    if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        if (!out)
            fatal("cannot open ", trace_out, " for writing");
        obs::write_chrome_trace(out);
        std::cout << "wrote merged host+device trace ("
                  << obs::host_spans().size() << " host spans, "
                  << obs::kernel_spans().size() << " kernel spans) to "
                  << trace_out << "\n";
    }

    TextTable table("Result");
    table.set_header({"backend", "mini-batch ms", "speedup"});
    table.add_row({"native", TextTable::fmt(native / 1e6, 3), "1.00"});
    table.add_row(
        {explored > 0 ? "Astra (" + std::to_string(explored) +
                            " configs explored)"
                      : "Astra (preloaded config)",
         TextTable::fmt(tuned.total_ns / 1e6, 3),
         TextTable::fmt(native / tuned.total_ns, 2)});
    table.print();
    return 0;
}

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
 * instead of aborting. A result row whose dispatch still faulted is
 * marked "(faulted)" and gets no speedup: its time is suspect.
 *
 * --trace dumps the tuned run's kernel spans alone; --trace-out (or
 * ASTRA_TRACE=FILE.json) captures the whole invocation through the
 * observability layer -- enumeration, exploration, dispatch and device
 * kernels on one merged Chrome-trace timeline.
 */
#include <fstream>
#include <iostream>
#include <string>

#include "core/astra.h"
#include "core/config_io.h"
#include "models/models.h"
#include "obs/export.h"
#include "support/record.h"
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
        const auto next_int = [&](int64_t lo, int64_t hi) {
            return record::int_arg(arg, next(), lo, hi);
        };
        if (arg == "--model")
            kind = parse_model(next());
        else if (arg == "--batch")
            cfg.batch = next_int(1, 1 << 16);
        else if (arg == "--seq")
            cfg.seq_len = next_int(1, 1 << 12);
        else if (arg == "--hidden")
            cfg.hidden = cfg.embed_dim = next_int(1, 1 << 16);
        else if (arg == "--vocab")
            cfg.vocab = next_int(1, 1 << 24);
        else if (arg == "--features")
            opts.features = parse_features(next());
        else if (arg == "--streams")
            opts.num_streams = static_cast<int>(next_int(1, 64));
        else if (arg == "--wirer-threads")
            opts.wirer_threads = static_cast<int>(next_int(1, 256));
        else if (arg == "--fault-spec") {
            const std::string spec = next();
            std::string why;
            if (!FaultPlan::parse(spec, &opts.gpu.faults, &why))
                fatal("malformed --fault-spec '", spec, "': ", why,
                      " (see sim/faults.h for the grammar)");
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
    const DispatchResult native = session.run_native();

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
                      << " host replays, " << r.minibatches
                      << " mini-batches\n";
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
                std::cerr << "plan store: " << e << "\n";
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
    // A dispatch that faulted past its retries measured nothing
    // trustworthy: mark its row, and print no speedup that rests on it.
    const auto add_row = [&](std::string backend, const DispatchResult& r) {
        const bool faulted = native.faulted || r.faulted;
        table.add_row({r.faulted ? backend + " (faulted)" : backend,
                       TextTable::fmt(r.total_ns / 1e6, 3),
                       faulted ? "-"
                               : TextTable::fmt(
                                     native.total_ns / r.total_ns, 2)});
    };
    add_row("native", native);
    add_row(explored > 0 ? "Astra (" + std::to_string(explored) +
                               " configs explored)"
                         : "Astra (preloaded config)",
            tuned);
    table.print();
    return 0;
}

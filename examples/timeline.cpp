/**
 * @file
 * Timeline dump: execute one mini-batch under the native dispatch and
 * under Astra's tuned configuration, writing Chrome-trace JSON for
 * both so the schedules can be compared visually in chrome://tracing
 * or Perfetto (streams appear as separate tracks).
 *
 * Usage: timeline [out_prefix] [--trace-out FILE.json]
 *   writes <out_prefix>_native.json and <out_prefix>_astra.json
 *
 * With --trace-out (or ASTRA_TRACE=FILE.json in the environment) the
 * whole run is additionally captured through the observability layer:
 * FILE.json holds host-side spans (enumerate / wire / dispatch /
 * alloc) and every simulated kernel span on one merged timeline, plus
 * a text summary of the counters on stdout.
 */
#include <fstream>
#include <iostream>
#include <string>

#include "core/astra.h"
#include "models/models.h"
#include "obs/export.h"
#include "runtime/dispatcher.h"
#include "runtime/native.h"

using namespace astra;

int
main(int argc, char** argv)
{
    std::string prefix = "timeline";
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace-out") {
            if (i + 1 >= argc) {
                std::cerr << "error: --trace-out requires a file argument\n";
                return 2;
            }
            trace_out = argv[++i];
        } else {
            prefix = arg;
        }
    }
    if (!trace_out.empty())
        obs::set_enabled(true);
    else
        obs::init_from_env();

    ModelConfig cfg;
    cfg.batch = 16;
    cfg.seq_len = 6;
    cfg.hidden = 256;
    cfg.embed_dim = 256;
    cfg.vocab = 500;
    const BuiltModel model = build_model(ModelKind::SubLstm, cfg);

    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.gpu.collect_trace = true;
    AstraSession session(model.graph(), opts);

    const DispatchResult native = session.run_native();
    {
        std::ofstream out(prefix + "_native.json");
        write_chrome_trace(out, native.trace);
    }

    const WirerResult r = session.optimize();
    const DispatchResult tuned = session.run(r.best_config);
    {
        std::ofstream out(prefix + "_astra.json");
        write_chrome_trace(out, tuned.trace);
    }

    std::cout << "native: " << native.trace.size() << " kernels, "
              << native.total_ns / 1e6 << " ms -> " << prefix
              << "_native.json\n";
    std::cout << "astra:  " << tuned.trace.size() << " kernels, "
              << tuned.total_ns / 1e6 << " ms -> " << prefix
              << "_astra.json\n";

    if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        if (!out) {
            std::cerr << "error: cannot open " << trace_out
                      << " for writing\n";
            return 1;
        }
        obs::write_chrome_trace(out);
        std::cout << "merged host+device trace ("
                  << obs::host_spans().size() << " host spans, "
                  << obs::kernel_spans().size() << " kernel spans) -> "
                  << trace_out << "\n";
        obs::write_text_summary(std::cout);
    }
    std::cout << "open any trace file in chrome://tracing or "
                 "https://ui.perfetto.dev to inspect the schedule\n";
    return 0;
}

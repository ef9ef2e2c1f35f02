/**
 * @file
 * Backend shoot-out on one model: native framework dispatch, the
 * XLA-like static optimizer, the cuDNN-style hand-optimized compound
 * path, and Astra's online adaptation — the paper's §6 comparison in
 * one program.
 *
 * Usage: compare_backends [model] [batch]
 *   model in {scrnn, milstm, sublstm, stacked, gnmt}
 */
#include <iostream>
#include <string>

#include "baselines/cudnn.h"
#include "baselines/xla.h"
#include "core/astra.h"
#include "models/models.h"
#include "runtime/dispatcher.h"
#include "support/record.h"
#include "support/table.h"

using namespace astra;

int
main(int argc, char** argv)
{
    const std::string name = argc > 1 ? argv[1] : "stacked";
    ModelKind kind = ModelKind::StackedLstm;
    if (name == "scrnn")
        kind = ModelKind::Scrnn;
    else if (name == "milstm")
        kind = ModelKind::MiLstm;
    else if (name == "sublstm")
        kind = ModelKind::SubLstm;
    else if (name == "gnmt")
        kind = ModelKind::Gnmt;
    else if (name != "stacked")
        fatal("unknown model '", name,
              "' (use scrnn|milstm|sublstm|stacked|gnmt)");

    ModelConfig cfg;
    cfg.batch = argc > 2 ? record::int_arg("batch", argv[2], 1, 1 << 16) : 16;
    cfg.seq_len = 8;
    cfg.hidden = 512;
    cfg.embed_dim = 512;
    cfg.vocab = 2000;
    const BuiltModel model = build_model(kind, cfg);

    AstraOptions opts;
    opts.gpu.execute_kernels = false;  // timing comparison
    AstraSession session(model.graph(), opts);

    const double native = session.run_native().total_ns;

    SimMemory xla_mem(graph_tensor_bytes(model.graph()) + (1 << 20));
    TensorMap xla_map(model.graph(), xla_mem,
                      session.space().strategies[0].runs);
    const double xla =
        dispatch_plan(xla_plan(model.graph(), session.space()),
                      model.graph(), xla_map, opts.gpu).total_ns;

    double cudnn = -1.0;
    if (!model.cudnn_layers.empty()) {
        SimMemory cm(graph_tensor_bytes(model.graph()) + (1 << 20));
        TensorMap cmap(model.graph(), cm);
        cudnn = dispatch_plan(
                    cudnn_plan(model.graph(), model.cudnn_layers,
                               opts.gpu),
                    model.graph(), cmap, opts.gpu).total_ns;
    }

    const WirerResult astra = session.optimize();

    TextTable table("Backend comparison: " + model.name + ", batch " +
                    std::to_string(cfg.batch));
    table.set_header({"backend", "mini-batch ms", "speedup vs native"});
    auto row = [&](const std::string& label, double ns) {
        table.add_row({label, TextTable::fmt(ns / 1e6, 3),
                       TextTable::fmt(native / ns, 2)});
    };
    row("native framework", native);
    row("XLA-like static", xla);
    if (cudnn > 0)
        row("cuDNN compound", cudnn);
    else
        table.add_row({"cuDNN compound", "-", "not covered"});
    row("Astra (" + std::to_string(astra.minibatches) +
            " configs explored)",
        astra.best_ns);
    table.print();
    return 0;
}

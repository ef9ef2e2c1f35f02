/**
 * @file
 * Quickstart: define a small LSTM-variant training job, let Astra
 * explore the optimization state space online, and compare against the
 * native framework dispatch.
 *
 * Usage: quickstart [batch]
 */
#include <iostream>

#include "core/astra.h"
#include "models/data.h"
#include "models/models.h"
#include "support/record.h"
#include "support/table.h"

using namespace astra;

int
main(int argc, char** argv)
{
    ModelConfig cfg;
    cfg.batch = argc > 1 ? record::int_arg("batch", argv[1], 1, 1 << 16) : 16;
    cfg.seq_len = 6;
    cfg.hidden = 128;
    cfg.embed_dim = 128;

    // 1. Build the model the way a researcher would: per-gate GEMMs,
    //    explicit elementwise gating, loss, autodiff backward pass.
    BuiltModel model = build_model(ModelKind::SubLstm, cfg);
    std::cout << "model: " << model.name << ", graph nodes: "
              << model.graph().size() << "\n";

    // 2. Create a session. The enumerator mines fusion sets, ladders
    //    and allocation strategies; memory is planned per strategy.
    AstraOptions opts;
    opts.gpu.execute_kernels = true;  // real values: work-conserving
    AstraSession session(model.graph(), opts);
    std::cout << "enumerator: " << session.space().groups.size()
              << " fusion groups, " << session.space().single_mms.size()
              << " standalone GEMMs, "
              << session.space().strategies.size()
              << " allocation strategies\n";

    // 3. Native framework baseline (single stream, no fusion).
    Rng rng(42);
    bind_all(model.graph(), session.tensor_map(0), rng);
    const DispatchResult native = session.run_native();

    // 4. Online exploration: every trial is a real training mini-batch
    //    (the bind callback loads fresh data = work conservation).
    WirerResult result = session.optimize(
        [&](const TensorMap& tmap, int64_t mb) {
            (void)mb;
            bind_inputs(model.graph(), tmap, rng);
        });

    // 5. Steady state: keep training with the winning configuration.
    const DispatchResult tuned = session.run(result.best_config);

    TextTable table("Astra quickstart (" + model.name + ", batch " +
                    std::to_string(cfg.batch) + ")");
    table.set_header({"configuration", "mini-batch ms", "speedup"});
    table.add_row({"native framework",
                   TextTable::fmt(native.total_ns / 1e6, 3), "1.00"});
    table.add_row({"Astra (explored " +
                       std::to_string(result.minibatches) +
                       " configs)",
                   TextTable::fmt(tuned.total_ns / 1e6, 3),
                   TextTable::fmt(native.total_ns / tuned.total_ns, 2)});
    table.print();
    return 0;
}

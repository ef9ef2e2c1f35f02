/**
 * @file
 * Work-conserving training demo: train an SC-RNN language model while
 * Astra explores the optimization state space online (paper §4.2).
 *
 * Every exploration mini-batch is a real SGD step; after the
 * exploration converges, training continues at the tuned
 * configuration. The run prints the loss trajectory to show training
 * never paused, plus the before/after mini-batch time.
 *
 * Usage: train_scrnn [steps]
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
    const int64_t extra_steps =
        argc > 1 ? record::int_arg("steps", argv[1], 0, 1000000) : 40;

    ModelConfig cfg;
    cfg.batch = 8;
    cfg.seq_len = 5;
    cfg.hidden = 64;
    cfg.embed_dim = 64;
    cfg.vocab = 120;
    BuiltModel model = build_model(ModelKind::Scrnn, cfg);

    AstraOptions opts;
    opts.features = features_all();
    opts.gpu.execute_kernels = true;  // real math: this is training
    AstraSession session(model.graph(), opts);

    const double native_ms = session.run_native().total_ns / 1e6;

    // Exploration phase. The bind callback feeds one fixed batch (we
    // overfit it so the loss trend is visible) and applies SGD on the
    // previous step's gradients: normal training, different schedule
    // under the hood every mini-batch.
    Rng data_rng(7);
    std::vector<bool> bound(session.space().strategies.size(), false);
    std::vector<float> loss_log;
    const WirerResult result = session.optimize(
        [&](const TensorMap& tmap, int64_t mb) {
            for (size_t s = 0; s < bound.size(); ++s) {
                if (&session.tensor_map(static_cast<int>(s)) != &tmap)
                    continue;
                if (!bound[s]) {
                    Rng fresh(7);
                    bind_all(model.graph(), tmap, fresh);
                    bound[s] = true;
                } else {
                    apply_sgd(model.graph(), tmap,
                              model.grads.param_grads, 0.2f);
                }
            }
            if (mb % 25 == 0 && bound[0]) {
                loss_log.push_back(
                    session.tensor_map(0).f32(model.loss)[0]);
            }
        });

    // Steady state: keep training at the tuned configuration.
    const TensorMap& tmap =
        session.tensor_map(result.best_config.strategy);
    for (int64_t i = 0; i < extra_steps; ++i) {
        apply_sgd(model.graph(), tmap, model.grads.param_grads, 0.2f);
        session.run(result.best_config);
    }

    std::cout << "loss during exploration (every 25 mini-batches):";
    for (float l : loss_log)
        std::cout << " " << l;
    std::cout << "\nloss after " << extra_steps
              << " more tuned steps: " << tmap.f32(model.loss)[0]
              << "\n";

    TextTable table("Work-conserving exploration (SC-RNN)");
    table.set_header({"metric", "value"});
    table.add_row({"exploration mini-batches (all were SGD steps)",
                   std::to_string(result.minibatches)});
    table.add_row({"native mini-batch ms", TextTable::fmt(native_ms, 3)});
    table.add_row({"tuned mini-batch ms",
                   TextTable::fmt(result.best_ns / 1e6, 3)});
    table.add_row({"speedup",
                   TextTable::fmt(native_ms * 1e6 / result.best_ns, 2)});
    table.print();
    return 0;
}

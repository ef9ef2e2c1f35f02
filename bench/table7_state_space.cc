/**
 * @file
 * Reproduces paper Table 7: size of the exploration state space after
 * pruning, in configurations (= exploration mini-batches), for
 * Astra_FKS and Astra_all. Paper shape: a few hundred to a few
 * thousand per model; GNMT stays in the same range as much smaller
 * models thanks to barrier exploration (parallel super-epochs), and
 * models without allocation conflicts have identical FKS/all counts.
 */
#include "bench/common.h"

using namespace astra;
using namespace astra::bench;

int
main()
{
    Env env;
    TextTable table(
        "Table 7: exploration state space post-pruning, in configs "
        "(paper FKS/all: SCRNN 303/1672, StackedLSTM 1219/1219, "
        "MI-LSTM 1191/1191, SubLSTM 3207/5439, GNMT 2280/9303; "
        "Astra_whatif = Astra_all mini-batches with the what-if "
        "engine replaying exploration trials, same final config)");
    table.set_header({"Model", "Astra_FKS", "Astra_all", "Astra_whatif",
                      "groups", "strategies"});
    const ModelKind kinds[] = {ModelKind::Scrnn, ModelKind::StackedLstm,
                               ModelKind::MiLstm, ModelKind::SubLstm,
                               ModelKind::Gnmt};
    for (ModelKind kind : kinds) {
        const BuiltModel model =
            build_model(kind, paper_config(kind, 16));
        const AstraOutcome fks =
            astra_ns(model, features_fks(), env);
        const AstraOutcome all =
            astra_ns(model, features_all(), env);
        WhatIfOptions wi;
        wi.enabled = true;
        const AstraOutcome whatif =
            astra_ns(model, features_all(), env, wi);
        const SearchSpace space =
            enumerate_search_space(model.graph());
        table.add_row({model.name, std::to_string(fks.configs),
                       std::to_string(all.configs),
                       std::to_string(whatif.configs),
                       std::to_string(space.groups.size()),
                       std::to_string(space.strategies.size())});
        if (whatif.config_text != all.config_text)
            std::cerr << "  [" << model.name
                      << " WARNING: whatif config differs from "
                         "exhaustive]\n";
        std::cerr << "  [" << model.name << " done]\n";
    }
    table.print();
    return 0;
}

/**
 * @file
 * Reproduces paper Table 6: GNMT relative to cuDNN. The recurrent
 * layers are cuDNN-covered but the attention module is not, so cuDNN
 * dominates at small batch (paper PyT 0.19-0.31 of cuDNN; Astra_all
 * 0.65 at batch 8, crossing above 1.0 by batch 32). Exits 1, naming
 * the batch and the pair, unless cuDNN > Astra_all > Astra_FK >
 * Astra_F > PyT at every batch; the crossover is not reached here
 * (EXPERIMENTS.md, Table 6), so it is not checked.
 */
#include <cstdio>

#include "bench/common.h"

using namespace astra;
using namespace astra::bench;

int
main()
{
    Env env;
    TextTable table(
        "Table 6: GNMT, performance relative to cuDNN (paper "
        "Astra_all: 0.65 / 0.75 / 1.71 / 1.17 / 1.00 / 1.02)");
    table.set_header({"Mini-batch", "PyT", "cuDNN", "Astra_F",
                      "Astra_FK", "Astra_all", "paper Astra_all"});
    const std::map<int64_t, double> paper = {
        {8, 0.65}, {16, 0.75}, {32, 1.71},
        {64, 1.17}, {128, 1.0}, {256, 1.02}};
    std::vector<std::string> failed;
    for (int64_t batch : kBatches) {
        const BuiltModel model = build_model(
            ModelKind::Gnmt, paper_config(ModelKind::Gnmt, batch));
        const double cudnn = cudnn_ns(model, env);
        const double native = native_ns(model, env);
        const double f = astra_ns(model, features_f(), env).ns;
        const double fk = astra_ns(model, features_fk(), env).ns;
        const double all = astra_ns(model, features_all(), env).ns;
        table.add_row(std::to_string(batch),
                      {cudnn / native, 1.0, cudnn / f, cudnn / fk,
                       cudnn / all, paper.at(batch)});
        // Fastest first: each must beat the next.
        const std::pair<const char*, double> order[] = {
            {"cuDNN", cudnn}, {"Astra_all", all}, {"Astra_FK", fk},
            {"Astra_F", f},   {"PyT", native}};
        for (size_t i = 0; i + 1 < std::size(order); ++i)
            if (!(order[i].second < order[i + 1].second))
                failed.push_back(std::string(order[i].first) +
                                 " must beat " + order[i + 1].first +
                                 " at batch " + std::to_string(batch));
        std::cerr << "  [batch " << batch << " done]\n";
    }
    table.print();
    for (const std::string& f : failed)
        std::fprintf(stderr, "table6: FAILED: %s\n", f.c_str());
    return failed.empty() ? 0 : 1;
}

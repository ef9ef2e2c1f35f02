/**
 * @file
 * Reproduces paper Table 8: bucketed adaptation vs dynamic graphs in
 * native PyTorch (§5.5 / §6.5). Inputs have variable sentence lengths
 * (PTB-like distribution); Astra buckets lengths into 5 buckets
 * (paper: 13, 18, 24, 30, 83), explores each independently, and maps
 * each mini-batch to the smallest covering bucket — paying a little
 * padded compute but keeping all its optimizations. Native executes
 * the exact-length graph per mini-batch with no adaptation.
 *
 * Paper shape: 1.4-2.5x despite the padding. Exits 1, naming the row,
 * unless every row beats the dynamic graph and subLSTM beats SC-RNN at
 * each batch.
 */
#include <cstdio>

#include "bench/common.h"

#include "core/bucketed.h"
#include "models/data.h"
#include "runtime/dispatcher.h"
#include "runtime/native.h"

using namespace astra;
using namespace astra::bench;

namespace {

/** Average native per-mini-batch time over the length sample. */
double
dynamic_native_ns(ModelKind kind, int64_t batch,
                  const std::vector<int>& lengths, const Env& env)
{
    // A dynamic-graph framework rebuilds and runs the exact-length
    // graph per mini-batch; cache per distinct length.
    std::map<int, double> per_len;
    double total = 0.0;
    for (int len : lengths) {
        auto it = per_len.find(len);
        if (it == per_len.end()) {
            ModelConfig cfg = paper_config(kind, batch);
            cfg.seq_len = len;
            const BuiltModel model = build_model(kind, cfg);
            it = per_len.emplace(len, native_ns(model, env)).first;
        }
        total += it->second;
    }
    return total / static_cast<double>(lengths.size());
}

double
bucketed_astra_ns(ModelKind kind, int64_t batch,
                  const std::vector<int>& lengths,
                  const std::vector<int>& buckets, const Env& env)
{
    AstraOptions opts;
    opts.gpu = env.gpu;
    opts.sched = env.sched;
    BucketedAstra bucketed(
        buckets,
        [&](GraphBuilder& b, int length) {
            ModelConfig cfg = paper_config(kind, batch);
            cfg.seq_len = length;
            BuiltModel m = build_model(kind, cfg);
            b = std::move(*m.builder);
        },
        opts);
    bucketed.optimize();
    double total = 0.0;
    for (int len : lengths)
        total += bucketed.step_ns(len);
    return total / static_cast<double>(lengths.size());
}

}  // namespace

int
main()
{
    Env env;
    // Scaled-down PTB length buckets (graphs unroll per step; the
    // simulated run uses a 1:4 scale of the paper's 13/18/24/30/83).
    const std::vector<int> buckets = {4, 5, 7, 9, 16};
    Rng rng(2026);
    std::vector<int> lengths;
    for (int i = 0; i < 40; ++i)
        lengths.push_back(
            std::max(2, sample_ptb_length(rng) / 4));

    TextTable table(
        "Table 8: speedup of Astra+bucketing over native dynamic "
        "graphs (paper: SCRNN 1.61/1.43, subLSTM 2.47/2.13, "
        "StackedLSTM 2.44/2.22 at batch 16/32)");
    table.set_header({"Model", "Dynamic Graph", "Astra + bucketing",
                      "paper"});
    struct Row
    {
        ModelKind kind;
        int64_t batch;
        double paper;
    };
    const Row rows[] = {
        {ModelKind::Scrnn, 16, 1.61},   {ModelKind::Scrnn, 32, 1.43},
        {ModelKind::SubLstm, 16, 2.47}, {ModelKind::SubLstm, 32, 2.13},
        {ModelKind::StackedLstm, 16, 2.44},
        {ModelKind::StackedLstm, 32, 2.22},
    };
    std::vector<std::string> failed;
    std::map<std::pair<ModelKind, int64_t>, double> speedup;
    for (const Row& r : rows) {
        Env row_env = env;
        const double native =
            dynamic_native_ns(r.kind, r.batch, lengths, row_env);
        const double astra =
            bucketed_astra_ns(r.kind, r.batch, lengths, buckets,
                              row_env);
        const std::string row =
            model_name(r.kind) + "-" + std::to_string(r.batch);
        table.add_row(row, {1.0, native / astra, r.paper});
        if (!(native / astra > 1.0))
            failed.push_back(row + " must beat the dynamic graph");
        speedup[{r.kind, r.batch}] = native / astra;
        std::cerr << "  [" << row << " done]\n";
    }
    table.print();
    for (int64_t batch : {16, 32})
        if (!(speedup.at({ModelKind::SubLstm, batch}) >
              speedup.at({ModelKind::Scrnn, batch})))
            failed.push_back("subLSTM must beat SC-RNN at batch " +
                             std::to_string(batch));
    for (const std::string& f : failed)
        std::fprintf(stderr, "table8: FAILED: %s\n", f.c_str());
    return failed.empty() ? 0 : 1;
}

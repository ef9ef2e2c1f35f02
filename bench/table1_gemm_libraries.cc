/**
 * @file
 * Reproduces paper Table 1: the best GEMM library depends on the
 * problem shape. Times two LSTM-run GEMM shapes under each simulated
 * library and checks the winner inversion (OAI_1 wins the wide-N
 * forward fused GEMM; cuBLAS wins the deep-K backward GEMM; OAI_2
 * collapses on wide N). Exits 1, naming the row, when a shape's winner
 * is not the one the paper reports.
 */
#include <cstdio>

#include "bench/common.h"
#include "runtime/dispatcher.h"

using namespace astra;

namespace {

double
time_gemm(GemmLib lib, int64_t m, int64_t n, int64_t k)
{
    GraphBuilder b;
    const NodeId x = b.input({m, k});
    const NodeId w = b.param({k, n});
    const NodeId mm = b.matmul(x, w);
    SimMemory mem(graph_tensor_bytes(b.graph()) + (1 << 20));
    TensorMap tmap(b.graph(), mem);
    ExecutionPlan plan;
    PlanStep step;
    step.nodes = {mm};
    step.lib = lib;
    plan.steps = {step};
    GpuConfig cfg;
    cfg.execute_kernels = false;
    return dispatch_plan(plan, b.graph(), tmap, cfg).total_ns / 1e6;
}

}  // namespace

int
main()
{
    TextTable table(
        "Table 1: GEMM time in ms per library (paper, P100: row1 "
        "cublas 0.156 / oai_1 0.125 / oai_2 0.938; row2 cublas 0.138 "
        "/ oai_1 0.172 / oai_2 0.141)");
    table.set_header({"Size (MxKxN)", "cuBlas", "OAI_1", "OAI_2",
                      "winner"});
    struct Row
    {
        int64_t m, k, n;
        const char* expect;  ///< the paper's winner
    };
    std::vector<std::string> failed;
    for (const Row r :
         {Row{64, 1024, 4096, "oai_1"}, Row{64, 4096, 1024, "cublas"}}) {
        const double c = time_gemm(GemmLib::Cublas, r.m, r.n, r.k);
        const double o1 = time_gemm(GemmLib::Oai1, r.m, r.n, r.k);
        const double o2 = time_gemm(GemmLib::Oai2, r.m, r.n, r.k);
        std::string winner = "cublas";
        if (o1 < c && o1 <= o2)
            winner = "oai_1";
        else if (o2 < c && o2 < o1)
            winner = "oai_2";
        const std::string size = std::to_string(r.m) + "x" +
                                 std::to_string(r.k) + "x" +
                                 std::to_string(r.n);
        if (winner != r.expect)
            failed.push_back(std::string(r.expect) + " must win " + size +
                             ", " + winner + " does");
        table.add_row({size, TextTable::fmt(c, 3), TextTable::fmt(o1, 3),
                       TextTable::fmt(o2, 3), winner});
    }
    table.print();
    for (const std::string& f : failed)
        std::fprintf(stderr, "table1: FAILED: %s\n", f.c_str());
    return failed.empty() ? 0 : 1;
}

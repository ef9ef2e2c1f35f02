/**
 * @file
 * Ablation (paper §3.4 / §6.7): measured data-parallel execution.
 *
 * "The deterministic adaptation aspect of Astra can be extended to
 * explore dimensions such as ... data partitioning in multi-GPU jobs."
 * For each degree G the tuned per-device plan is *executed* on G
 * co-simulated devices with ring-allreduce chunk transfers on a comm
 * stream per device (runtime/dispatcher_dp.h), once per gradient
 * bucket capacity and flush schedule. The table reports the measured
 * serial and overlapped step times next to the closed-form ring
 * estimate — which survives only as this printed cross-check — and a
 * second table, read from the same sweep, shows the chosen bucket
 * capacity beating both fixed extremes (one bucket, per-tensor).
 *
 * `--smoke` runs a tiny stacked LSTM at degrees {1,2} for CI.
 */
#include <cstring>

#include "bench/common.h"
#include "core/data_parallel.h"

using namespace astra;
using namespace astra::bench;

namespace {

std::string
bucket_label(int64_t bucket_bytes)
{
    if (bucket_bytes == 0)
        return "per-tensor";
    return TextTable::fmt(static_cast<double>(bucket_bytes) / 1024.0, 0) +
           " KiB";
}

}  // namespace

int
main(int argc, char** argv)
{
    init_observability(&argc, argv);
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    Env env;
    AstraOptions opts;
    opts.gpu = env.gpu;
    opts.sched = env.sched;
    opts.features = features_fk();
    LinkConfig net;  // PCIe-class ring, gigabits/s

    ModelConfig cfg;
    cfg.layers = 2;
    if (smoke) {
        cfg.seq_len = 2;
        cfg.hidden = 64;
        cfg.embed_dim = 64;
        cfg.vocab = 200;
    } else {
        cfg.seq_len = 8;
        cfg.hidden = 512;
        cfg.embed_dim = 512;
        cfg.vocab = 2000;
    }
    const BatchGraphFn build = [&cfg](GraphBuilder& b, int64_t batch) {
        ModelConfig c = cfg;
        c.batch = batch;
        BuiltModel m = build_model(ModelKind::StackedLstm, c);
        b = std::move(*m.builder);
    };

    const std::vector<int> degrees =
        smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
    const int64_t global = smoke ? 16 : 128;

    TextTable table(
        "Ablation (paper §3.4): measured multi-GPU step, stacked LSTM "
        "(hidden " + std::to_string(cfg.hidden) + "), global batch " +
        std::to_string(global) + ", ring at " +
        TextTable::fmt(net.link_gbps, 0) + " Gbit/s");
    table.set_header({"G", "compute ms", "serial ms", "overlap ms",
                      "analytic AR ms", "bucket", "flush", "hidden ms",
                      "overlap<serial"});

    const auto points = measure_scaling(build, global, degrees, opts, net);
    bool overlap_ok = true;
    for (const ScalePoint& p : points) {
        const bool win =
            p.degree == 1 || p.step_ns < p.compute_ns + p.allreduce_ns;
        if (p.degree >= 2)
            overlap_ok = overlap_ok && win;
        table.add_row({std::to_string(p.degree),
                       TextTable::fmt(p.compute_ns / 1e6, 2),
                       TextTable::fmt(p.serial_ns / 1e6, 2),
                       TextTable::fmt(p.step_ns / 1e6, 2),
                       TextTable::fmt(p.allreduce_ns / 1e6, 2),
                       p.degree == 1 ? "-" : bucket_label(p.bucket_bytes),
                       p.degree == 1 ? "-" : flush_schedule_name(p.flush),
                       TextTable::fmt(p.overlap_ns / 1e6, 2),
                       p.degree == 1 ? "-" : (win ? "yes" : "NO")});
    }
    const size_t best = best_degree(points, global);
    table.print();
    std::cout << "  measured best degree: G=" << points[best].degree
              << "  (" << TextTable::fmt(
                     points[best].throughput(global) / 1e3, 1)
              << "k samples/s)\n\n";

    // ---- chosen bucket capacity vs the fixed extremes ------------------
    // The sweep measured every capacity under each flush schedule; read
    // (a) a single bucket, (b) one bucket per tensor, (c) the chosen
    // capacity back from it, all eager, to show the chosen capacity is
    // not just "between" the extremes but better than both.
    const int G = smoke ? 2 : 4;
    const ScalePoint* chosen = nullptr;
    for (const ScalePoint& p : points)
        if (p.degree == G)
            chosen = &p;
    ASTRA_ASSERT(chosen, "degree sweep must include G=", G);
    const auto eager = [&](int64_t cap) -> const DpResult& {
        for (const BucketTrial& t : chosen->sweep)
            if (t.bucket_bytes == cap && t.flush == FlushSchedule::Eager)
                return t.result;
        panic("no eager sweep point at capacity ", cap);
    };

    TextTable extremes("Gradient-bucket capacity at G=" +
                       std::to_string(G) + " (eager flush)");
    extremes.set_header({"capacity", "buckets", "step ms", "hidden ms"});
    const int64_t caps[] = {chosen->grad_bytes, 0, chosen->bucket_bytes};
    const char* labels[] = {"one bucket", "per-tensor", "(chosen)"};
    double steps[3] = {};
    for (int i = 0; i < 3; ++i) {
        const DpResult& r = eager(caps[i]);
        steps[i] = r.step_ns;
        const std::string label =
            i == 2 ? bucket_label(caps[i]) + " (chosen)"
                   : std::string(labels[i]);
        extremes.add_row({label, std::to_string(r.num_buckets),
                          TextTable::fmt(r.step_ns / 1e6, 2),
                          TextTable::fmt(r.overlap_ns / 1e6, 2)});
    }
    extremes.print();

    const bool beats_extremes = steps[2] < steps[0] && steps[2] < steps[1];
    std::cout << "  overlapped < compute+allreduce for all G>=2: "
              << (overlap_ok ? "yes" : "NO") << "\n"
              << "  chosen capacity beats both fixed extremes: "
              << (beats_extremes ? "yes" : "NO") << "\n";
    return overlap_ok && beats_extremes ? 0 : 1;
}

/**
 * @file
 * Reproduces the §4.1 predictability premise and the §7 hardware
 * requirement: at base clock, repeated mini-batches of the same
 * configuration measure identically (one measurement suffices per
 * configuration); with GPU autoboost enabled, the same kernel's
 * measurements jitter, which is why the paper pins the clock via
 * nvidia-smi. This repo's alternative is to *measure* the clock
 * instead of pinning it: the device reports its DVFS multiplier (the
 * NVML query), AstraOptions::normalize_clock scales every sample by it,
 * and rankings merge the FP-rounding residue (kTieRel) onto the lowest
 * index. Table two shows the raw-time wirer losing the base-clock
 * configuration under jitter while the normalized wirer recovers it
 * exactly, still with one measurement per trial.
 *
 * Exits 1 unless the normalized row matches the reference config and
 * spends no more mini-batches than the raw-time row.
 */
#include "bench/common.h"
#include "core/config_io.h"
#include "support/stats.h"

using namespace astra;
using namespace astra::bench;

int
main()
{
    Env env;
    const BuiltModel model = build_model(
        ModelKind::SubLstm, paper_config(ModelKind::SubLstm, 16));

    TextTable table(
        "Micro (paper §4.1/§7): mini-batch repeatability, coefficient "
        "of variation over 16 identical mini-batches (paper: base "
        "clock repeatable; autoboost breaks the predictability "
        "assumption; the NVML clock query wins it back)");
    table.set_header({"clock mode", "mean ms", "CoV %"});

    for (const int mode : {0, 1, 2}) {
        AstraOptions opts;
        opts.gpu = env.gpu;
        opts.gpu.autoboost = mode != 0;
        opts.sched = env.sched;
        AstraSession session(model.graph(), opts);
        ScheduleConfig cfg;
        cfg.group_chunk.assign(session.space().groups.size(), 1);
        cfg.group_lib.assign(session.space().groups.size(),
                             GemmLib::Cublas);
        RunningStats stats;
        for (int i = 0; i < 16; ++i) {
            const DispatchResult r = session.run(cfg);
            // Mode 2: compensate each sample by the clock the device
            // reports having run it at.
            stats.add(mode == 2 ? r.total_ns * r.clock_multiplier
                                : r.total_ns);
        }
        table.add_row(mode == 0   ? "base clock"
                      : mode == 1 ? "autoboost"
                                  : "autoboost + clock query",
                      {stats.mean() / 1e6, 100.0 * stats.cov()});
    }
    table.print();

    // Second experiment: does exploration still converge to the
    // base-clock configuration when the clock jitters underneath it?
    const BuiltModel small = build_model(
        ModelKind::SubLstm,
        {.batch = 8, .seq_len = 4, .hidden = 32, .embed_dim = 32,
         .vocab = 50});
    TextTable wirer_table(
        "Custom wirer under autoboost, one measurement per trial: raw "
        "times (the paper's regime) vs clock-normalized times "
        "(reference: normalized at base clock)");
    wirer_table.set_header({"measurement (autoboost on)", "matches ref",
                            "minibatches"});

    AstraOptions ref_opts;
    ref_opts.gpu = env.gpu;
    ref_opts.gpu.autoboost = false;
    ref_opts.gpu.execute_kernels = false;
    ref_opts.sched = env.sched;
    ref_opts.normalize_clock = true;
    AstraSession ref_session(small.graph(), ref_opts);
    const WirerResult ref = ref_session.optimize();
    const std::string want = config_to_string(ref.best_config);

    auto wire_under_autoboost = [&](bool normalize, const char* name) {
        AstraOptions opts = ref_opts;
        opts.gpu.autoboost = true;
        opts.normalize_clock = normalize;
        AstraSession session(small.graph(), opts);
        WirerResult r = session.optimize();
        wirer_table.add_row(
            {name, config_to_string(r.best_config) == want ? "yes" : "no",
             std::to_string(r.minibatches)});
        return r;
    };
    const WirerResult raw = wire_under_autoboost(false, "raw");
    const WirerResult normalized =
        wire_under_autoboost(true, "clock-normalized");
    wirer_table.print();

    const bool ok = config_to_string(normalized.best_config) == want &&
                    normalized.minibatches <= raw.minibatches;
    std::cout << "  normalized wirer matches the base-clock config with "
                 "no more mini-batches than raw: "
              << (ok ? "yes" : "NO") << "\n";
    return ok ? 0 : 1;
}

/**
 * @file
 * Reproduces the §6.4 claim: fine-grained cudaEvent profiling costs
 * < 0.5% of mini-batch time for all models, so it can be always on.
 * Measures each model's mini-batch with zero instrumentation and with
 * every fusion group profiled (the densest instrumentation the custom
 * wirer ever applies in one mini-batch). Each event now carries two
 * real costs in the simulator — a host/front-end enqueue charge per
 * cudaEventRecord call (GpuConfig::event_enqueue_ns) on top of the
 * device-side timestamp write (event_record_ns) — so the overhead
 * column reflects both, and staying under the paper's bound depends on
 * the wirer's profiling discipline (profile only unfrozen groups, stop
 * once decisions are final).
 */
#include "bench/common.h"

using namespace astra;
using namespace astra::bench;

int
main()
{
    Env env;
    TextTable table(
        "Micro (paper §6.4): always-on profiling overhead per model "
        "(paper: < 0.5% for all models)");
    table.set_header({"Model", "plain ms", "profiled ms", "overhead %"});
    const ModelKind kinds[] = {ModelKind::Scrnn, ModelKind::MiLstm,
                               ModelKind::SubLstm,
                               ModelKind::StackedLstm, ModelKind::Gnmt};
    for (ModelKind kind : kinds) {
        const BuiltModel model =
            build_model(kind, paper_config(kind, 16));
        AstraOptions opts;
        opts.gpu = env.gpu;
        opts.sched = env.sched;
        AstraSession session(model.graph(), opts);
        ScheduleConfig cfg;
        cfg.group_chunk.assign(session.space().groups.size(), 1);
        cfg.group_lib.assign(session.space().groups.size(),
                             GemmLib::Cublas);
        const double plain = session.run(cfg).total_ns;
        ScheduleConfig profiled = cfg;
        for (const FusionGroup& g : session.space().groups)
            profiled.group_keys[g.id] = ProfileKey(
                0, wirer_variable_id(WirerVariable::GroupChunk, g.id), 0);
        const double instrumented = session.run(profiled).total_ns;
        table.add_row(model.name,
                      {plain / 1e6, instrumented / 1e6,
                       100.0 * (instrumented - plain) / plain});
    }
    table.print();
    return 0;
}

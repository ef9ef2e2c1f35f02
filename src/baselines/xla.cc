#include "baselines/xla.h"

#include "core/scheduler.h"

namespace astra {

namespace {

/**
 * Host round-trip charged around each embedding op (ns). XLA's
 * fallback path for lookups blocks the stream, copies indices to the
 * host and gathers there (§6.6: "multiple transitions between CPU and
 * GPU for lookups"); a blocking sync + PCIe round trip costs hundreds
 * of microseconds, which is what made XLA up to 3x slower than native
 * TF on embedding models.
 */
constexpr double kEmbeddingHostSyncNs = 300000.0;

}  // namespace

ExecutionPlan
xla_plan(const Graph& graph, const SearchSpace& space)
{
    // Static choice: strategy 0 (greedy-by-flops layout), elementwise
    // chains fused, chunk 1 everywhere, default library everywhere —
    // no measurement anywhere.
    ScheduleConfig cfg;
    cfg.strategy = 0;
    cfg.elementwise_fusion = true;
    cfg.use_streams = false;
    cfg.group_chunk.assign(space.groups.size(), 1);
    cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);

    Scheduler scheduler(graph, space);
    ExecutionPlan plan = scheduler.build(cfg);

    // The embedding pathology: lookups bounce through the host.
    for (PlanStep& step : plan.steps) {
        if (step.nodes.size() != 1)
            continue;
        const OpKind kind = graph.node(step.nodes[0]).kind;
        if (kind == OpKind::Embedding || kind == OpKind::EmbeddingGrad)
            step.extra_setup_ns += kEmbeddingHostSyncNs;
    }
    return plan;
}

}  // namespace astra

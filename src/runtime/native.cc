#include "runtime/native.h"

#include "graph/op.h"

namespace astra {

ExecutionPlan
native_plan(const Graph& graph)
{
    ExecutionPlan plan;
    plan.num_streams = 1;
    for (const Node& n : graph.nodes()) {
        if (op_is_source(n.kind))
            continue;
        PlanStep step;
        step.kind = StepKind::Single;
        step.nodes = {n.id};
        step.stream = 0;
        plan.steps.push_back(std::move(step));
    }
    return plan;
}

}  // namespace astra

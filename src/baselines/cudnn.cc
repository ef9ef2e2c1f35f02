#include "baselines/cudnn.h"

#include "kernels/cost.h"
#include "runtime/plan_utils.h"
#include "support/logging.h"

namespace astra {

ExecutionPlan
cudnn_plan(const Graph& graph, const std::vector<RnnLayerSpec>& layers,
           const GpuConfig& cfg)
{
    std::vector<bool> covered(static_cast<size_t>(graph.size()), false);
    std::vector<PlanStep> steps;

    // A scope belongs to a prefix only up to a '/' separator: per-step
    // prefix "dec0/t1" must not claim "dec0/t10" (merged timesteps form
    // a cycle between compound steps).
    auto in_scope = [](const std::string& s, const std::string& p) {
        if (s.size() < p.size() || s.compare(0, p.size(), p) != 0)
            return false;
        return p.empty() || p.back() == '/' || s.size() == p.size() ||
               s[p.size()] == '/';
    };

    for (const RnnLayerSpec& layer : layers) {
        // Forward and backward halves of the layer each become one
        // compound launch (cudnnRNNForward / cudnnRNNBackward; the
        // backward fuses data- and weight-gradients, ~2x the flops) —
        // or one per timestep for per_step layers.
        std::vector<std::string> prefixes;
        if (layer.per_step) {
            for (int64_t t = 0; t < layer.steps; ++t)
                prefixes.push_back(layer.scope_prefix + "t" +
                                   std::to_string(t));
        } else {
            prefixes.push_back(layer.scope_prefix);
        }
        for (const Pass pass : {Pass::Forward, Pass::Backward}) {
            for (const std::string& prefix : prefixes) {
                PlanStep step;
                step.kind = StepKind::CompoundRnn;
                for (const Node& n : graph.nodes()) {
                    if (n.pass != pass || op_is_source(n.kind))
                        continue;
                    if (!in_scope(n.scope, prefix))
                        continue;
                    if (covered[static_cast<size_t>(n.id)])
                        continue;
                    covered[static_cast<size_t>(n.id)] = true;
                    step.nodes.push_back(n.id);
                }
                if (step.nodes.empty())
                    continue;
                const double flops =
                    layer.fwd_gemm_flops_per_step *
                    (pass == Pass::Forward ? 1.0 : 2.0);
                const int64_t steps_per_call =
                    layer.per_step ? 1 : layer.steps;
                step.compound_cost =
                    compound_rnn_cost(flops, steps_per_call,
                                      layer.batch, layer.hidden, cfg);
                step.compound_name =
                    "cudnn_rnn." + prefix +
                    (pass == Pass::Forward ? ".fwd" : ".bwd");
                steps.push_back(std::move(step));
            }
        }
    }

    for (const Node& n : graph.nodes()) {
        if (covered[static_cast<size_t>(n.id)] || op_is_source(n.kind))
            continue;
        PlanStep step;
        step.kind = StepKind::Single;
        step.nodes = {n.id};
        steps.push_back(std::move(step));
    }

    ExecutionPlan plan;
    plan.num_streams = 1;
    plan.steps = topo_sort_steps(std::move(steps), graph);
    return plan;
}

}  // namespace astra

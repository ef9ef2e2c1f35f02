#include "runtime/plan_utils.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

#include "support/logging.h"

namespace astra {

std::vector<PlanStep>
topo_sort_steps(std::vector<PlanStep> steps, const Graph& graph,
                std::vector<PlanStep>* unplaced)
{
    const size_t num_steps = steps.size();
    std::vector<int> covered(static_cast<size_t>(graph.size()), -1);
    for (size_t si = 0; si < num_steps; ++si)
        for (NodeId id : steps[si].nodes)
            covered[static_cast<size_t>(id)] = static_cast<int>(si);

    // Each step's distinct producer steps, sorted: step si reads
    // deps[dep_begin[si], dep_begin[si + 1]).
    std::vector<size_t> deps, dep_begin{0};
    for (size_t si = 0; si < num_steps; ++si) {
        const auto first = static_cast<std::ptrdiff_t>(deps.size());
        for (NodeId id : steps[si].nodes)
            for (NodeId in : graph.node(id).inputs) {
                const int p = covered[static_cast<size_t>(in)];
                if (p >= 0 && static_cast<size_t>(p) != si)
                    deps.push_back(static_cast<size_t>(p));
            }
        std::sort(deps.begin() + first, deps.end());
        deps.erase(std::unique(deps.begin() + first, deps.end()),
                   deps.end());
        dep_begin.push_back(deps.size());
    }
    // The reverse edges as one CSR array: step d feeds
    // consumers[consumer_begin[d], consumer_begin[d + 1]), ascending.
    std::vector<size_t> consumer_begin(num_steps + 1, 0);
    for (size_t d : deps)
        ++consumer_begin[d + 1];
    std::partial_sum(consumer_begin.begin(), consumer_begin.end(),
                     consumer_begin.begin());
    std::vector<size_t> consumers(deps.size());
    std::vector<size_t> next = consumer_begin;
    std::vector<size_t> indegree(num_steps);
    for (size_t si = 0; si < num_steps; ++si) {
        indegree[si] = dep_begin[si + 1] - dep_begin[si];
        for (size_t k = dep_begin[si]; k < dep_begin[si + 1]; ++k)
            consumers[next[deps[k]]++] = si;
    }
    // Kahn's algorithm, smallest (anchor, step) first, where the anchor
    // is the max covered node id, so the order tracks program order.
    std::vector<std::pair<NodeId, size_t>> ready;  // a min-heap
    const auto push_ready = [&](size_t si) {
        NodeId anchor = -1;
        for (NodeId id : steps[si].nodes)
            anchor = std::max(anchor, id);
        ready.emplace_back(anchor, si);
        std::push_heap(ready.begin(), ready.end(), std::greater<>());
    };
    for (size_t si = 0; si < num_steps; ++si)
        if (indegree[si] == 0)
            push_ready(si);
    std::vector<PlanStep> ordered;
    ordered.reserve(num_steps);
    while (!ready.empty()) {
        std::pop_heap(ready.begin(), ready.end(), std::greater<>());
        const size_t si = ready.back().second;
        ready.pop_back();
        ordered.push_back(std::move(steps[si]));
        for (size_t k = consumer_begin[si]; k < consumer_begin[si + 1]; ++k)
            if (--indegree[consumers[k]] == 0)
                push_ready(consumers[k]);
    }
    ASTRA_ASSERT(unplaced != nullptr || ordered.size() == num_steps,
                 "step partition induces a dependency cycle");
    // A step some cycle feeds never reached indegree 0.
    if (unplaced != nullptr)
        for (size_t si = 0; si < num_steps; ++si)
            if (indegree[si] > 0)
                unplaced->push_back(std::move(steps[si]));
    return ordered;
}

}  // namespace astra

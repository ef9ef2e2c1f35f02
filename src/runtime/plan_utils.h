/**
 * @file
 * Shared plan-manipulation helpers for plan-producing backends.
 */
#pragma once

#include <vector>

#include "runtime/plan.h"

namespace astra {

/**
 * Order steps into a valid topological order of the step DAG (edges
 * induced by the graph's dataflow between covered nodes), breaking
 * ties toward program order: smallest (max covered node id, step
 * index) first. When the step partition induces a cycle, the steps the
 * sort cannot place are left out of the result and moved, in input
 * order, into `*unplaced`; with `unplaced` null a cycle panics.
 */
std::vector<PlanStep> topo_sort_steps(std::vector<PlanStep> steps,
                                      const Graph& graph,
                                      std::vector<PlanStep>* unplaced =
                                          nullptr);

}  // namespace astra

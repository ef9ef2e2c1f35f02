/**
 * @file
 * An XLA-like static whole-graph optimizer (paper §6.6).
 *
 * XLA compiles ahead of time with heuristics and no measurement: it
 * fuses elementwise chains, never batches sibling GEMMs (the XLA of
 * the paper's era fused loop computations only, which is the gap
 * Astra_FK exploits in Table 9), always uses the default library, and
 * runs one stream. Its known robustness failure is reproduced:
 * embedding lookups fall off the fast path and incur host round-trips,
 * which is why the paper evaluates XLA on embedding-free model
 * variants.
 */
#pragma once

#include "core/search_space.h"
#include "runtime/plan.h"

namespace astra {

/**
 * Build the XLA plan for a graph. Reuses the enumerator's structural
 * mining (the heuristics operate on the same patterns) but makes every
 * choice statically: elementwise fusion, one GEMM per kernel, default
 * library, single stream.
 */
ExecutionPlan xla_plan(const Graph& graph, const SearchSpace& space);

}  // namespace astra

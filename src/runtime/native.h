/**
 * @file
 * The "native framework" baseline (PyTorch / TensorFlow in the paper):
 * one kernel per graph node, dispatched in dataflow order on a single
 * stream, using the default (cuBLAS) GEMM library everywhere.
 */
#pragma once

#include "runtime/plan.h"

namespace astra {

/** Build the native single-stream, one-kernel-per-node plan. */
ExecutionPlan native_plan(const Graph& graph);

}  // namespace astra

/**
 * @file
 * Lowers plan steps to simulated-GPU kernels: a cost shape (from the
 * kernel libraries) plus a host compute closure (real FP32 math), bound
 * to device buffers through a TensorMap.
 *
 * This is the code every dispatcher shares — native, cuDNN-path,
 * XLA-like, and Astra's custom wirer all lower through here, which is
 * what makes their outputs directly comparable (and value-checkable).
 */
#pragma once

#include <functional>

#include "runtime/plan.h"
#include "runtime/tensor_map.h"
#include "sim/kernel.h"

namespace astra {

/** Host computation for a single graph node (reference semantics). */
std::function<void()> make_node_compute(const Graph& graph, NodeId id,
                                        const TensorMap& tmap);

/** GEMM problem size of a MatMul node (post-transpose m, n, k). */
GemmShape matmul_shape(const Graph& graph, const Node& node);

/**
 * Build the device kernel for one plan step, with a GEMM step run
 * under `lib` (other kinds ignore it): a plan step passes its own
 * `lib`, and a plan skeleton's unit the library its trial stamps.
 *
 * For FusedGemm steps the covered MatMuls must share one operand and
 * agree in shape; for LadderGemm the MatMul results are accumulated in
 * node order into the ladder's final output buffer. Barrier steps have
 * no kernel and must not be passed here. Each call counts in the obs
 * counter `dispatch.descriptors_built`.
 */
KernelDesc build_step_kernel(const PlanStep& step, GemmLib lib,
                             const Graph& graph, const TensorMap& tmap,
                             const GpuConfig& cfg);

/**
 * Number of HBM passes a fused elementwise group pays: distinct
 * external inputs plus outputs still visible outside the group.
 */
int fused_elementwise_passes(const PlanStep& step, const Graph& graph);

}  // namespace astra

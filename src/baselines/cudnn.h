/**
 * @file
 * The cuDNN-style hand-optimized baseline (paper §2.4, §6.3).
 *
 * For models whose recurrent layers match a supported structure, the
 * whole layer (all timesteps) executes as one compound persistent
 * kernel per pass, like cudnnRNNForward / cudnnRNNBackward. Everything
 * outside covered layers (embeddings, loss, attention) dispatches as
 * native single kernels — exactly the paper's "GNMT is mostly covered
 * by cuDNN except the Attention module" situation.
 */
#pragma once

#include <string>
#include <vector>

#include "runtime/plan.h"
#include "sim/gpu.h"

namespace astra {

/** One recurrent layer that a compound kernel can absorb. */
struct RnnLayerSpec
{
    /**
     * All nodes whose scope starts with this prefix belong here (a
     * per-step layer appends "t<step>", matched only up to a '/').
     */
    std::string scope_prefix;

    /** GEMM flops of one forward timestep of the layer. */
    double fwd_gemm_flops_per_step = 0.0;

    int64_t steps = 0;
    int64_t batch = 0;
    int64_t hidden = 0;

    /**
     * Launch one compound per timestep instead of per layer. Real
     * attention decoders feed the context back into the recurrence, so
     * cuDNN can only be called step-by-step there; our GNMT keeps the
     * whole-layer call legal, but the baseline mirrors the production
     * per-step pattern for decoder layers.
     */
    bool per_step = false;
};

/**
 * Build the cuDNN-path plan: one CompoundRnn step per (layer, pass),
 * native singles elsewhere, single stream.
 */
ExecutionPlan cudnn_plan(const Graph& graph,
                         const std::vector<RnnLayerSpec>& layers,
                         const GpuConfig& cfg);

}  // namespace astra

#include "runtime/executor.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"
#include "support/logging.h"
#include "tensor/math.h"

namespace astra {

GemmShape
matmul_shape(const Graph& graph, const Node& node)
{
    ASTRA_ASSERT(node.is_matmul());
    const Node& a = graph.node(node.inputs[0]);
    GemmShape s;
    s.m = node.desc.shape.rows();
    s.n = node.desc.shape.cols();
    s.k = node.trans_a ? a.desc.shape.rows() : a.desc.shape.cols();
    return s;
}

namespace {

/** Extra per-element arithmetic cost of a node, for the cost model. */
double
node_flops_per_elem(OpKind kind)
{
    switch (kind) {
      case OpKind::Sigmoid:
      case OpKind::Tanh:
      case OpKind::Softmax:
      case OpKind::CrossEntropy:
      case OpKind::CrossEntropyGrad:
        return 8.0;
      case OpKind::SigmoidGrad:
      case OpKind::TanhGrad:
      case OpKind::ReluGrad:
      case OpKind::SoftmaxGrad:
        return 4.0;
      default:
        return 1.0;
    }
}

/** HBM passes (tensors read + written) of a standalone node. */
int
node_passes(const Node& node)
{
    switch (node.kind) {
      case OpKind::Add:
      case OpKind::Sub:
      case OpKind::Mul:
      case OpKind::BiasAdd:
      case OpKind::SigmoidGrad:
      case OpKind::TanhGrad:
      case OpKind::ReluGrad:
        return 3;
      case OpKind::SoftmaxGrad:
        return 4;
      case OpKind::CrossEntropyGrad:
        return 3;
      case OpKind::Softmax:
        return 3;
      default:
        return 2;
    }
}

/** Element count that the node's kernel streams over. */
int64_t
node_stream_numel(const Graph& graph, const Node& node)
{
    switch (node.kind) {
      case OpKind::SumRows:
      case OpKind::Softmax:
      case OpKind::SoftmaxGrad:
      case OpKind::CrossEntropy:
      case OpKind::CrossEntropyGrad:
        return graph.node(node.inputs[0]).desc.shape.numel();
      case OpKind::EmbeddingGrad:
        // Zero the table gradient, then scatter the output grads.
        return node.desc.shape.numel() +
               graph.node(node.inputs[0]).desc.shape.numel();
      default:
        return node.desc.shape.numel();
    }
}

/** Device cost of a standalone (non-MatMul) node. */
KernelCost
node_cost(const Graph& graph, const Node& node, const GpuConfig& cfg)
{
    return elementwise_cost(node_stream_numel(graph, node),
                            node_passes(node), cfg,
                            node_flops_per_elem(node.kind));
}

}  // namespace

std::function<void()>
make_node_compute(const Graph& graph, NodeId id, const TensorMap& tmap)
{
    const Node& n = graph.node(id);
    switch (n.kind) {
      case OpKind::Input:
      case OpKind::InputIds:
      case OpKind::Param:
        return {};  // sources carry data, not computation
      case OpKind::MatMul: {
        const GemmShape s = matmul_shape(graph, n);
        const float* a = tmap.f32(n.inputs[0]);
        const float* b = tmap.f32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const bool ta = n.trans_a, tb = n.trans_b;
        return [=] { math::gemm(a, ta, b, tb, c, s.m, s.n, s.k, false); };
      }
      case OpKind::Add: {
        const float* a = tmap.f32(n.inputs[0]);
        const float* b = tmap.f32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const int64_t numel = n.desc.shape.numel();
        return [=] { math::add(a, b, c, numel); };
      }
      case OpKind::Sub: {
        const float* a = tmap.f32(n.inputs[0]);
        const float* b = tmap.f32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const int64_t numel = n.desc.shape.numel();
        return [=] { math::sub(a, b, c, numel); };
      }
      case OpKind::Mul: {
        const float* a = tmap.f32(n.inputs[0]);
        const float* b = tmap.f32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const int64_t numel = n.desc.shape.numel();
        return [=] { math::mul(a, b, c, numel); };
      }
      case OpKind::Sigmoid: {
        const float* a = tmap.f32(n.inputs[0]);
        float* c = tmap.f32(n.id);
        const int64_t numel = n.desc.shape.numel();
        return [=] { math::sigmoid(a, c, numel); };
      }
      case OpKind::Tanh: {
        const float* a = tmap.f32(n.inputs[0]);
        float* c = tmap.f32(n.id);
        const int64_t numel = n.desc.shape.numel();
        return [=] { math::tanh(a, c, numel); };
      }
      case OpKind::Relu: {
        const float* a = tmap.f32(n.inputs[0]);
        float* c = tmap.f32(n.id);
        const int64_t numel = n.desc.shape.numel();
        return [=] { math::relu(a, c, numel); };
      }
      case OpKind::Scale: {
        const float* a = tmap.f32(n.inputs[0]);
        float* c = tmap.f32(n.id);
        const float s = n.scalar;
        const int64_t numel = n.desc.shape.numel();
        return [=] { math::scale(a, s, c, numel); };
      }
      case OpKind::OneMinus: {
        const float* a = tmap.f32(n.inputs[0]);
        float* c = tmap.f32(n.id);
        const int64_t numel = n.desc.shape.numel();
        return [=] {
            for (int64_t i = 0; i < numel; ++i)
                c[i] = 1.0f - a[i];
        };
      }
      case OpKind::BiasAdd: {
        const float* a = tmap.f32(n.inputs[0]);
        const float* bias = tmap.f32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const int64_t rows = n.desc.shape.rows();
        const int64_t cols = n.desc.shape.cols();
        return [=] {
            for (int64_t r = 0; r < rows; ++r)
                for (int64_t col = 0; col < cols; ++col)
                    c[r * cols + col] = a[r * cols + col] + bias[col];
        };
      }
      case OpKind::SumRows: {
        const Node& in = graph.node(n.inputs[0]);
        const float* a = tmap.f32(n.inputs[0]);
        float* c = tmap.f32(n.id);
        const int64_t rows = in.desc.shape.rows();
        const int64_t cols = in.desc.shape.cols();
        return [=] {
            for (int64_t col = 0; col < cols; ++col)
                c[col] = 0.0f;
            for (int64_t r = 0; r < rows; ++r)
                for (int64_t col = 0; col < cols; ++col)
                    c[col] += a[r * cols + col];
        };
      }
      case OpKind::Concat: {
        const int64_t rows = n.desc.shape.rows();
        const int64_t out_cols = n.desc.shape.cols();
        float* c = tmap.f32(n.id);
        std::vector<const float*> parts;
        std::vector<int64_t> widths;
        for (NodeId p : n.inputs) {
            parts.push_back(tmap.f32(p));
            widths.push_back(graph.node(p).desc.shape.cols());
        }
        return [=] {
            int64_t off = 0;
            for (size_t p = 0; p < parts.size(); ++p) {
                for (int64_t r = 0; r < rows; ++r)
                    std::memcpy(c + r * out_cols + off,
                                parts[p] + r * widths[p],
                                static_cast<size_t>(widths[p]) *
                                    sizeof(float));
                off += widths[p];
            }
        };
      }
      case OpKind::Slice: {
        const Node& in = graph.node(n.inputs[0]);
        const float* a = tmap.f32(n.inputs[0]);
        float* c = tmap.f32(n.id);
        const int64_t rows = n.desc.shape.rows();
        const int64_t in_cols = in.desc.shape.cols();
        const int64_t off = n.offset;
        const int64_t len = n.length;
        return [=] {
            for (int64_t r = 0; r < rows; ++r)
                std::memcpy(c + r * len, a + r * in_cols + off,
                            static_cast<size_t>(len) * sizeof(float));
        };
      }
      case OpKind::Copy: {
        const float* a = tmap.f32(n.inputs[0]);
        float* c = tmap.f32(n.id);
        const int64_t numel = n.desc.shape.numel();
        return [=] {
            std::memcpy(c, a, static_cast<size_t>(numel) * sizeof(float));
        };
      }
      case OpKind::Embedding: {
        const float* table = tmap.f32(n.inputs[0]);
        const int32_t* ids = tmap.i32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const int64_t rows = n.desc.shape.rows();
        const int64_t width = n.desc.shape.cols();
        return [=] { math::embedding(table, ids, c, rows, width); };
      }
      case OpKind::EmbeddingGrad: {
        const Node& dy_node = graph.node(n.inputs[0]);
        const float* dy = tmap.f32(n.inputs[0]);
        const int32_t* ids = tmap.i32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const int64_t rows = dy_node.desc.shape.rows();
        const int64_t width = n.desc.shape.cols();
        const int64_t table_numel = n.desc.shape.numel();
        return [=] {
            for (int64_t i = 0; i < table_numel; ++i)
                c[i] = 0.0f;
            for (int64_t r = 0; r < rows; ++r) {
                float* dst = c + static_cast<int64_t>(ids[r]) * width;
                for (int64_t i = 0; i < width; ++i)
                    dst[i] += dy[r * width + i];
            }
        };
      }
      case OpKind::Softmax: {
        const float* a = tmap.f32(n.inputs[0]);
        float* c = tmap.f32(n.id);
        const int64_t rows = n.desc.shape.rows();
        const int64_t cols = n.desc.shape.cols();
        return [=] { math::softmax_rows(a, c, rows, cols); };
      }
      case OpKind::SoftmaxGrad: {
        const float* dy = tmap.f32(n.inputs[0]);
        const float* y = tmap.f32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const int64_t rows = n.desc.shape.rows();
        const int64_t cols = n.desc.shape.cols();
        return [=] {
            for (int64_t r = 0; r < rows; ++r) {
                double dot = 0.0;
                for (int64_t i = 0; i < cols; ++i)
                    dot += static_cast<double>(dy[r * cols + i]) *
                           y[r * cols + i];
                for (int64_t i = 0; i < cols; ++i)
                    c[r * cols + i] =
                        y[r * cols + i] *
                        (dy[r * cols + i] - static_cast<float>(dot));
            }
        };
      }
      case OpKind::CrossEntropy: {
        const Node& logits = graph.node(n.inputs[0]);
        const float* a = tmap.f32(n.inputs[0]);
        const int32_t* ids = tmap.i32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const int64_t rows = logits.desc.shape.rows();
        const int64_t cols = logits.desc.shape.cols();
        return [=] {
            double total = 0.0;
            for (int64_t r = 0; r < rows; ++r) {
                const float* row = a + r * cols;
                float mx = row[0];
                for (int64_t i = 1; i < cols; ++i)
                    mx = std::max(mx, row[i]);
                double sum = 0.0;
                for (int64_t i = 0; i < cols; ++i)
                    sum += std::exp(static_cast<double>(row[i] - mx));
                total += std::log(sum) + mx - row[ids[r]];
            }
            c[0] = static_cast<float>(total / static_cast<double>(rows));
        };
      }
      case OpKind::CrossEntropyGrad: {
        const Node& logits = graph.node(n.inputs[0]);
        const float* a = tmap.f32(n.inputs[0]);
        const int32_t* ids = tmap.i32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const int64_t rows = logits.desc.shape.rows();
        const int64_t cols = logits.desc.shape.cols();
        return [=] {
            math::softmax_rows(a, c, rows, cols);
            const float inv = 1.0f / static_cast<float>(rows);
            for (int64_t r = 0; r < rows; ++r) {
                for (int64_t i = 0; i < cols; ++i)
                    c[r * cols + i] *= inv;
                c[r * cols + ids[r]] -= inv;
            }
        };
      }
      case OpKind::SigmoidGrad: {
        const float* dy = tmap.f32(n.inputs[0]);
        const float* y = tmap.f32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const int64_t numel = n.desc.shape.numel();
        return [=] {
            for (int64_t i = 0; i < numel; ++i)
                c[i] = dy[i] * y[i] * (1.0f - y[i]);
        };
      }
      case OpKind::TanhGrad: {
        const float* dy = tmap.f32(n.inputs[0]);
        const float* y = tmap.f32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const int64_t numel = n.desc.shape.numel();
        return [=] {
            for (int64_t i = 0; i < numel; ++i)
                c[i] = dy[i] * (1.0f - y[i] * y[i]);
        };
      }
      case OpKind::ReluGrad: {
        const float* dy = tmap.f32(n.inputs[0]);
        const float* y = tmap.f32(n.inputs[1]);
        float* c = tmap.f32(n.id);
        const int64_t numel = n.desc.shape.numel();
        return [=] {
            for (int64_t i = 0; i < numel; ++i)
                c[i] = y[i] > 0.0f ? dy[i] : 0.0f;
        };
      }
    }
    panic("no compute rule for ", op_name(n.kind));
}

int
fused_elementwise_passes(const PlanStep& step, const Graph& graph)
{
    std::vector<NodeId> covered = step.nodes;
    std::sort(covered.begin(), covered.end());
    const auto is_covered = [&covered](NodeId id) {
        return std::binary_search(covered.begin(), covered.end(), id);
    };
    std::vector<NodeId> external_inputs;
    int external_outputs = 0;
    for (NodeId id : step.nodes) {
        const Node& n = graph.node(id);
        for (NodeId in : n.inputs)
            if (!is_covered(in))
                external_inputs.push_back(in);
        bool escapes = false;
        for (NodeId user : graph.users(id))
            if (!is_covered(user))
                escapes = true;
        if (escapes || graph.user_count(id) == 0)
            ++external_outputs;
    }
    std::sort(external_inputs.begin(), external_inputs.end());
    const auto distinct_inputs = std::unique(external_inputs.begin(),
                                             external_inputs.end()) -
                                 external_inputs.begin();
    return static_cast<int>(distinct_inputs) + std::max(external_outputs, 1);
}

namespace {

/**
 * A descriptor's name, "<head>[.x<width>].%<id>[.<lib>]" (width 0 and
 * an empty lib are left out), in one allocation at most: the fault
 * plan's name= filter and the kernel trace read it.
 */
std::string
kernel_name(std::string_view head, size_t width, NodeId id,
            std::string_view lib)
{
    char width_buf[24];
    char id_buf[24];
    char* const width_end =
        width > 0 ? std::to_chars(width_buf, std::end(width_buf), width).ptr
                  : width_buf;
    char* const id_end = std::to_chars(id_buf, std::end(id_buf), id).ptr;
    std::string name;
    name.reserve(head.size() + (width > 0 ? 2 : 0) +
                 static_cast<size_t>(width_end - width_buf) + 2 +
                 static_cast<size_t>(id_end - id_buf) +
                 (lib.empty() ? 0 : lib.size() + 1));
    name += head;
    if (width > 0) {
        name += ".x";
        name.append(width_buf, width_end);
    }
    name += ".%";
    name.append(id_buf, id_end);
    if (!lib.empty()) {
        name += '.';
        name += lib;
    }
    return name;
}

KernelDesc
build_step_kernel_impl(const PlanStep& step, GemmLib lib, const Graph& graph,
                       const TensorMap& tmap, const GpuConfig& cfg)
{
    ASTRA_ASSERT(!step.nodes.empty() || step.kind == StepKind::Barrier);
    KernelDesc k;
    switch (step.kind) {
      case StepKind::Single: {
        const Node& n = graph.node(step.nodes[0]);
        k.name = kernel_name(op_name(n.kind), 0, n.id,
                             n.is_matmul() ? gemm_lib_name(lib) : "");
        if (n.is_matmul()) {
            const KernelCost cost = gemm_cost(lib, matmul_shape(graph, n), cfg);
            k.blocks = cost.blocks;
            k.block_ns = cost.block_ns;
            k.setup_ns = cost.setup_ns;
            k.max_sms = cost.max_sms;
        } else {
            const KernelCost cost = node_cost(graph, n, cfg);
            k.blocks = cost.blocks;
            k.block_ns = cost.block_ns;
            k.setup_ns = cost.setup_ns;
            k.max_sms = cost.max_sms;
        }
        if (cfg.execute_kernels)
            k.compute = make_node_compute(graph, n.id, tmap);
        return k;
      }
      case StepKind::FusedGemm: {
        const Node& first = graph.node(step.nodes[0]);
        const GemmShape shape = matmul_shape(graph, first);
        const KernelCost cost = fused_gemm_cost(
            lib, shape, static_cast<int64_t>(step.nodes.size()), cfg,
            step.fused_axis);
        k.blocks = cost.blocks;
        k.block_ns = cost.block_ns;
        k.setup_ns = cost.setup_ns;
        k.max_sms = cost.max_sms;
        k.name = kernel_name("fmm", step.nodes.size(), first.id,
                             gemm_lib_name(lib));
        for (NodeId id : step.nodes)
            ASTRA_ASSERT(graph.node(id).is_matmul());
        if (cfg.execute_kernels) {
            std::vector<std::function<void()>> subs;
            for (NodeId id : step.nodes)
                subs.push_back(make_node_compute(graph, id, tmap));
            k.compute = [subs = std::move(subs)] {
                for (const auto& f : subs)
                    f();
            };
        }
        return k;
      }
      case StepKind::LadderGemm: {
        // nodes = [mm_1 .. mm_N, add_1 .. add_{N-1}]; the final Add's
        // buffer receives the accumulated result. Each sub-GEMM is
        // evaluated in full before being added, preserving the exact
        // summation order of the unfused add chain.
        std::vector<NodeId> mms;
        for (NodeId id : step.nodes)
            if (graph.node(id).is_matmul())
                mms.push_back(id);
        ASTRA_ASSERT(mms.size() >= 2, "ladder needs >= 2 GEMMs");
        const Node& first = graph.node(mms[0]);
        const GemmShape shape = matmul_shape(graph, first);
        const KernelCost cost = fused_gemm_cost(
            lib, shape, static_cast<int64_t>(mms.size()), cfg,
            step.fused_axis);
        k.blocks = cost.blocks;
        k.block_ns = cost.block_ns;
        k.setup_ns = cost.setup_ns;
        k.max_sms = cost.max_sms;
        k.name = kernel_name("lmm", mms.size(), first.id, gemm_lib_name(lib));
        if (!cfg.execute_kernels)
            return k;

        float* out = tmap.f32(step.nodes.back());
        const int64_t numel = first.desc.shape.numel();
        // A non-leading chunk of a longer ladder carries in the prior
        // chunk's partial sum: the first covered Add's left input is
        // outside this step.
        const float* base = nullptr;
        for (NodeId id : step.nodes) {
            const Node& n = graph.node(id);
            if (n.kind == OpKind::Add) {
                if (std::find(step.nodes.begin(), step.nodes.end(),
                              n.inputs[0]) == step.nodes.end())
                    base = tmap.f32(n.inputs[0]);
                break;
            }
        }
        struct Sub
        {
            const float* a;
            const float* b;
            bool ta, tb;
            GemmShape s;
        };
        std::vector<Sub> subs;
        for (NodeId id : mms) {
            const Node& n = graph.node(id);
            subs.push_back({tmap.f32(n.inputs[0]), tmap.f32(n.inputs[1]),
                            n.trans_a, n.trans_b, matmul_shape(graph, n)});
        }
        k.compute = [out, numel, base, subs = std::move(subs)] {
            std::vector<float> tmp(static_cast<size_t>(numel));
            if (base != nullptr && base != out)
                std::copy(base, base + numel, out);
            for (size_t i = 0; i < subs.size(); ++i) {
                const Sub& s = subs[i];
                const bool direct = i == 0 && base == nullptr;
                float* dst = direct ? out : tmp.data();
                math::gemm(s.a, s.ta, s.b, s.tb, dst, s.s.m, s.s.n, s.s.k,
                           false);
                if (!direct)
                    math::add(out, tmp.data(), out, numel);
            }
        };
        return k;
      }
      case StepKind::FusedElementwise: {
        int64_t numel = 0;
        double flops = 0.0;
        for (NodeId id : step.nodes) {
            numel = std::max(numel, graph.node(id).desc.shape.numel());
            flops += node_flops_per_elem(graph.node(id).kind);
        }
        const KernelCost cost = elementwise_cost(
            numel, fused_elementwise_passes(step, graph), cfg, flops);
        k.blocks = cost.blocks;
        k.block_ns = cost.block_ns;
        k.setup_ns = cost.setup_ns;
        k.max_sms = cost.max_sms;
        k.name = kernel_name("few", step.nodes.size(), step.nodes[0], "");
        if (cfg.execute_kernels) {
            std::vector<std::function<void()>> subs;
            for (NodeId id : step.nodes)
                subs.push_back(make_node_compute(graph, id, tmap));
            k.compute = [subs = std::move(subs)] {
                for (const auto& f : subs)
                    f();
            };
        }
        return k;
      }
      case StepKind::CompoundRnn: {
        k.blocks = step.compound_cost.blocks;
        k.block_ns = step.compound_cost.block_ns;
        k.setup_ns = step.compound_cost.setup_ns;
        k.max_sms = step.compound_cost.max_sms;
        k.name = step.compound_name;
        if (cfg.execute_kernels) {
            std::vector<std::function<void()>> subs;
            for (NodeId id : step.nodes) {
                auto f = make_node_compute(graph, id, tmap);
                if (f)
                    subs.push_back(std::move(f));
            }
            k.compute = [subs = std::move(subs)] {
                for (const auto& f : subs)
                    f();
            };
        }
        return k;
      }
      case StepKind::Barrier:
        panic("Barrier steps have no kernel");
    }
    panic("unhandled step kind");
}

}  // namespace

KernelDesc
build_step_kernel(const PlanStep& step, GemmLib lib, const Graph& graph,
                  const TensorMap& tmap, const GpuConfig& cfg)
{
    KernelDesc k = build_step_kernel_impl(step, lib, graph, tmap, cfg);
    k.setup_ns += step.extra_setup_ns;
    if (!cfg.execute_kernels)
        k.compute = nullptr;  // timing-only sweeps skip closure work
    if (obs::enabled()) {
        static obs::Counter& built =
            obs::counter("dispatch.descriptors_built");
        built.add();
    }
    return k;
}

}  // namespace astra

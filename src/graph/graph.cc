#include "graph/graph.h"

#include <sstream>

#include "support/logging.h"

namespace astra {

NodeId
Graph::add(Node node)
{
    node.id = static_cast<NodeId>(nodes_.size());
    for (NodeId in : node.inputs) {
        ASTRA_ASSERT(in >= 0 && in < node.id,
                     "node inputs must reference earlier nodes");
        users_[static_cast<size_t>(in)].push_back(node.id);
    }
    users_.emplace_back();
    nodes_.push_back(std::move(node));
    return nodes_.back().id;
}

const Node&
Graph::node(NodeId id) const
{
    ASTRA_ASSERT(id >= 0 && id < size());
    return nodes_[static_cast<size_t>(id)];
}

Node&
Graph::node(NodeId id)
{
    ASTRA_ASSERT(id >= 0 && id < size());
    return nodes_[static_cast<size_t>(id)];
}

const std::vector<NodeId>&
Graph::users(NodeId id) const
{
    ASTRA_ASSERT(id >= 0 && id < size());
    return users_[static_cast<size_t>(id)];
}

int
Graph::user_count(NodeId id) const
{
    ASTRA_ASSERT(id >= 0 && id < size());
    return static_cast<int>(users_[static_cast<size_t>(id)].size());
}

void
Graph::mark_output(NodeId id)
{
    ASTRA_ASSERT(id >= 0 && id < size());
    outputs_.push_back(id);
}

std::vector<NodeId>
Graph::params() const
{
    std::vector<NodeId> out;
    for (const Node& n : nodes_)
        if (n.kind == OpKind::Param)
            out.push_back(n.id);
    return out;
}

std::vector<NodeId>
Graph::graph_inputs() const
{
    std::vector<NodeId> out;
    for (const Node& n : nodes_)
        if (n.kind == OpKind::Input || n.kind == OpKind::InputIds)
            out.push_back(n.id);
    return out;
}

double
matmul_flops(const Node& node, const Graph& graph)
{
    ASTRA_ASSERT(node.is_matmul());
    const Node& a = graph.node(node.inputs[0]);
    const int64_t m = node.desc.shape.rows();
    const int64_t n = node.desc.shape.cols();
    const int64_t k = node.trans_a ? a.desc.shape.rows()
                                   : a.desc.shape.cols();
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k);
}

double
Graph::total_matmul_flops() const
{
    double total = 0.0;
    for (const Node& n : nodes_)
        if (n.is_matmul())
            total += matmul_flops(n, *this);
    return total;
}

void
Graph::validate() const
{
    for (const Node& n : nodes_) {
        ASTRA_ASSERT(n.desc.shape.rank() >= 1,
                     "node ", n.id, " (", op_name(n.kind),
                     ") has no shape");
        for (NodeId in : n.inputs)
            ASTRA_ASSERT(in >= 0 && in < n.id);
    }
}

std::string
Graph::to_string() const
{
    std::ostringstream os;
    for (const Node& n : nodes_) {
        os << "%" << n.id << " = " << op_name(n.kind) << "(";
        for (size_t i = 0; i < n.inputs.size(); ++i)
            os << (i ? ", " : "") << "%" << n.inputs[i];
        os << ") : " << n.desc.shape.to_string();
        if (n.is_matmul() && (n.trans_a || n.trans_b))
            os << " [" << (n.trans_a ? "T" : "N")
               << (n.trans_b ? "T" : "N") << "]";
        if (!n.scope.empty())
            os << "  @" << n.scope;
        if (n.pass == Pass::Backward)
            os << "  <bwd>";
        os << "\n";
    }
    return os.str();
}

DependencyOracle::DependencyOracle(const Graph& graph)
    : column_(static_cast<size_t>(graph.size()), -1)
{
    size_t num_matmuls = 0;
    for (const Node& node : graph.nodes())
        if (node.is_matmul())
            column_[static_cast<size_t>(node.id)] =
                static_cast<int32_t>(num_matmuls++);
    words_per_node_ = (num_matmuls + 63) / 64;
    bits_.assign(static_cast<size_t>(graph.size()) * words_per_node_, 0);
    for (const Node& node : graph.nodes()) {
        uint64_t* row = bits_.data() +
                        static_cast<size_t>(node.id) * words_per_node_;
        for (NodeId in : node.inputs) {
            // Mark a MatMul input...
            const int32_t col = column_[static_cast<size_t>(in)];
            if (col >= 0)
                row[static_cast<size_t>(col) / 64] |=
                    1ull << (static_cast<size_t>(col) % 64);
            // ...and union in every MatMul the input consumes.
            const uint64_t* src = bits_.data() +
                                  static_cast<size_t>(in) * words_per_node_;
            for (size_t w = 0; w < words_per_node_; ++w)
                row[w] |= src[w];
        }
    }
}

bool
DependencyOracle::depends_on(NodeId descendant, NodeId ancestor) const
{
    const auto n = static_cast<NodeId>(column_.size());
    ASTRA_ASSERT(descendant >= 0 && descendant < n);
    ASTRA_ASSERT(ancestor >= 0 && ancestor < n &&
                     column_[static_cast<size_t>(ancestor)] >= 0,
                 "dependency oracle: node %", ancestor, " is not a MatMul");
    const auto col =
        static_cast<size_t>(column_[static_cast<size_t>(ancestor)]);
    const uint64_t word =
        bits_[static_cast<size_t>(descendant) * words_per_node_ + col / 64];
    return (word >> (col % 64)) & 1u;
}

}  // namespace astra

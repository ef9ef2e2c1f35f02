/**
 * @file
 * The dataflow graph (DFG) IR.
 *
 * A Graph is an append-only list of nodes; because nodes can only
 * reference earlier nodes, node-id order is already a topological order.
 * Graphs are pure data: execution, differentiation and optimization all
 * live in other modules.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/op.h"
#include "tensor/tensor.h"

namespace astra {

/** Index of a node within its graph. */
using NodeId = int32_t;

/** Sentinel for "no node". */
constexpr NodeId kInvalidNode = -1;

/** Which training pass a node belongs to (provenance for the enumerator). */
enum class Pass
{
    Forward,
    Backward,
};

/** One operator instance in the DFG. */
struct Node
{
    NodeId id = kInvalidNode;
    OpKind kind = OpKind::Input;
    std::vector<NodeId> inputs;
    TensorDesc desc;                 ///< description of the node's output

    // Operator attributes.
    bool trans_a = false;            ///< MatMul: transpose first operand
    bool trans_b = false;            ///< MatMul: transpose second operand
    float scalar = 0.0f;             ///< Scale factor
    int64_t offset = 0;              ///< Slice start (last dim)
    int64_t length = 0;              ///< Slice length (last dim)

    std::string name;                ///< debug label
    std::string scope;               ///< provenance, e.g. "layer1/t3"
    Pass pass = Pass::Forward;

    /** True when this node performs a matrix multiplication. */
    bool is_matmul() const { return kind == OpKind::MatMul; }
};

/** An immutable-once-built dataflow graph. */
class Graph
{
  public:
    /** Append a node; fills in its id and returns it. */
    NodeId add(Node node);

    const Node& node(NodeId id) const;
    Node& node(NodeId id);

    /** Number of nodes. */
    int size() const { return static_cast<int>(nodes_.size()); }

    const std::vector<Node>& nodes() const { return nodes_; }

    /**
     * Ids of nodes that consume the given node's output. The reference
     * is valid until the next add().
     */
    const std::vector<NodeId>& users(NodeId id) const;

    /** Number of consumers of the given node's output. */
    int user_count(NodeId id) const;

    /** Mark a node as a graph output (kept live to the end of the step). */
    void mark_output(NodeId id);
    const std::vector<NodeId>& outputs() const { return outputs_; }

    /** All Param nodes, in creation order. */
    std::vector<NodeId> params() const;

    /** All Input/InputIds nodes, in creation order. */
    std::vector<NodeId> graph_inputs() const;

    /** Sum of multiply-add flops over all MatMul nodes (static estimate). */
    double total_matmul_flops() const;

    /** Check internal consistency (input ids valid and older, shapes set). */
    void validate() const;

    /** Multi-line dump for debugging. */
    std::string to_string() const;

  private:
    std::vector<Node> nodes_;
    std::vector<NodeId> outputs_;
    // users_[i] built lazily alongside adds.
    std::vector<std::vector<NodeId>> users_;
};

/**
 * Answers "does b depend on MatMul a?" in O(1) after one pass over the
 * graph. Each node keeps a bitset over the graph's MatMuls: the ones it
 * transitively consumes. That is N x M bits for M MatMuls among N
 * nodes, not N x N, and is all the oracle's one client needs: the
 * enumerator checks that sibling GEMMs are mutually independent.
 */
class DependencyOracle
{
  public:
    explicit DependencyOracle(const Graph& graph);

    /**
     * True when `descendant` transitively consumes `ancestor`, which
     * must be a MatMul (panics otherwise).
     */
    bool depends_on(NodeId descendant, NodeId ancestor) const;

    /**
     * True when MatMuls a and b are independent (neither reaches the
     * other).
     */
    bool
    independent(NodeId a, NodeId b) const
    {
        return a != b && !depends_on(a, b) && !depends_on(b, a);
    }

  private:
    /** Per node, its MatMul's bit in the bitsets; -1 for other ops. */
    std::vector<int32_t> column_;
    size_t words_per_node_ = 0;
    std::vector<uint64_t> bits_;   // MatMul-ancestor bitsets, row per node
};

/** Flops of one MatMul node (2*M*N*K). */
double matmul_flops(const Node& node, const Graph& graph);

}  // namespace astra

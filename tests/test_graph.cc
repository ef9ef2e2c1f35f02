/**
 * @file
 * Tests for the dataflow-graph IR: builder shape inference, provenance
 * scopes, users/dependency queries, validation, printing.
 */
#include <gtest/gtest.h>

#include "graph/builder.h"

namespace astra {
namespace {

TEST(Builder, MatMulShapeInference)
{
    GraphBuilder b;
    const NodeId x = b.input({4, 8});
    const NodeId w = b.param({8, 16});
    const NodeId y = b.matmul(x, w);
    EXPECT_EQ(b.graph().node(y).desc.shape, (Shape{4, 16}));
}

TEST(Builder, MatMulTransposeShapes)
{
    GraphBuilder b;
    const NodeId a = b.input({8, 4});   // A^T is 4x8
    const NodeId w = b.param({16, 8});  // B^T is 8x16
    const NodeId y = b.matmul(a, w, true, true);
    EXPECT_EQ(b.graph().node(y).desc.shape, (Shape{4, 16}));
}

TEST(Builder, ElementwiseAndActivations)
{
    GraphBuilder b;
    const NodeId x = b.input({2, 3});
    const NodeId y = b.input({2, 3});
    EXPECT_EQ(b.graph().node(b.add(x, y)).desc.shape, (Shape{2, 3}));
    EXPECT_EQ(b.graph().node(b.mul(x, y)).kind, OpKind::Mul);
    EXPECT_EQ(b.graph().node(b.sigmoid(x)).kind, OpKind::Sigmoid);
    EXPECT_EQ(b.graph().node(b.one_minus(x)).kind, OpKind::OneMinus);
    const NodeId s = b.scale(x, 2.5f);
    EXPECT_FLOAT_EQ(b.graph().node(s).scalar, 2.5f);
}

TEST(Builder, BiasAddSumRows)
{
    GraphBuilder b;
    const NodeId x = b.input({4, 6});
    const NodeId bias = b.param({6});
    EXPECT_EQ(b.graph().node(b.bias_add(x, bias)).desc.shape,
              (Shape{4, 6}));
    EXPECT_EQ(b.graph().node(b.sum_rows(x)).desc.shape, (Shape{6}));
}

TEST(Builder, ConcatSlice)
{
    GraphBuilder b;
    const NodeId x = b.input({2, 3});
    const NodeId y = b.input({2, 5});
    const NodeId c = b.concat({x, y});
    EXPECT_EQ(b.graph().node(c).desc.shape, (Shape{2, 8}));
    const NodeId s = b.slice(c, 3, 5);
    EXPECT_EQ(b.graph().node(s).desc.shape, (Shape{2, 5}));
    EXPECT_EQ(b.graph().node(s).offset, 3);
}

TEST(Builder, EmbeddingAndLoss)
{
    GraphBuilder b;
    const NodeId table = b.param({100, 16});
    const NodeId ids = b.input_ids(8, 100);
    const NodeId e = b.embedding(table, ids);
    EXPECT_EQ(b.graph().node(e).desc.shape, (Shape{8, 16}));
    const NodeId w = b.param({16, 100});
    const NodeId logits = b.matmul(e, w);
    const NodeId labels = b.input_ids(8, 100);
    const NodeId loss = b.cross_entropy(logits, labels);
    EXPECT_EQ(b.graph().node(loss).desc.shape, (Shape{1}));
}

TEST(Builder, ScopeStack)
{
    GraphBuilder b;
    NodeId inner;
    {
        GraphBuilder::Scoped l0(b, "layer0");
        {
            GraphBuilder::Scoped t0(b, "t0");
            inner = b.input({1, 1});
        }
    }
    EXPECT_EQ(b.graph().node(inner).scope, "layer0/t0");
    const NodeId outer = b.input({1, 1});
    EXPECT_EQ(b.graph().node(outer).scope, "");
}

TEST(Graph, UsersAndCounts)
{
    GraphBuilder b;
    const NodeId x = b.input({2, 2});
    const NodeId y = b.input({2, 2});
    const NodeId s = b.add(x, y);
    const NodeId t = b.mul(x, s);
    const auto& users = b.graph().users(x);
    EXPECT_EQ(users.size(), 2u);
    EXPECT_EQ(b.graph().user_count(s), 1);
    EXPECT_EQ(b.graph().user_count(t), 0);
}

TEST(Graph, ParamsAndInputs)
{
    GraphBuilder b;
    b.input({1, 1});
    b.param({1, 1});
    b.input_ids(4, 10);
    b.param({2, 2});
    EXPECT_EQ(b.graph().params().size(), 2u);
    EXPECT_EQ(b.graph().graph_inputs().size(), 2u);
}

TEST(Graph, TotalMatmulFlops)
{
    GraphBuilder b;
    const NodeId x = b.input({2, 4});
    const NodeId w = b.param({4, 8});
    b.matmul(x, w);  // 2*2*8*4 = 128 flops
    EXPECT_DOUBLE_EQ(b.graph().total_matmul_flops(), 128.0);
}

TEST(Graph, ToStringDump)
{
    GraphBuilder b;
    const NodeId x = b.input({2, 4});
    const NodeId w = b.param({4, 8});
    b.matmul(x, w);
    const std::string dump = b.graph().to_string();
    EXPECT_NE(dump.find("mm(%0, %1)"), std::string::npos);
    EXPECT_NE(dump.find("[2, 8]"), std::string::npos);
}

TEST(DependencyOracle, TransitiveReachability)
{
    // The oracle indexes MatMul ancestors only, but reachability still
    // runs through the ops between them.
    GraphBuilder b;
    const NodeId x = b.input({2, 2});
    const NodeId w = b.param({2, 2});
    const NodeId a = b.matmul(x, w);
    const NodeId c = b.sigmoid(a);
    const NodeId d = b.matmul(c, w);
    const NodeId e = b.matmul(x, w);
    const DependencyOracle oracle(b.graph());
    EXPECT_TRUE(oracle.depends_on(d, a));   // via c
    EXPECT_TRUE(oracle.depends_on(c, a));
    EXPECT_FALSE(oracle.depends_on(a, d));
    EXPECT_FALSE(oracle.depends_on(e, a));
    EXPECT_TRUE(oracle.independent(d, e));
    EXPECT_FALSE(oracle.independent(d, a));
    EXPECT_FALSE(oracle.independent(d, d));
    // A query about any other ancestor is a caller bug.
    EXPECT_DEATH(oracle.depends_on(d, c), "is not a MatMul");
    EXPECT_DEATH(oracle.depends_on(d, x), "is not a MatMul");
}

TEST(DependencyOracle, SiblingsIndependent)
{
    GraphBuilder b;
    const NodeId x = b.input({2, 4});
    const NodeId w1 = b.param({4, 4});
    const NodeId w2 = b.param({4, 4});
    const NodeId m1 = b.matmul(x, w1);
    const NodeId m2 = b.matmul(x, w2);
    const DependencyOracle oracle(b.graph());
    EXPECT_TRUE(oracle.independent(m1, m2));
}

TEST(Graph, MarkOutputs)
{
    GraphBuilder b;
    const NodeId x = b.input({1, 1});
    const NodeId y = b.sigmoid(x);
    b.graph().mark_output(y);
    ASSERT_EQ(b.graph().outputs().size(), 1u);
    EXPECT_EQ(b.graph().outputs()[0], y);
}

TEST(Op, Predicates)
{
    EXPECT_TRUE(op_is_elementwise(OpKind::Add));
    EXPECT_TRUE(op_is_elementwise(OpKind::SigmoidGrad));
    EXPECT_FALSE(op_is_elementwise(OpKind::MatMul));
    EXPECT_FALSE(op_is_elementwise(OpKind::Softmax));
    EXPECT_TRUE(op_is_grad(OpKind::TanhGrad));
    EXPECT_FALSE(op_is_grad(OpKind::Tanh));
    EXPECT_TRUE(op_is_source(OpKind::Param));
    EXPECT_FALSE(op_is_source(OpKind::Copy));
}

}  // namespace
}  // namespace astra

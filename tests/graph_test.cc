#include "graph/graph.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/random.h"
#include "graph/graph_io.h"
#include "tests/test_util.h"

namespace cod {
namespace {

TEST(GraphBuilderTest, EmptyGraph) {
  const Graph g = GraphBuilder(0).Build();
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphBuilderTest, BuildsSimpleGraph) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(GraphBuilderTest, GrowsNodeCountFromEdges) {
  GraphBuilder b;
  b.AddEdge(5, 9);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumNodes(), 10u);
  EXPECT_EQ(g.Degree(9), 1u);
  EXPECT_EQ(g.Degree(0), 0u);
}

TEST(GraphBuilderTest, DropsSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(1, 1);
  b.AddEdge(0, 2);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphBuilderTest, MergesParallelEdgesSummingWeights) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 0, 2.5);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasWeights());
  EXPECT_DOUBLE_EQ(g.Weight(0), 3.5);
}

TEST(GraphBuilderTest, UnitWeightsStayImplicit) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const Graph g = std::move(b).Build();
  EXPECT_FALSE(g.HasWeights());
  EXPECT_DOUBLE_EQ(g.Weight(0), 1.0);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 2.0);
}

TEST(GraphTest, EndpointsAreCanonical) {
  GraphBuilder b(3);
  b.AddEdge(2, 0);
  const Graph g = std::move(b).Build();
  const auto [lo, hi] = g.Endpoints(0);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 2u);
}

TEST(GraphTest, NeighborsSortedAndShareEdgeIds) {
  const Graph g = testing::MakeClique(4);
  for (NodeId v = 0; v < 4; ++v) {
    const auto ns = g.Neighbors(v);
    ASSERT_EQ(ns.size(), 3u);
    for (size_t i = 1; i < ns.size(); ++i) EXPECT_LT(ns[i - 1].to, ns[i].to);
    for (const AdjEntry& a : ns) {
      const auto [lo, hi] = g.Endpoints(a.edge);
      EXPECT_TRUE((lo == v && hi == a.to) || (lo == a.to && hi == v));
    }
  }
}

TEST(GraphTest, FindEdge) {
  const Graph g = testing::MakePath(5);
  EXPECT_NE(g.FindEdge(0, 1), kInvalidEdge);
  EXPECT_NE(g.FindEdge(1, 0), kInvalidEdge);
  EXPECT_EQ(g.FindEdge(0, 2), kInvalidEdge);
  EXPECT_EQ(g.FindEdge(0, 0), kInvalidEdge);
}

TEST(InducedSubgraphTest, KeepsInternalEdgesOnly) {
  const Graph g = testing::MakeTwoCliquesWithBridge(3);  // nodes 0..5
  const std::vector<NodeId> nodes = {0, 1, 2, 3};
  const InducedSubgraph sub = BuildInducedSubgraph(g, nodes);
  EXPECT_EQ(sub.graph.NumNodes(), 4u);
  // Clique {0,1,2} has 3 edges; bridge (2,3) included; clique edges of
  // {3,4,5} excluded.
  EXPECT_EQ(sub.graph.NumEdges(), 4u);
  EXPECT_EQ(sub.to_parent.size(), 4u);
}

TEST(InducedSubgraphTest, PreservesWeights) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 2.0);
  b.AddEdge(1, 2, 3.0);
  const Graph g = std::move(b).Build();
  const std::vector<NodeId> nodes = {1, 2};
  const InducedSubgraph sub = BuildInducedSubgraph(g, nodes);
  ASSERT_EQ(sub.graph.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(sub.graph.Weight(0), 3.0);
}

TEST(InducedSubgraphTest, IsolatedNodesKept) {
  const Graph g = testing::MakePath(5);
  const std::vector<NodeId> nodes = {0, 4};
  const InducedSubgraph sub = BuildInducedSubgraph(g, nodes);
  EXPECT_EQ(sub.graph.NumNodes(), 2u);
  EXPECT_EQ(sub.graph.NumEdges(), 0u);
}

TEST(InducedSubgraphTest, LocalIdsFollowInputOrder) {
  const Graph g = testing::MakePath(4);
  const std::vector<NodeId> nodes = {3, 1, 2};
  const InducedSubgraph sub = BuildInducedSubgraph(g, nodes);
  EXPECT_EQ(sub.to_parent[0], 3u);
  EXPECT_EQ(sub.to_parent[1], 1u);
  EXPECT_EQ(sub.to_parent[2], 2u);
  // Edges (1,2) and (2,3) survive as local (1,2) and (0,2).
  EXPECT_EQ(sub.graph.NumEdges(), 2u);
  EXPECT_NE(sub.graph.FindEdge(1, 2), kInvalidEdge);
  EXPECT_NE(sub.graph.FindEdge(0, 2), kInvalidEdge);
}

// ---- GraphBuilder's sorted fast path: strictly increasing input is kept
// as it comes, everything else is sorted and merged; both give one graph.

struct WeightedEdge {
  NodeId u;
  NodeId v;
  double w;
};

// A random simple graph as strictly increasing canonical edges.
std::vector<WeightedEdge> RandomCanonicalEdges(size_t n, size_t m,
                                               bool unit_weights,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < m) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    pairs.emplace_back(u, v);
    if (pairs.size() == m) {
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    }
  }
  std::vector<WeightedEdge> edges;
  for (const auto& [u, v] : pairs) {
    edges.push_back({u, v, unit_weights ? 1.0 : 0.5 * (1 + rng.UniformInt(6))});
  }
  return edges;
}

Graph BuildFrom(size_t n, const std::vector<WeightedEdge>& edges) {
  GraphBuilder b(n);
  for (const WeightedEdge& e : edges) b.AddEdge(e.u, e.v, e.w);
  return std::move(b).Build();
}

void ExpectIdentical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.HasWeights(), b.HasWeights());
  for (EdgeId e = 0; e < a.NumEdges(); ++e) {
    ASSERT_EQ(a.Endpoints(e), b.Endpoints(e));
    ASSERT_EQ(a.Weight(e), b.Weight(e));
  }
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    const auto na = a.Neighbors(v);
    const auto nb = b.Neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i].to, nb[i].to);
      ASSERT_EQ(na[i].edge, nb[i].edge);
    }
  }
}

TEST(GraphBuilderTest, SortedShuffledAndDuplicatedInputBuildOneGraph) {
  constexpr size_t kNodes = 300;
  const std::vector<WeightedEdge> sorted =
      RandomCanonicalEdges(kNodes, 1200, /*unit_weights=*/false, 5);
  const Graph want = BuildFrom(kNodes, sorted);
  EXPECT_TRUE(want.HasWeights());
  ASSERT_EQ(want.NumEdges(), sorted.size());
  for (EdgeId e = 0; e < want.NumEdges(); ++e) {
    EXPECT_EQ(want.Endpoints(e), std::make_pair(sorted[e].u, sorted[e].v));
    EXPECT_EQ(want.Weight(e), sorted[e].w);
  }

  // The same edges shuffled, some given as (max, min).
  std::vector<WeightedEdge> shuffled = sorted;
  Rng rng(6);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.UniformInt(i)]);
  }
  for (WeightedEdge& e : shuffled) {
    if (rng.UniformInt(2) == 0) std::swap(e.u, e.v);
  }
  ExpectIdentical(BuildFrom(kNodes, shuffled), want);

  // Every third edge split into two adjacent halves that sum back exactly.
  std::vector<WeightedEdge> duplicated;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i % 3 == 0) {
      duplicated.push_back({sorted[i].u, sorted[i].v, sorted[i].w / 2});
      duplicated.push_back({sorted[i].v, sorted[i].u, sorted[i].w / 2});
    } else {
      duplicated.push_back(sorted[i]);
    }
  }
  ExpectIdentical(BuildFrom(kNodes, duplicated), want);
}

TEST(GraphBuilderTest, UnitWeightRuleHoldsOnBothPaths) {
  constexpr size_t kNodes = 100;
  const std::vector<WeightedEdge> sorted =
      RandomCanonicalEdges(kNodes, 300, /*unit_weights=*/true, 7);
  const Graph fast = BuildFrom(kNodes, sorted);
  EXPECT_FALSE(fast.HasWeights());
  std::vector<WeightedEdge> reversed(sorted.rbegin(), sorted.rend());
  const Graph slow = BuildFrom(kNodes, reversed);
  EXPECT_FALSE(slow.HasWeights());
  ExpectIdentical(fast, slow);

  // A merged parallel edge marks the graph weighted on the sorting path,
  // even when every merged weight is 1.0 ...
  std::vector<WeightedEdge> doubled = sorted;
  doubled.insert(doubled.begin() + 1, sorted[0]);
  const Graph merged = BuildFrom(kNodes, doubled);
  EXPECT_TRUE(merged.HasWeights());
  EXPECT_EQ(merged.Weight(0), 2.0);
  EXPECT_EQ(merged.Weight(1), 1.0);

  // ... while one non-unit weight marks it weighted on the fast path.
  std::vector<WeightedEdge> one_heavy = sorted;
  one_heavy.back().w = 1.5;
  const Graph heavy = BuildFrom(kNodes, one_heavy);
  EXPECT_TRUE(heavy.HasWeights());
  EXPECT_EQ(heavy.Weight(static_cast<EdgeId>(sorted.size() - 1)), 1.5);
  EXPECT_EQ(heavy.Weight(0), 1.0);
}

TEST(GraphBuilderTest, SerializeRoundTripIsIdentical) {
  constexpr size_t kNodes = 250;
  for (const bool unit : {true, false}) {
    SCOPED_TRACE(unit ? "unit weights" : "weighted");
    std::vector<WeightedEdge> edges =
        RandomCanonicalEdges(kNodes, 900, unit, unit ? 8 : 9);
    std::reverse(edges.begin(), edges.end());  // built via the sort
    const Graph g = BuildFrom(kNodes, edges);
    BinaryBufferWriter out;
    SerializeGraph(g, out);
    const std::string bytes = out.TakeBytes();
    BinarySpanReader in(bytes);
    Result<Graph> back = DeserializeGraph(in);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectIdentical(*back, g);
    BinaryBufferWriter again;
    SerializeGraph(*back, again);
    EXPECT_EQ(again.TakeBytes(), bytes);
  }
}

}  // namespace
}  // namespace cod

#include "hierarchy/lca.h"

#include <string>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/random.h"
#include "graph/generators.h"
#include "hierarchy/agglomerative.h"
#include "hierarchy/dendrogram_io.h"
#include "tests/test_util.h"

namespace cod {
namespace {

// Reference implementation: walk parents upward, deeper side first.
CommunityId NaiveLca(const Dendrogram& d, CommunityId a, CommunityId b) {
  while (d.Depth(a) > d.Depth(b)) a = d.Parent(a);
  while (d.Depth(b) > d.Depth(a)) b = d.Parent(b);
  while (a != b) {
    a = d.Parent(a);
    b = d.Parent(b);
  }
  return a;
}

// Every vertex pair through Lca and every node pair through LcaOfNodes, in
// both argument orders, against NaiveLca.
void ExpectAllPairsMatchNaive(const Dendrogram& d) {
  const LcaIndex lca(d);
  size_t mismatches = 0;
  std::string first;
  for (CommunityId a = 0; a < d.NumVertices(); ++a) {
    for (CommunityId b = a; b < d.NumVertices(); ++b) {
      const CommunityId want = NaiveLca(d, a, b);
      bool ok = lca.Lca(a, b) == want && lca.Lca(b, a) == want;
      if (d.IsLeaf(b)) {
        ok = ok && lca.LcaOfNodes(d.LeafNode(a), d.LeafNode(b)) == want &&
             lca.LcaOfNodes(d.LeafNode(b), d.LeafNode(a)) == want;
      }
      if (!ok && mismatches++ == 0) {
        first = "a=" + std::to_string(a) + " b=" + std::to_string(b);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first;
}

TEST(LcaTest, PaperExample) {
  // Example 2: lca(v0, v6) = C3.
  const auto ex = testing::MakePaperExample();
  const LcaIndex lca(ex.dendrogram);
  EXPECT_EQ(lca.LcaOfNodes(0, 6), ex.c3);
  EXPECT_EQ(lca.LcaOfNodes(0, 1), ex.c0);
  EXPECT_EQ(lca.LcaOfNodes(0, 4), ex.c4);
  EXPECT_EQ(lca.LcaOfNodes(0, 9), ex.c6);
  EXPECT_EQ(lca.LcaOfNodes(8, 9), ex.c5);
  ExpectAllPairsMatchNaive(ex.dendrogram);
}

TEST(LcaTest, SelfLcaIsSelf) {
  const auto ex = testing::MakePaperExample();
  const LcaIndex lca(ex.dendrogram);
  for (CommunityId c = 0; c < ex.dendrogram.NumVertices(); ++c) {
    EXPECT_EQ(lca.Lca(c, c), c);
  }
}

TEST(LcaTest, AncestorLcaIsAncestor) {
  const auto ex = testing::MakePaperExample();
  const LcaIndex lca(ex.dendrogram);
  EXPECT_EQ(lca.Lca(ex.c0, ex.c3), ex.c3);
  EXPECT_EQ(lca.Lca(ex.c3, ex.c6), ex.c6);
}

TEST(LcaTest, OneAndTwoLeaves) {
  const Dendrogram one = DendrogramBuilder(1).Build();
  const LcaIndex lca_one(one);
  EXPECT_EQ(lca_one.Lca(0, 0), 0u);
  EXPECT_EQ(lca_one.LcaOfNodes(0, 0), 0u);

  DendrogramBuilder builder(2);
  const CommunityId root = builder.Merge(1, 0);  // leaf order 1, 0
  const Dendrogram two = std::move(builder).Build();
  const LcaIndex lca_two(two);
  EXPECT_EQ(lca_two.LcaOfNodes(0, 1), root);
  EXPECT_EQ(lca_two.LcaOfNodes(1, 1), 1u);
  ExpectAllPairsMatchNaive(one);
  ExpectAllPairsMatchNaive(two);
}

TEST(LcaTest, EmptyHierarchy) {
  // An empty shard clusters an empty graph: no vertices, no root, an LCA
  // index with nothing to answer, and a codec round trip.
  const Dendrogram none = AgglomerativeCluster(GraphBuilder(0).Build());
  EXPECT_EQ(none.NumLeaves(), 0u);
  EXPECT_EQ(none.NumVertices(), 0u);
  EXPECT_EQ(none.Root(), kInvalidCommunity);
  const LcaIndex lca(none);
  BinaryBufferWriter out;
  SerializeDendrogram(none, out);
  BinarySpanReader in(out.bytes(), "empty dendrogram");
  Result<Dendrogram> back = DeserializeDendrogram(in);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->NumVertices(), 0u);
}

TEST(LcaTest, FlatRootOverComponents) {
  const testing::World w = testing::MakeMultiComponentWorld(7);
  const Dendrogram d = AgglomerativeCluster(w.graph);
  ASSERT_GT(d.Children(d.Root()).size(), 2u);  // one child per component
  ExpectAllPairsMatchNaive(d);
}

TEST(LcaTest, FlatRootOverThousandsOfIsolatedLeaves) {
  // One 1,000-node component plus 2,000 isolated nodes: the first part of a
  // three-part world keeps its edges, the other two parts lose theirs.
  const testing::World w = testing::MakeMultiComponentWorld(8, 1000);
  GraphBuilder b(w.graph.NumNodes());
  for (EdgeId e = 0; e < w.graph.NumEdges(); ++e) {
    const auto [u, v] = w.graph.Endpoints(e);
    if (v < 1000) b.AddEdge(u, v, w.graph.Weight(e));
  }
  const Dendrogram d = AgglomerativeCluster(std::move(b).Build());
  // The component's root plus the 2,000 isolated leaves.
  ASSERT_GE(d.Children(d.Root()).size(), 2001u);
  ExpectAllPairsMatchNaive(d);
}

TEST(LcaTest, SnapshotCodecRoundTrip) {
  Rng rng(9);
  const Graph g = EnsureConnected(ErdosRenyi(120, 300, rng), rng);
  BinaryBufferWriter out;
  SerializeDendrogram(AgglomerativeCluster(g), out);
  BinarySpanReader in(out.bytes(), "dendrogram");
  Result<Dendrogram> d = DeserializeDendrogram(in);
  ASSERT_TRUE(d.ok()) << d.status().message();
  ExpectAllPairsMatchNaive(*d);
}

class LcaRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LcaRandomTest, MatchesNaiveOnRandomDendrograms) {
  Rng rng(GetParam());
  const size_t n = 30 + rng.UniformInt(170);
  const Graph g = EnsureConnected(ErdosRenyi(n, 3 * n, rng), rng);
  ExpectAllPairsMatchNaive(AgglomerativeCluster(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LcaRandomTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace cod

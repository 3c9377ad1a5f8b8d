#include "hierarchy/agglomerative.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/random.h"
#include "eval/datasets.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace cod {
namespace {

// Checks the structural invariants every clustering must satisfy.
void ExpectValidDendrogram(const Dendrogram& d, size_t n) {
  EXPECT_EQ(d.NumLeaves(), n);
  EXPECT_EQ(d.LeafCount(d.Root()), n);
  for (CommunityId c = 0; c < d.NumVertices(); ++c) {
    if (c == d.Root()) {
      EXPECT_EQ(d.Parent(c), kInvalidCommunity);
    } else {
      const CommunityId p = d.Parent(c);
      ASSERT_NE(p, kInvalidCommunity);
      EXPECT_TRUE(d.IsAncestorOrSelf(p, c));
      EXPECT_EQ(d.Depth(c), d.Depth(p) + 1);
    }
  }
}

TEST(AgglomerativeTest, SingleNode) {
  GraphBuilder b(1);
  const Graph g = std::move(b).Build();
  const Dendrogram d = AgglomerativeCluster(g);
  EXPECT_EQ(d.NumLeaves(), 1u);
}

TEST(AgglomerativeTest, TwoNodes) {
  const Graph g = testing::MakePath(2);
  const Dendrogram d = AgglomerativeCluster(g);
  ExpectValidDendrogram(d, 2);
  EXPECT_EQ(d.NumVertices(), 3u);
}

TEST(AgglomerativeTest, CliquesMergeBeforeBridge) {
  // Average linkage merges the dense cliques fully before crossing the
  // bridge: the top split must separate {0..3} from {4..7}.
  const Graph g = testing::MakeTwoCliquesWithBridge(4);
  const Dendrogram d = AgglomerativeCluster(g);
  ExpectValidDendrogram(d, 8);
  const auto kids = d.Children(d.Root());
  ASSERT_EQ(kids.size(), 2u);
  std::vector<NodeId> side_a(d.Members(kids[0]).begin(),
                             d.Members(kids[0]).end());
  std::sort(side_a.begin(), side_a.end());
  const std::vector<NodeId> left{0, 1, 2, 3};
  const std::vector<NodeId> right{4, 5, 6, 7};
  EXPECT_TRUE(side_a == left || side_a == right);
}

TEST(AgglomerativeTest, BinaryForConnectedGraph) {
  const Graph g = testing::MakeClique(6);
  const Dendrogram d = AgglomerativeCluster(g);
  EXPECT_EQ(d.NumVertices(), 11u);  // 2n-1 for a binary tree
  for (CommunityId c = 0; c < d.NumVertices(); ++c) {
    if (!d.IsLeaf(c)) {
      EXPECT_EQ(d.Children(c).size(), 2u);
    }
  }
}

TEST(AgglomerativeTest, DisconnectedComponentsJoinedAtRoot) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  const Graph g = std::move(b).Build();
  const Dendrogram d = AgglomerativeCluster(g);
  ExpectValidDendrogram(d, 6);
  // Root joins the two component roots.
  EXPECT_EQ(d.Children(d.Root()).size(), 2u);
}

TEST(AgglomerativeTest, WeightsSteerMerges) {
  // Triangle-free path 0-1-2 with a heavy (1,2) edge: first merge is {1,2}.
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 10.0);
  const Graph g = std::move(b).Build();
  const Dendrogram d = AgglomerativeCluster(g);
  const CommunityId first = 3;  // first internal vertex created
  std::vector<NodeId> members(d.Members(first).begin(),
                              d.Members(first).end());
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<NodeId>{1, 2}));
}

TEST(AgglomerativeTest, SingleLinkageFollowsHeaviestEdges) {
  // Path 0-1-2-3 with weights 5, 1, 5: single linkage merges (0,1) and
  // (2,3) first regardless of cluster sizes.
  GraphBuilder b(4);
  b.AddEdge(0, 1, 5.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(2, 3, 5.0);
  const Graph g = std::move(b).Build();
  AgglomerativeOptions options;
  options.linkage = Linkage::kSingle;
  const Dendrogram d = AgglomerativeCluster(g, options);
  ExpectValidDendrogram(d, 4);
  const auto kids = d.Children(d.Root());
  ASSERT_EQ(kids.size(), 2u);
  std::vector<NodeId> side(d.Members(kids[0]).begin(),
                           d.Members(kids[0]).end());
  std::sort(side.begin(), side.end());
  EXPECT_TRUE(side == (std::vector<NodeId>{0, 1}) ||
              side == (std::vector<NodeId>{2, 3}));
}

TEST(AgglomerativeTest, SingleLinkageChainsThroughDensity) {
  // Single linkage is famous for chaining: on a uniform-weight path it can
  // produce any order, but it must still yield a valid hierarchy.
  const Graph g = testing::MakePath(16);
  AgglomerativeOptions options;
  options.linkage = Linkage::kSingle;
  ExpectValidDendrogram(AgglomerativeCluster(g, options), 16);
}

TEST(AgglomerativeTest, WeightedAverageValidAndSeparatesCliques) {
  const Graph g = testing::MakeTwoCliquesWithBridge(4);
  AgglomerativeOptions options;
  options.linkage = Linkage::kWeightedAverage;
  const Dendrogram d = AgglomerativeCluster(g, options);
  ExpectValidDendrogram(d, 8);
  const auto kids = d.Children(d.Root());
  ASSERT_EQ(kids.size(), 2u);
  std::vector<NodeId> side(d.Members(kids[0]).begin(),
                           d.Members(kids[0]).end());
  std::sort(side.begin(), side.end());
  EXPECT_TRUE(side == (std::vector<NodeId>{0, 1, 2, 3}) ||
              side == (std::vector<NodeId>{4, 5, 6, 7}));
}

TEST(AgglomerativeTest, LinkagesProduceDifferentTreesWhenTheyShould) {
  // Star with one heavy satellite pair: UPGMA's size normalization and
  // single linkage disagree about when the pair joins the hub cluster.
  GraphBuilder b(6);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(0, 2, 1.0);
  b.AddEdge(0, 3, 1.0);
  b.AddEdge(3, 4, 0.9);
  b.AddEdge(4, 5, 0.8);
  const Graph g = std::move(b).Build();
  AgglomerativeOptions upgma;
  AgglomerativeOptions single;
  single.linkage = Linkage::kSingle;
  const Dendrogram a = AgglomerativeCluster(g, upgma);
  const Dendrogram c = AgglomerativeCluster(g, single);
  ExpectValidDendrogram(a, 6);
  ExpectValidDendrogram(c, 6);
}

TEST(AgglomerativeTest, DeterministicAcrossRuns) {
  Rng rng(3);
  const Graph g = ErdosRenyi(120, 400, rng);
  const Dendrogram a = AgglomerativeCluster(g);
  const Dendrogram b = AgglomerativeCluster(g);
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  for (CommunityId c = 0; c < a.NumVertices(); ++c) {
    EXPECT_EQ(a.Parent(c), b.Parent(c));
  }
}

class AgglomerativeRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AgglomerativeRandomTest, ValidOnRandomGraphs) {
  Rng rng(GetParam());
  const size_t n = 50 + rng.UniformInt(150);
  const Graph g = EnsureConnected(ErdosRenyi(n, 3 * n, rng), rng);
  const Dendrogram d = AgglomerativeCluster(g);
  ExpectValidDendrogram(d, n);
  // Every node's path reaches the root.
  for (NodeId v = 0; v < n; ++v) {
    const auto path = d.PathToRoot(v);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.back(), d.Root());
  }
}

TEST_P(AgglomerativeRandomTest, ValidOnPlantedPartitions) {
  Rng rng(GetParam() + 1000);
  HppParams params;
  params.num_nodes = 200;
  params.num_edges = 700;
  params.levels = 2;
  params.fanout = 3;
  const GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  const Dendrogram d = AgglomerativeCluster(gen.graph);
  ExpectValidDendrogram(d, 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AgglomerativeRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- Byte goldens --------------------------------------------------------
// CRC32C of the dendrogram (vertex count, every Parent, every Children list
// with its length) and of the ClusterReplay record (per component: anchor,
// size, merge count, merge operands), read through the public accessors.
// The goldens pin the NN-chain run byte for byte: the surviving-id rule,
// the min-leaf tie-break, each linkage's combine and the per-component
// order. A change of storage inside the clustering must not move them.

template <typename T>
uint32_t ExtendPod(uint32_t crc, const T& value) {
  return Crc32cExtend(crc, &value, sizeof(value));
}

uint32_t DendrogramCrc(const Dendrogram& d) {
  uint32_t crc = ExtendPod(0, static_cast<uint64_t>(d.NumVertices()));
  for (CommunityId c = 0; c < d.NumVertices(); ++c) {
    crc = ExtendPod(crc, d.Parent(c));
  }
  for (CommunityId c = 0; c < d.NumVertices(); ++c) {
    const auto kids = d.Children(c);
    crc = ExtendPod(crc, static_cast<uint64_t>(kids.size()));
    crc = Crc32cExtend(crc, kids.data(), kids.size_bytes());
  }
  return crc;
}

uint32_t ReplayCrc(const ClusterReplay& r) {
  uint32_t crc = ExtendPod(0, static_cast<uint64_t>(r.components.size()));
  for (const ClusterReplay::ComponentRec& rec : r.components) {
    crc = ExtendPod(crc, rec.anchor);
    crc = ExtendPod(crc, rec.num_nodes);
    crc = ExtendPod(crc, static_cast<uint64_t>(rec.merges.size()));
    for (const ClusterReplay::MergeRec& m : rec.merges) {
      crc = ExtendPod(crc, m.a);
      crc = ExtendPod(crc, m.b);
    }
  }
  return crc;
}

struct Crcs {
  uint32_t tree = 0;
  uint32_t replay = 0;
};

Crcs ClusterCrcs(const Graph& g, Linkage linkage) {
  AgglomerativeOptions options;
  options.linkage = linkage;
  ClusterReplay record;
  const Dendrogram d =
      AgglomerativeClusterDelta(g, options, Budget{}, nullptr, nullptr,
                                &record)
          .value();
  EXPECT_TRUE(record.valid);
  ExpectValidDendrogram(d, g.NumNodes());
  // The record-free plain form runs the same code path.
  EXPECT_EQ(DendrogramCrc(AgglomerativeCluster(g, options)),
            DendrogramCrc(d));
  return {DendrogramCrc(d), ReplayCrc(record)};
}

const char* LinkageName(Linkage linkage) {
  switch (linkage) {
    case Linkage::kUnweightedAverage:
      return "upgma";
    case Linkage::kSingle:
      return "single";
    case Linkage::kWeightedAverage:
      return "wpgma";
  }
  return "?";
}

struct GoldenCase {
  const char* dataset;
  Linkage linkage;
  Crcs want;
};

TEST(AgglomerativeGoldenTest, DatasetsKeepTheirBytes) {
  // pubmed-sim is the hub-heavy case; single linkage on it (and anything
  // on dblp-sim) runs for seconds under the sanitizers, so it stays out.
  const GoldenCase cases[] = {
      {"cora-sim", Linkage::kUnweightedAverage, {2018769391u, 1547249854u}},
      {"cora-sim", Linkage::kSingle, {13816935u, 587184070u}},
      {"cora-sim", Linkage::kWeightedAverage, {2324104935u, 1485715366u}},
      {"citeseer-sim", Linkage::kUnweightedAverage, {2346028135u, 4100031518u}},
      {"citeseer-sim", Linkage::kSingle, {3314075587u, 3348205986u}},
      {"citeseer-sim", Linkage::kWeightedAverage, {2690055187u, 1040732180u}},
      {"pubmed-sim", Linkage::kUnweightedAverage, {3651258822u, 2069147973u}},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(std::string(c.dataset) + " " + LinkageName(c.linkage));
    const AttributedGraph data = MakeDataset(c.dataset).value();
    const Crcs got = ClusterCrcs(data.graph, c.linkage);
    EXPECT_EQ(got.tree, c.want.tree);
    EXPECT_EQ(got.replay, c.want.replay);
  }
}

// Two weighted copies of one planted-partition graph on interleaved ids
// (copy A on even ids, copy B on odd ids) plus isolated nodes, so
// components interleave in id space and several of them are singletons.
// With `extra_edge`, copy B gains one edge: only its component is dirty.
Graph TwoCopiesWithIsolated(bool extra_edge) {
  Rng rng(11);
  HppParams params;
  params.num_nodes = 300;
  params.num_edges = 1100;
  params.levels = 2;
  params.fanout = 3;
  const Graph base = HierarchicalPlantedPartition(params, rng).graph;
  constexpr size_t kIsolated = 7;
  GraphBuilder b(2 * base.NumNodes() + kIsolated);
  for (EdgeId e = 0; e < base.NumEdges(); ++e) {
    const auto [u, v] = base.Endpoints(e);
    const double w = 1.0 + static_cast<double>((u * 7 + v * 3) % 5) * 0.25;
    b.AddEdge(2 * u, 2 * v, w);
    b.AddEdge(2 * u + 1, 2 * v + 1, w);
  }
  if (extra_edge) b.AddEdge(1, 2 * 150 + 1, 2.5);
  return std::move(b).Build();
}

TEST(AgglomerativeGoldenTest, MultiComponentKeepsItsBytes) {
  const Graph g = TwoCopiesWithIsolated(/*extra_edge=*/false);
  const Crcs want[] = {{3810552858u, 3879749628u}, {3243149720u, 2232611254u}, {2714470865u, 2569019447u}};
  const Linkage linkages[] = {Linkage::kUnweightedAverage, Linkage::kSingle,
                              Linkage::kWeightedAverage};
  for (size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(LinkageName(linkages[i]));
    const Crcs got = ClusterCrcs(g, linkages[i]);
    EXPECT_EQ(got.tree, want[i].tree);
    EXPECT_EQ(got.replay, want[i].replay);
  }
}

// Unit weights everywhere: nearly every NN step is a tie, so the min-leaf
// tie-break and the surviving-id rule decide the whole tree.
Graph Grid(size_t side) {
  GraphBuilder b(side * side);
  for (NodeId r = 0; r < side; ++r) {
    for (NodeId c = 0; c < side; ++c) {
      const NodeId v = static_cast<NodeId>(r * side + c);
      if (c + 1 < side) b.AddEdge(v, v + 1);
      if (r + 1 < side) b.AddEdge(v, static_cast<NodeId>(v + side));
    }
  }
  return std::move(b).Build();
}

Graph Ring(size_t n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    b.AddEdge(v, static_cast<NodeId>((v + 1) % n));
  }
  return std::move(b).Build();
}

TEST(AgglomerativeGoldenTest, TieHeavyGraphsKeepTheirBytes) {
  const Graph grid = Grid(24);
  const Graph ring = Ring(97);
  const Linkage linkages[] = {Linkage::kUnweightedAverage, Linkage::kSingle,
                              Linkage::kWeightedAverage};
  const Crcs want_grid[] = {{3364256803u, 2402475478u}, {2569917505u, 3390841349u}, {3364256803u, 2402475478u}};
  const Crcs want_ring[] = {{2272644204u, 4277103416u}, {757087831u, 2175676347u}, {1309393477u, 2912673144u}};
  for (size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(LinkageName(linkages[i]));
    const Crcs got_grid = ClusterCrcs(grid, linkages[i]);
    EXPECT_EQ(got_grid.tree, want_grid[i].tree);
    EXPECT_EQ(got_grid.replay, want_grid[i].replay);
    const Crcs got_ring = ClusterCrcs(ring, linkages[i]);
    EXPECT_EQ(got_ring.tree, want_ring[i].tree);
    EXPECT_EQ(got_ring.replay, want_ring[i].replay);
  }
}

// A delta call whose one dirty component re-clusters while the others
// replay gives the cold call's bytes, record included.
TEST(AgglomerativeGoldenTest, DeltaWithOneDirtyComponentEqualsCold) {
  const Graph before = TwoCopiesWithIsolated(/*extra_edge=*/false);
  const Graph after = TwoCopiesWithIsolated(/*extra_edge=*/true);
  const Crcs want = {506339973u, 2447971920u};
  const AgglomerativeOptions options;
  ClusterReplay prev;
  ASSERT_TRUE(AgglomerativeClusterDelta(before, options, Budget{}, nullptr,
                                        nullptr, &prev)
                  .ok());
  std::vector<char> dirty(after.NumNodes(), 0);
  dirty[1] = 1;
  dirty[2 * 150 + 1] = 1;
  ClusterReplay next;
  const Dendrogram delta =
      AgglomerativeClusterDelta(after, options, Budget{}, &dirty, &prev,
                                &next)
          .value();
  const Crcs cold = ClusterCrcs(after, options.linkage);
  EXPECT_EQ(DendrogramCrc(delta), cold.tree);
  EXPECT_EQ(ReplayCrc(next), cold.replay);
  EXPECT_EQ(cold.tree, want.tree);
  EXPECT_EQ(cold.replay, want.replay);
  // Copy A's component (anchor 0) is clean, so its record is replayed.
  ASSERT_FALSE(next.components.empty());
  const ClusterReplay::ComponentRec& was = prev.components[0];
  const ClusterReplay::ComponentRec& now = next.components[0];
  ASSERT_EQ(now.anchor, 0u);
  ASSERT_EQ(now.merges.size(), was.merges.size());
  for (size_t i = 0; i < now.merges.size(); ++i) {
    EXPECT_EQ(now.merges[i].a, was.merges[i].a);
    EXPECT_EQ(now.merges[i].b, was.merges[i].b);
  }
}

}  // namespace
}  // namespace cod

#include "core/himor.h"

#include "core/compressed_eval.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "common/task_scheduler.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "hierarchy/agglomerative.h"
#include "influence/influence_oracle.h"
#include "tests/test_util.h"

namespace cod {
namespace {

// With p = 1, sigma_C(v) is exactly the size of v's connected component in
// C's induced subgraph, so every HIMOR rank is deterministic.
uint32_t DeterministicRank(const Graph& g, const Dendrogram& d, CommunityId c,
                           NodeId q) {
  const auto span = d.Members(c);
  std::vector<char> allowed(g.NumNodes(), 0);
  for (NodeId v : span) allowed[v] = 1;
  std::vector<uint32_t> comp_size(g.NumNodes(), 0);
  std::vector<char> visited(g.NumNodes(), 0);
  for (NodeId start : span) {
    if (visited[start]) continue;
    std::vector<NodeId> comp{start};
    visited[start] = 1;
    for (size_t head = 0; head < comp.size(); ++head) {
      for (const AdjEntry& a : g.Neighbors(comp[head])) {
        if (allowed[a.to] && !visited[a.to]) {
          visited[a.to] = 1;
          comp.push_back(a.to);
        }
      }
    }
    for (NodeId v : comp) comp_size[v] = static_cast<uint32_t>(comp.size());
  }
  uint32_t rank = 0;
  for (NodeId v : span) {
    if (comp_size[v] > comp_size[q]) ++rank;
  }
  return rank;
}

TEST(HimorTest, EntriesCoverEveryAncestor) {
  const auto ex = testing::MakePaperExample();
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(ex.graph);
  const LcaIndex lca(ex.dendrogram);
  Rng rng(1);
  const HimorIndex index =
      HimorIndex::Build(m, ex.dendrogram, lca, /*theta=*/5, rng.Next(),
                        std::numeric_limits<uint32_t>::max()).value();
  for (NodeId v = 0; v < 10; ++v) {
    const auto entries = index.RanksOf(v);
    const auto path = ex.dendrogram.PathToRoot(v);
    ASSERT_EQ(entries.size(), path.size());
    for (size_t i = 0; i < path.size(); ++i) {
      EXPECT_EQ(entries[i].community, path[i]);  // deepest first
    }
  }
  EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST(HimorTest, DeterministicWorldRanksExact) {
  const auto ex = testing::MakePaperExample();
  const DiffusionModel m = DiffusionModel::UniformIc(ex.graph, 1.0);
  const LcaIndex lca(ex.dendrogram);
  Rng rng(2);
  const HimorIndex index =
      HimorIndex::Build(m, ex.dendrogram, lca, /*theta=*/2, rng.Next(),
                        std::numeric_limits<uint32_t>::max()).value();
  for (NodeId v = 0; v < 10; ++v) {
    for (const auto& entry : index.RanksOf(v)) {
      EXPECT_EQ(entry.rank,
                DeterministicRank(ex.graph, ex.dendrogram, entry.community, v))
          << "node " << v << " community " << entry.community;
    }
  }
}

class HimorRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HimorRandomTest, DeterministicWorldRanksOnRandomGraphs) {
  Rng rng(GetParam());
  const size_t n = 30 + rng.UniformInt(70);
  // Deliberately NOT EnsureConnected: disconnected communities exercise the
  // component-size rank logic.
  const Graph g = ErdosRenyi(n, 2 * n, rng);
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::UniformIc(g, 1.0);
  const HimorIndex index = HimorIndex::Build(
      m, d, lca, 1, rng.Next(), std::numeric_limits<uint32_t>::max())
      .value();
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    for (const auto& entry : index.RanksOf(v)) {
      ASSERT_EQ(entry.rank, DeterministicRank(g, d, entry.community, v))
          << "n=" << n << " node " << v << " community " << entry.community;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HimorRandomTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

TEST(HimorTest, StatisticalRanksMatchOracle) {
  // Star-of-cliques with clear influence gaps: HIMOR's ranks at the deepest
  // and root communities must match a high-sample oracle.
  GraphBuilder b(10);
  for (NodeId v = 1; v <= 4; ++v) b.AddEdge(0, v);  // star around 0
  for (NodeId u = 5; u <= 9; ++u) {
    for (NodeId v = u + 1; v <= 9; ++v) b.AddEdge(u, v);  // clique
  }
  b.AddEdge(4, 5);
  const Graph g = std::move(b).Build();
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  Rng rng(3);
  const HimorIndex index =
      HimorIndex::Build(m, d, lca, /*theta=*/600, rng.Next()).value();

  InfluenceOracle oracle(m);
  // Check the hub's rank in its deepest community.
  const auto entries = index.RanksOf(0);
  ASSERT_FALSE(entries.empty());
  const CommunityId deepest = entries[0].community;
  const auto members = d.Members(deepest);
  const std::vector<uint32_t> counts =
      oracle.CountsWithin(members, 800, rng);
  const uint32_t oracle_rank = InfluenceOracle::RankOf(members, counts, 0);
  EXPECT_EQ(entries[0].rank, oracle_rank);
}

TEST(HimorTest, FindTopKAncestorWalksTopDown) {
  const auto ex = testing::MakePaperExample();
  const DiffusionModel m = DiffusionModel::UniformIc(ex.graph, 1.0);
  const LcaIndex lca(ex.dendrogram);
  Rng rng(4);
  const HimorIndex index =
      HimorIndex::Build(m, ex.dendrogram, lca, 2, rng.Next()).value();
  // p=1 on a connected graph: everyone ties at rank 0 in every community,
  // so the largest ancestor (the root) wins for any k.
  const auto* hit = index.FindTopKAncestor(0, ex.c0, 1, ex.dendrogram);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->community, ex.c6);
  EXPECT_EQ(hit->rank, 0u);
  // With c_ell = c4 the scan stops at c4 but the root still qualifies first.
  const auto* hit2 = index.FindTopKAncestor(0, ex.c4, 1, ex.dendrogram);
  ASSERT_NE(hit2, nullptr);
  EXPECT_EQ(hit2->community, ex.c6);
}

TEST(HimorTest, SparseIndexAnswersLikeFullIndex) {
  // The max_rank pruning ("selected communities") must never change an
  // Algorithm-3 answer for k <= max_rank. Deterministic world makes the two
  // builds produce identical counts.
  Rng gen_rng(6);
  const Graph g = ErdosRenyi(80, 200, gen_rng);
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::UniformIc(g, 1.0);
  Rng rng1(7);
  Rng rng2(7);
  const uint32_t max_rank = 6;
  const HimorIndex sparse =
      HimorIndex::Build(m, d, lca, 1, rng1.Next(), max_rank).value();
  const HimorIndex full = HimorIndex::Build(
      m, d, lca, 1, rng2.Next(), std::numeric_limits<uint32_t>::max())
      .value();
  EXPECT_LE(sparse.NumEntries(), full.NumEntries());
  for (NodeId q = 0; q < 80; ++q) {
    const auto path = d.PathToRoot(q);
    for (CommunityId c_ell : path) {
      for (uint32_t k = 1; k <= max_rank; ++k) {
        const auto* a = sparse.FindTopKAncestor(q, c_ell, k, d);
        const auto* b = full.FindTopKAncestor(q, c_ell, k, d);
        ASSERT_EQ(a == nullptr, b == nullptr)
            << "q=" << q << " c_ell=" << c_ell << " k=" << k;
        if (a != nullptr) {
          EXPECT_EQ(a->community, b->community);
          EXPECT_EQ(a->rank, b->rank);
        }
      }
    }
  }
}

TEST(HimorTest, IndexedAnswerMatchesCompressedChainInDeterministicWorld) {
  // Cross-pipeline exactness: with p = 1 the HIMOR walk (tree buckets,
  // bottom-up merge, top-down scan) and the compressed chain evaluation
  // (linear buckets, incremental top-k) must pick the same best level for
  // the base chain of every node.
  Rng gen_rng(9);
  const Graph g = ErdosRenyi(70, 180, gen_rng);  // disconnected on purpose
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::UniformIc(g, 1.0);
  Rng rng(10);
  const HimorIndex index =
      HimorIndex::Build(m, d, lca, 1, rng.Next(), 8).value();
  CompressedEvaluator evaluator(m, 1);
  for (NodeId q = 0; q < 70; ++q) {
    for (uint32_t k = 1; k <= 8; k += 3) {
      const HimorIndex::Entry* hit =
          index.FindTopKAncestor(q, d.Parent(d.LeafOf(q)), k, d);
      const CodChain chain = BuildChainFromDendrogram(d, q);
      const ChainEvalOutcome outcome = evaluator.Evaluate(chain, q, k, rng);
      if (hit == nullptr) {
        EXPECT_EQ(outcome.best_level, -1) << "q=" << q << " k=" << k;
      } else {
        ASSERT_GE(outcome.best_level, 0) << "q=" << q << " k=" << k;
        EXPECT_EQ(d.LeafCount(hit->community),
                  chain.community_size[outcome.best_level])
            << "q=" << q << " k=" << k;
      }
    }
  }
}

TEST(HimorTest, FindTopKAncestorReturnsNullWhenNoneQualify) {
  // Make node 9 a peripheral leaf of a hub graph; with k=1 it should not be
  // top-1 anywhere above its deepest communities under p=1 (component sizes
  // tie, so rank 0...). Use a handcrafted index check instead: ask for an
  // ancestor of a *different* branch.
  const auto ex = testing::MakePaperExample();
  const DiffusionModel m = DiffusionModel::UniformIc(ex.graph, 1.0);
  const LcaIndex lca(ex.dendrogram);
  Rng rng(5);
  const HimorIndex index =
      HimorIndex::Build(m, ex.dendrogram, lca, 2, rng.Next()).value();
  // c_ell = C5 = {8,9} is not on node 0's chain: the top-down scan stops
  // immediately after the shared prefix; with k = 0 nothing can qualify.
  const auto* hit = index.FindTopKAncestor(0, ex.c0, 0, ex.dendrogram);
  EXPECT_EQ(hit, nullptr);
}

// A graph of disconnected pieces: `parts` blocks of `part_nodes` nodes with
// `part_edges` random edges each, then `isolated` edgeless nodes. Clustering
// joins every component root and every isolated leaf under one flat root.
Graph MakeFlatRootGraph(size_t parts, size_t part_nodes, size_t part_edges,
                        size_t isolated, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(parts * part_nodes + isolated);
  for (size_t p = 0; p < parts; ++p) {
    const NodeId base = static_cast<NodeId>(p * part_nodes);
    // A path keeps each block one component; the random chords give it
    // a hierarchy.
    for (NodeId v = 1; v < part_nodes; ++v) b.AddEdge(base + v - 1, base + v);
    for (size_t e = part_nodes - 1; e < part_edges; ++e) {
      const NodeId u = static_cast<NodeId>(rng.UniformInt(part_nodes));
      const NodeId v = static_cast<NodeId>(rng.UniformInt(part_nodes));
      if (u != v) b.AddEdge(base + u, base + v);
    }
  }
  return std::move(b).Build();
}

std::vector<uint32_t> ComponentSizesOf(const Graph& g) {
  const Components comps = ConnectedComponents(g);
  std::vector<uint32_t> count(comps.count, 0);
  for (uint32_t label : comps.label) ++count[label];
  std::vector<uint32_t> sizes(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) sizes[v] = count[comps.label[v]];
  return sizes;
}

struct FlatRootCrcs {
  uint32_t himor = 0;
  uint32_t sketch = 0;
};

// Appends `values` as a u64 element count and then the elements.
template <typename T>
void AppendCounted(BinaryBufferWriter& out, const std::vector<T>& values) {
  out.WritePod<uint64_t>(values.size());
  out.WriteBytes(std::string_view(reinterpret_cast<const char*>(values.data()),
                                  values.size() * sizeof(T)));
}

// CRC32C of the HIMOR index and coverage sketch contents (theta 4,
// max_rank 8, sketch_bits 6), read through their accessors and laid out
// here as count-prefixed arrays, so the goldens pin what the build
// produces, not a snapshot payload format. A component-scoped build never
// materializes the root, which spans components; an unscoped build ranks
// every node at it, so the root's merged run reaches the bytes.
FlatRootCrcs FlatRootBuildCrcs(const Graph& g, size_t expected_root_kids,
                               bool component_scoped) {
  const Dendrogram d = AgglomerativeCluster(g);
  EXPECT_EQ(d.Children(d.Root()).size(), expected_root_kids);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  const std::vector<uint32_t> comp_size = ComponentSizesOf(g);
  std::optional<CoverageSketchIndex> sketch;
  const HimorIndex index =
      HimorIndex::Build(m, d, lca, /*theta=*/4, /*seed=*/0x5eedULL,
                        /*max_rank=*/8, /*budget=*/{},
                        component_scoped ? &comp_size : nullptr,
                        /*sketch_bits=*/6, &sketch)
          .value();
  EXPECT_GT(index.NumEntries(), 0u);
  EXPECT_TRUE(sketch.has_value());
  BinaryBufferWriter himor_bytes;
  std::vector<uint64_t> offsets{0};
  std::vector<HimorIndex::Entry> entries;
  for (NodeId v = 0; v < index.NumNodes(); ++v) {
    for (const HimorIndex::Entry& e : index.RanksOf(v)) entries.push_back(e);
    offsets.push_back(entries.size());
  }
  himor_bytes.WritePod(index.max_rank());
  AppendCounted(himor_bytes, offsets);
  AppendCounted(himor_bytes, entries);
  BinaryBufferWriter sketch_bytes;
  if (sketch.has_value()) {
    const CoverageSketchIndex& s = *sketch;
    std::vector<uint64_t> thr_offsets{0}, sig_offsets{0}, sig_values;
    std::vector<uint32_t> thr_values, support, top_count;
    for (CommunityId c = 0; c < s.NumCommunities(); ++c) {
      for (const auto t : s.ThresholdsOf(c)) thr_values.push_back(t);
      for (const auto w : s.SignatureOf(c)) sig_values.push_back(w);
      thr_offsets.push_back(thr_values.size());
      sig_offsets.push_back(sig_values.size());
      support.push_back(s.SupportOf(c));
    }
    for (NodeId v = 0; v < s.NumNodes(); ++v) {
      top_count.push_back(s.TopCountOf(v));
    }
    sketch_bytes.WritePod(s.schedule_seed());
    sketch_bytes.WritePod(s.theta());
    sketch_bytes.WritePod(s.sketch_bits());
    sketch_bytes.WritePod(s.rank_depth());
    AppendCounted(sketch_bytes, thr_offsets);
    AppendCounted(sketch_bytes, thr_values);
    AppendCounted(sketch_bytes, sig_offsets);
    AppendCounted(sketch_bytes, sig_values);
    AppendCounted(sketch_bytes, support);
    AppendCounted(sketch_bytes, top_count);
  }
  return {Crc32c(himor_bytes.TakeBytes()), Crc32c(sketch_bytes.TakeBytes())};
}

// Stage 2 skips the empty runs of a flat root's children (isolated leaves).
// Skipping an empty run leaves the merged run as it was, so the bytes must
// equal those the cascade that visited every child produced (goldens
// recorded from that cascade).
TEST(HimorFlatRootTest, IsolatedLeavesUnderTheRootKeepTheirBytes) {
  // Three 60-node components plus 5,000 isolated nodes.
  const Graph g = MakeFlatRootGraph(3, 60, 150, 5000, 31);
  const FlatRootCrcs scoped = FlatRootBuildCrcs(g, 3 + 5000, true);
  EXPECT_EQ(scoped.himor, 0x0a417da9u);
  EXPECT_EQ(scoped.sketch, 0x467d54b7u);
  const FlatRootCrcs unscoped = FlatRootBuildCrcs(g, 3 + 5000, false);
  EXPECT_EQ(unscoped.himor, 0xff737ee7u);
  EXPECT_EQ(unscoped.sketch, 0x687b4ef5u);
}

TEST(HimorFlatRootTest, ManyPairComponentsUnderTheRootKeepTheirBytes) {
  // 301 two-node components: an odd number of non-empty runs at the root.
  const Graph g = MakeFlatRootGraph(301, 2, 1, 0, 32);
  const FlatRootCrcs scoped = FlatRootBuildCrcs(g, 301, true);
  EXPECT_EQ(scoped.himor, 0x78e17787u);
  EXPECT_EQ(scoped.sketch, 0x6fb4184cu);
  const FlatRootCrcs unscoped = FlatRootBuildCrcs(g, 301, false);
  EXPECT_EQ(unscoped.himor, 0x3d18d473u);
  EXPECT_EQ(unscoped.sketch, 0xeb103c94u);
}

// ---------------------------------------------------------------------------
// Cold stage 1 fanned out on a scheduler: the bytes at every worker count.
// ---------------------------------------------------------------------------

// One cold build's outputs: index and sketch bytes plus the carry (empty
// when built without one).
struct ColdBuild {
  std::string himor;
  std::string sketch;
  HimorSampleCache carry;
};

// Three 300-node components (random chords over a path) plus 300 isolated
// nodes, so component scoping drops the impure communities above them.
// 1,200 nodes at theta 96 draw 115,200 samples: four stage-1 ranges.
struct FanOutWorld {
  static constexpr uint32_t kTheta = 96;
  Graph graph = MakeFlatRootGraph(3, 300, 1000, 300, 41);
  Dendrogram dendrogram = AgglomerativeCluster(graph);
  LcaIndex lca{dendrogram};
  DiffusionModel model = DiffusionModel::WeightedCascadeIc(graph);
  std::vector<uint32_t> comp_size = ComponentSizesOf(graph);
};

ColdBuild BuildCold(const FanOutWorld& w, bool scoped, bool with_carry,
                    TaskScheduler* scheduler) {
  ColdBuild out;
  std::optional<CoverageSketchIndex> sketch;
  const HimorIndex index =
      HimorIndex::BuildDelta(
          w.model, w.dendrogram, w.lca, FanOutWorld::kTheta,
          /*seed=*/0xfa17ULL, /*max_rank=*/8, /*budget=*/{},
          scoped ? &w.comp_size : nullptr, /*dirty=*/nullptr,
          /*prev=*/nullptr, with_carry ? &out.carry : nullptr,
          /*stats=*/nullptr, /*sketch_bits=*/6, &sketch, scheduler)
          .value();
  BinaryBufferWriter himor_bytes;
  index.SerializeTo(himor_bytes);
  out.himor = himor_bytes.TakeBytes();
  BinaryBufferWriter sketch_bytes;
  EXPECT_TRUE(sketch.has_value());
  if (sketch.has_value()) sketch->SerializeTo(sketch_bytes);
  out.sketch = sketch_bytes.TakeBytes();
  return out;
}

TEST(HimorFanOutTest, BytesAndCarryMatchAtEveryWorkerCount) {
  const FanOutWorld w;
  // Several ranges, or the scheduler legs would run inline.
  ASSERT_GE(HimorIndex::NumStageOneRanges(w.graph.NumNodes(),
                                          FanOutWorld::kTheta),
            4u);
  for (const bool scoped : {false, true}) {
    SCOPED_TRACE(scoped ? "component_scoped" : "mono");
    const ColdBuild serial = BuildCold(w, scoped, true, nullptr);
    const ColdBuild no_carry = BuildCold(w, scoped, false, nullptr);
    EXPECT_EQ(no_carry.himor, serial.himor);
    EXPECT_EQ(no_carry.sketch, serial.sketch);
    EXPECT_TRUE(serial.carry.valid);
    EXPECT_EQ(serial.carry.rr.NumSamples(),
              w.graph.NumNodes() * FanOutWorld::kTheta);
    for (const size_t workers : {1, 2, 4}) {
      SCOPED_TRACE(workers);
      TaskScheduler sched(workers);
      const ColdBuild fanned = BuildCold(w, scoped, true, &sched);
      EXPECT_EQ(fanned.himor, serial.himor);
      EXPECT_EQ(fanned.sketch, serial.sketch);
      EXPECT_TRUE(testing::SameCarry(fanned.carry, serial.carry));
      if (workers == 4) {
        const ColdBuild fanned_no_carry = BuildCold(w, scoped, false, &sched);
        EXPECT_EQ(fanned_no_carry.himor, serial.himor);
        EXPECT_EQ(fanned_no_carry.sketch, serial.sketch);
      }
    }
  }
}

TEST(HimorFanOutTest, DeltaFromFanOutCarryEqualsDeltaFromSerialCarry) {
  const FanOutWorld w;
  // The next epoch: one chord added inside the first component.
  GraphBuilder b(w.graph.NumNodes());
  for (EdgeId e = 0; e < w.graph.NumEdges(); ++e) {
    const auto [u, v] = w.graph.Endpoints(e);
    b.AddEdge(u, v, w.graph.Weight(e));
  }
  b.AddEdge(3, 250);
  const Graph g2 = std::move(b).Build();
  const Dendrogram d2 = AgglomerativeCluster(g2);
  const LcaIndex lca2(d2);
  const DiffusionModel m2 = DiffusionModel::WeightedCascadeIc(g2);
  std::vector<char> dirty(g2.NumNodes(), 0);
  dirty[3] = dirty[250] = 1;

  for (const bool scoped : {false, true}) {
    SCOPED_TRACE(scoped ? "component_scoped" : "mono");
    TaskScheduler sched(4);
    ColdBuild serial = BuildCold(w, scoped, true, nullptr);
    ColdBuild fanned = BuildCold(w, scoped, true, &sched);
    ASSERT_TRUE(testing::SameCarry(serial.carry, fanned.carry));

    const auto delta = [&](HimorSampleCache* prev, HimorSampleCache* next,
                           HimorDeltaStats* stats) {
      std::optional<CoverageSketchIndex> sketch;
      const HimorIndex index =
          HimorIndex::BuildDelta(
              m2, d2, lca2, FanOutWorld::kTheta, /*seed=*/0xfa17ULL,
              /*max_rank=*/8, /*budget=*/{},
              scoped ? &w.comp_size : nullptr, &dirty, prev, next, stats,
              /*sketch_bits=*/6, &sketch, &sched)
              .value();
      BinaryBufferWriter bytes;
      index.SerializeTo(bytes);
      if (sketch.has_value()) sketch->SerializeTo(bytes);
      return bytes.TakeBytes();
    };
    HimorSampleCache next_serial;
    HimorSampleCache next_fanned;
    HimorDeltaStats stats_serial;
    HimorDeltaStats stats_fanned;
    const std::string from_serial =
        delta(&serial.carry, &next_serial, &stats_serial);
    const std::string from_fanned =
        delta(&fanned.carry, &next_fanned, &stats_fanned);
    // The delta path ran: most samples were carried, not redrawn.
    EXPECT_GT(stats_serial.samples_reused, stats_serial.samples_resampled);
    EXPECT_EQ(stats_fanned.samples_reused, stats_serial.samples_reused);
    EXPECT_EQ(stats_fanned.samples_replayed, stats_serial.samples_replayed);
    EXPECT_EQ(from_fanned, from_serial);
    EXPECT_TRUE(testing::SameCarry(next_fanned, next_serial));
  }
}

}  // namespace
}  // namespace cod

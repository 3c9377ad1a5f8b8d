// Payload codecs of the dendrogram and the HIMOR index (the buffer forms the
// epoch snapshot container embeds). Container-level integrity — every byte
// flip and truncation of a whole snapshot file — is SnapshotCorruptionTest's.

#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/engine_core.h"
#include "core/himor.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "hierarchy/agglomerative.h"
#include "hierarchy/dendrogram_io.h"
#include "hierarchy/lca.h"
#include "storage/epoch_snapshot.h"
#include "tests/test_util.h"

namespace cod {
namespace {

std::string DendrogramBytes(const Dendrogram& dendrogram) {
  BinaryBufferWriter out;
  SerializeDendrogram(dendrogram, out);
  return out.bytes();
}

Result<Dendrogram> DecodeDendrogram(std::string_view bytes) {
  BinarySpanReader in(bytes, "dendrogram");
  return DeserializeDendrogram(in);
}

std::string IndexBytes(const HimorIndex& index) {
  BinaryBufferWriter out;
  index.SerializeTo(out);
  return out.bytes();
}

Result<HimorIndex> DecodeIndex(std::string_view bytes) {
  BinarySpanReader in(bytes, "HIMOR index");
  return HimorIndex::Deserialize(in);
}

TEST(DendrogramIoTest, RoundTripPreservesStructure) {
  Rng rng(1);
  const Graph g = EnsureConnected(ErdosRenyi(150, 400, rng), rng);
  const Dendrogram original = AgglomerativeCluster(g);
  Result<Dendrogram> loaded = DecodeDendrogram(DendrogramBytes(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->NumVertices(), original.NumVertices());
  ASSERT_EQ(loaded->NumLeaves(), original.NumLeaves());
  EXPECT_EQ(loaded->Root(), original.Root());
  for (CommunityId c = 0; c < original.NumVertices(); ++c) {
    EXPECT_EQ(loaded->Parent(c), original.Parent(c));
    EXPECT_EQ(loaded->Depth(c), original.Depth(c));
    EXPECT_EQ(loaded->LeafCount(c), original.LeafCount(c));
  }
  for (NodeId v = 0; v < original.NumLeaves(); ++v) {
    EXPECT_EQ(loaded->PathToRoot(v), original.PathToRoot(v));
  }
}

TEST(DendrogramIoTest, MultiWayVerticesSurvive) {
  const auto ex = testing::MakePaperExample();  // C0 has 4 children
  Result<Dendrogram> loaded = DecodeDendrogram(DendrogramBytes(ex.dendrogram));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Children(ex.c0).size(), 4u);
}

TEST(DendrogramIoTest, RejectsGarbage) {
  Result<Dendrogram> r = DecodeDendrogram("this is not a dendrogram");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DendrogramIoTest, EveryTruncationFailsCleanly) {
  Rng rng(12);
  const Graph g = EnsureConnected(ErdosRenyi(50, 140, rng), rng);
  const std::string pristine = DendrogramBytes(AgglomerativeCluster(g));
  for (size_t len = 0; len < pristine.size(); len += (len < 32 ? 1 : 17)) {
    Result<Dendrogram> r =
        DecodeDendrogram(std::string_view(pristine).substr(0, len));
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " decoded";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(HimorIoTest, RoundTripAnswersIdentically) {
  Rng rng(3);
  const Graph g = EnsureConnected(ErdosRenyi(100, 300, rng), rng);
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  const HimorIndex original =
      HimorIndex::Build(m, d, lca, 10, rng.Next()).value();
  Result<HimorIndex> loaded = DecodeIndex(IndexBytes(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->max_rank(), original.max_rank());
  EXPECT_EQ(loaded->NumEntries(), original.NumEntries());
  EXPECT_EQ(loaded->NumNodes(), original.NumNodes());
  for (NodeId v = 0; v < 100; ++v) {
    const auto a = original.RanksOf(v);
    const auto b = loaded->RanksOf(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].community, b[i].community);
      EXPECT_EQ(a[i].rank, b[i].rank);
    }
  }
}

TEST(HimorIoTest, RejectsGarbage) {
  Result<HimorIndex> r = DecodeIndex("nope");
  ASSERT_FALSE(r.ok());
}

TEST(HimorIoTest, EveryTruncationFailsCleanly) {
  Rng rng(13);
  const Graph g = EnsureConnected(ErdosRenyi(60, 180, rng), rng);
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  const std::string pristine =
      IndexBytes(HimorIndex::Build(m, d, lca, 6, rng.Next()).value());
  for (size_t len = 0; len < pristine.size(); len += (len < 32 ? 1 : 31)) {
    Result<HimorIndex> r =
        DecodeIndex(std::string_view(pristine).substr(0, len));
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " decoded";
  }
}

// A core reassembled from the decoded hierarchy and index answers exactly
// like the core that built them.
TEST(EngineHimorIoTest, PrebuiltCoreServesQueries) {
  Rng gen_rng(4);
  HppParams params;
  params.num_nodes = 300;
  params.num_edges = 1200;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, gen_rng);
  auto graph = std::make_shared<const Graph>(std::move(gen.graph));
  auto attrs = std::make_shared<const AttributeTable>(
      AssignCorrelatedAttributes(gen.block, 5, 0.8, 0.1, gen_rng));

  EngineCore writer(graph, attrs, {});
  Rng rng(5);
  ASSERT_TRUE(writer.TryBuildHimor(rng.Next()).ok());
  Result<Dendrogram> hierarchy =
      DecodeDendrogram(DendrogramBytes(writer.base_hierarchy()));
  Result<HimorIndex> index = DecodeIndex(IndexBytes(*writer.himor()));
  ASSERT_TRUE(hierarchy.ok());
  ASSERT_TRUE(index.ok());
  Result<std::unique_ptr<EngineCore>> reader = EngineCore::FromPrebuilt(
      graph, attrs, {}, std::move(hierarchy).value(),
      std::move(index).value(), std::nullopt,
      /*index_absent_degraded=*/false);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  // Same graph + same seed: the decoded-index core must answer exactly as
  // the builder core.
  QueryWorkspace ws_a(writer, 6);
  QueryWorkspace ws_b(**reader, 6);
  for (NodeId q = 0; q < 20; ++q) {
    const auto node_attrs = attrs->AttributesOf(q);
    if (node_attrs.empty()) continue;
    const CodResult a = writer.QueryCodL(q, node_attrs[0], 5, ws_a);
    const CodResult b = (*reader)->QueryCodL(q, node_attrs[0], 5, ws_b);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.members, b.members);
  }
}

TEST(EngineHimorIoTest, PrebuiltRejectsWrongGraph) {
  Rng rng(7);
  auto g1 = std::make_shared<const Graph>(
      EnsureConnected(ErdosRenyi(50, 150, rng), rng));
  auto g2 = std::make_shared<const Graph>(
      EnsureConnected(ErdosRenyi(60, 180, rng), rng));
  AttributeTableBuilder a1;
  a1.Add(0, "X");
  auto attrs1 = std::make_shared<const AttributeTable>(std::move(a1).Build(50));
  AttributeTableBuilder a2;
  a2.Add(0, "X");
  auto attrs2 = std::make_shared<const AttributeTable>(std::move(a2).Build(60));
  EngineCore e1(g1, attrs1, {});
  Rng build_rng(8);
  ASSERT_TRUE(e1.TryBuildHimor(build_rng.Next()).ok());
  Result<HimorIndex> index = DecodeIndex(IndexBytes(*e1.himor()));
  ASSERT_TRUE(index.ok());
  Result<std::unique_ptr<EngineCore>> e2 = EngineCore::FromPrebuilt(
      g2, attrs2, {}, AgglomerativeCluster(*g2), std::move(index).value(),
      std::nullopt, /*index_absent_degraded=*/false);
  ASSERT_FALSE(e2.ok());
  EXPECT_EQ(e2.status().code(), StatusCode::kInvalidArgument);
}

// An index built under a smaller max_rank than the options promise would
// abort a query with k in (index max_rank, options max_rank].
TEST(EngineHimorIoTest, PrebuiltRejectsShallowerIndex) {
  Rng rng(9);
  auto graph = std::make_shared<const Graph>(
      EnsureConnected(ErdosRenyi(60, 180, rng), rng));
  AttributeTableBuilder ab;
  ab.Add(0, "X");
  auto attrs = std::make_shared<const AttributeTable>(std::move(ab).Build(60));
  EngineCore writer(graph, attrs, {});
  const HimorIndex shallow =
      HimorIndex::Build(writer.model(), writer.base_hierarchy(),
                        writer.base_lca(), /*theta=*/4, /*seed=*/10,
                        /*max_rank=*/4)
          .value();
  Result<std::unique_ptr<EngineCore>> refused = EngineCore::FromPrebuilt(
      graph, attrs, {}, AgglomerativeCluster(*graph), shallow, std::nullopt,
      /*index_absent_degraded=*/false);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  EngineOptions matching;
  matching.himor_max_rank = 4;
  EXPECT_TRUE(EngineCore::FromPrebuilt(graph, attrs, matching,
                                       AgglomerativeCluster(*graph), shallow,
                                       std::nullopt,
                                       /*index_absent_degraded=*/false)
                  .ok());
}

// An entry naming a community past the hierarchy's vertex count would read
// out of bounds in Dendrogram::IsAncestorOrSelf.
TEST(EngineHimorIoTest, PrebuiltRejectsCommunityOutsideHierarchy) {
  Rng rng(11);
  auto graph = std::make_shared<const Graph>(
      EnsureConnected(ErdosRenyi(60, 180, rng), rng));
  AttributeTableBuilder ab;
  ab.Add(0, "X");
  auto attrs = std::make_shared<const AttributeTable>(std::move(ab).Build(60));
  EngineCore writer(graph, attrs, {});
  ASSERT_TRUE(writer.TryBuildHimor(/*seed=*/12).ok());
  ASSERT_GT(writer.himor()->NumEntries(), 0u);
  // Entries are the payload's tail; the last entry's community field sits
  // eight bytes from the end.
  std::string bytes = IndexBytes(*writer.himor());
  const uint32_t bad_community = 0xfffffff0u;
  std::memcpy(bytes.data() + bytes.size() - 2 * sizeof(uint32_t),
              &bad_community, sizeof(bad_community));
  Result<HimorIndex> index = DecodeIndex(bytes);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  Result<std::unique_ptr<EngineCore>> refused = EngineCore::FromPrebuilt(
      graph, attrs, {}, AgglomerativeCluster(*graph),
      std::move(index).value(), std::nullopt,
      /*index_absent_degraded=*/false);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

// The one file form left is the snapshot container's.
TEST(EngineHimorIoTest, MissingSnapshotFileIsIoError) {
  Result<DecodedEpochSnapshot> r = LoadEpochSnapshotFile("/no/such/file.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace cod

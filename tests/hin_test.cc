#include "graph/hin.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/engine_core.h"
#include "core/query_workspace.h"
#include "influence/cascade_model.h"

namespace cod {
namespace {

// Toy bibliographic HIN: 3 authors, 3 papers, 2 venues.
//   a0 writes p0, p1;  a1 writes p0, p2;  a2 writes p1, p2.
//   p0, p1 at venue v0;  p2 at venue v1.
struct Biblio {
  HinGraph hin;
  NodeId a0, a1, a2, p0, p1, p2, v0, v1;
  NodeTypeId author, paper, venue;
};

Biblio MakeBiblio() {
  Biblio b;
  HinGraphBuilder builder;
  b.author = builder.InternType("author");
  b.paper = builder.InternType("paper");
  b.venue = builder.InternType("venue");
  b.a0 = builder.AddNode(b.author);
  b.a1 = builder.AddNode(b.author);
  b.a2 = builder.AddNode(b.author);
  b.p0 = builder.AddNode(b.paper);
  b.p1 = builder.AddNode(b.paper);
  b.p2 = builder.AddNode(b.paper);
  b.v0 = builder.AddNode(b.venue);
  b.v1 = builder.AddNode(b.venue);
  builder.AddEdge(b.a0, b.p0);
  builder.AddEdge(b.a0, b.p1);
  builder.AddEdge(b.a1, b.p0);
  builder.AddEdge(b.a1, b.p2);
  builder.AddEdge(b.a2, b.p1);
  builder.AddEdge(b.a2, b.p2);
  builder.AddEdge(b.p0, b.v0);
  builder.AddEdge(b.p1, b.v0);
  builder.AddEdge(b.p2, b.v1);
  b.hin = std::move(builder).Build();
  return b;
}

TEST(HinGraphTest, TypesAndLookup) {
  const Biblio b = MakeBiblio();
  EXPECT_EQ(b.hin.NumNodes(), 8u);
  EXPECT_EQ(b.hin.NumTypes(), 3u);
  EXPECT_EQ(b.hin.TypeOf(b.a0), b.author);
  EXPECT_EQ(b.hin.TypeOf(b.p2), b.paper);
  EXPECT_EQ(b.hin.TypeName(b.venue), "venue");
  EXPECT_EQ(b.hin.FindType("paper"), b.paper);
  EXPECT_EQ(b.hin.FindType("nope"), b.hin.NumTypes());
  EXPECT_EQ(b.hin.NodesOfType(b.author),
            (std::vector<NodeId>{b.a0, b.a1, b.a2}));
}

TEST(MetaPathTest, ApaCoAuthorship) {
  const Biblio b = MakeBiblio();
  const NodeTypeId apa[] = {b.author, b.paper, b.author};
  Result<MetaPathProjection> r = ProjectMetaPath(b.hin, apa);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Every author pair shares exactly one paper -> triangle of weight 1.
  EXPECT_EQ(r->graph.NumNodes(), 3u);
  EXPECT_EQ(r->graph.NumEdges(), 3u);
  for (EdgeId e = 0; e < r->graph.NumEdges(); ++e) {
    EXPECT_DOUBLE_EQ(r->graph.Weight(e), 1.0);
  }
  EXPECT_EQ(r->to_hin, (std::vector<NodeId>{b.a0, b.a1, b.a2}));
  EXPECT_EQ(r->truncated_sources, 0u);
}

TEST(MetaPathTest, ApvpaVenueCoAuthorship) {
  const Biblio b = MakeBiblio();
  // Author-Paper-Venue-Paper-Author: connected via shared venues.
  const NodeTypeId apvpa[] = {b.author, b.paper, b.venue, b.paper, b.author};
  Result<MetaPathProjection> r = ProjectMetaPath(b.hin, apvpa);
  ASSERT_TRUE(r.ok());
  // a0 and a1 both publish at v0 (a0 via p0/p1, a1 via p0): walk count
  // a0 -> {p0,p1} -> v0 (count 2) -> {p0,p1} -> a1 via p0 only: 2.
  const EdgeId e01 = r->graph.FindEdge(0, 1);
  ASSERT_NE(e01, kInvalidEdge);
  EXPECT_DOUBLE_EQ(r->graph.Weight(e01), 2.0);
  // a1-a2 share venue v1 via p2 on both sides and v0 via p0/p1: a1 -> {p0,p2}
  // -> v0 (1), v1 (1) -> papers -> a2: via v0: p1 (1) -> a2; via v1: p2 (1)
  // -> a2: total 2.
  const EdgeId e12 = r->graph.FindEdge(1, 2);
  ASSERT_NE(e12, kInvalidEdge);
  EXPECT_DOUBLE_EQ(r->graph.Weight(e12), 2.0);
}

TEST(MetaPathTest, SelfPathsAreExcludedFromEdges) {
  const Biblio b = MakeBiblio();
  const NodeTypeId apa[] = {b.author, b.paper, b.author};
  Result<MetaPathProjection> r = ProjectMetaPath(b.hin, apa);
  ASSERT_TRUE(r.ok());
  for (EdgeId e = 0; e < r->graph.NumEdges(); ++e) {
    const auto [u, v] = r->graph.Endpoints(e);
    EXPECT_NE(u, v);
  }
}

TEST(MetaPathTest, RejectsMalformedPaths) {
  const Biblio b = MakeBiblio();
  {
    const NodeTypeId too_short[] = {b.author, b.paper};
    EXPECT_FALSE(ProjectMetaPath(b.hin, too_short).ok());
  }
  {
    const NodeTypeId asymmetric[] = {b.author, b.paper, b.venue};
    EXPECT_FALSE(ProjectMetaPath(b.hin, asymmetric).ok());
  }
  {
    const NodeTypeId unknown[] = {b.author, 99, b.author};
    EXPECT_FALSE(ProjectMetaPath(b.hin, unknown).ok());
  }
}

TEST(MetaPathTest, TruncationCapDropsHubSources) {
  // Star of one paper with many authors: each author's APA expansion has
  // fan-out ~ |authors|; a tiny cap truncates every source.
  HinGraphBuilder builder;
  const NodeTypeId author = builder.InternType("author");
  const NodeTypeId paper = builder.InternType("paper");
  const NodeId p = builder.AddNode(paper);
  std::vector<NodeId> authors;
  for (int i = 0; i < 50; ++i) {
    const NodeId a = builder.AddNode(author);
    builder.AddEdge(a, p);
    authors.push_back(a);
  }
  const HinGraph hin = std::move(builder).Build();
  const NodeTypeId apa[] = {author, paper, author};
  MetaPathOptions options;
  options.max_paths_per_node = 10;
  Result<MetaPathProjection> r = ProjectMetaPath(hin, apa, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->truncated_sources, 50u);
  EXPECT_EQ(r->graph.NumEdges(), 0u);
  // Unlimited: a 50-clique.
  options.max_paths_per_node = 0;
  Result<MetaPathProjection> full = ProjectMetaPath(hin, apa, options);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->graph.NumEdges(), 50u * 49u / 2);
}

TEST(MetaPathTest, MultiplicityCountsParallelPaths) {
  // Two authors sharing TWO papers: APA weight 2.
  HinGraphBuilder builder;
  const NodeTypeId author = builder.InternType("author");
  const NodeTypeId paper = builder.InternType("paper");
  const NodeId a0 = builder.AddNode(author);
  const NodeId a1 = builder.AddNode(author);
  const NodeId p0 = builder.AddNode(paper);
  const NodeId p1 = builder.AddNode(paper);
  builder.AddEdge(a0, p0);
  builder.AddEdge(a0, p1);
  builder.AddEdge(a1, p0);
  builder.AddEdge(a1, p1);
  const HinGraph hin = std::move(builder).Build();
  const NodeTypeId apa[] = {author, paper, author};
  Result<MetaPathProjection> r = ProjectMetaPath(hin, apa);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->graph.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(r->graph.Weight(0), 2.0);
}

TEST(HinIntegrationTest, ProjectionFeedsWeightedCodPipeline) {
  // A larger bibliographic HIN: 3 fields of 20 authors; each field's papers
  // draw 2 coauthors from the field. The APA projection plus the
  // edge-weighted cascade model must support the full engine pipeline.
  HinGraphBuilder builder;
  const NodeTypeId author = builder.InternType("author");
  const NodeTypeId paper = builder.InternType("paper");
  std::vector<NodeId> authors;
  for (int i = 0; i < 60; ++i) authors.push_back(builder.AddNode(author));
  Rng rng(1);
  for (int p = 0; p < 180; ++p) {
    const NodeId paper_node = builder.AddNode(paper);
    const size_t field = rng.UniformInt(3);
    for (int i = 0; i < 2; ++i) {
      builder.AddEdge(authors[field * 20 + rng.UniformInt(20)], paper_node);
    }
  }
  const HinGraph hin = std::move(builder).Build();
  const NodeTypeId apa[] = {author, paper, author};
  Result<MetaPathProjection> projection = ProjectMetaPath(hin, apa);
  ASSERT_TRUE(projection.ok());
  ASSERT_GT(projection->graph.NumEdges(), 0u);

  // Field labels as attributes on the projected graph.
  AttributeTableBuilder ab;
  for (size_t i = 0; i < projection->to_hin.size(); ++i) {
    ab.Add(static_cast<NodeId>(i), "field" + std::to_string(i / 20));
  }
  const AttributeTable attrs =
      std::move(ab).Build(projection->graph.NumNodes());

  // Weighted-cascade-by-weight respects co-authorship multiplicity.
  const DiffusionModel model =
      DiffusionModel::EdgeWeightedCascadeIc(projection->graph);
  for (NodeId v = 0; v < projection->graph.NumNodes(); ++v) {
    double total = 0.0;
    for (const AdjEntry& a : projection->graph.Neighbors(v)) {
      total += model.ProbToward(a.edge, v);
    }
    if (projection->graph.Degree(v) > 0) {
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }

  EngineCore engine(projection->graph, attrs, {});
  Rng query_rng(2);
  ASSERT_TRUE(engine.TryBuildHimor(query_rng.Next()).ok());
  QueryWorkspace ws(engine, 0);
  ws.rng() = query_rng;
  int found = 0;
  for (NodeId q = 0; q < 20; ++q) {
    const auto own = attrs.AttributesOf(q);
    if (own.empty()) continue;
    found += engine.QueryCodL(q, own[0], 5, ws).found;
  }
  EXPECT_GT(found, 0);
}

}  // namespace
}  // namespace cod

// End-to-end COD query variants (CODU, CODR, CODL-, CODL, topic sets,
// explanations, promoters) driven through EngineCore and a QueryWorkspace.
#include "core/engine_core.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_workspace.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace cod {
namespace {

// A small planted-partition world shared by the query tests.
struct World {
  Graph graph;
  AttributeTable attrs;
};

World MakeWorld(uint64_t seed, size_t n = 300) {
  Rng rng(seed);
  HppParams params;
  params.num_nodes = n;
  params.num_edges = 4 * n;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  World w;
  w.attrs = AssignCorrelatedAttributes(gen.block, 5, 0.8, 0.1, rng);
  w.graph = std::move(gen.graph);
  return w;
}

AttributeId AnyAttributeOf(const AttributeTable& attrs, NodeId q) {
  const auto a = attrs.AttributesOf(q);
  return a.empty() ? kInvalidAttribute : a[0];
}

TEST(CodEngineTest, CoduFindsCommunityContainingQuery) {
  const World w = MakeWorld(1, 300);
  EngineCore engine(w.graph, w.attrs, {});
  QueryWorkspace ws(engine, 2);
  int found = 0;
  for (NodeId q = 0; q < 20; ++q) {
    const CodResult r = engine.QueryCodU(q, 5, ws);
    if (!r.found) continue;
    ++found;
    EXPECT_TRUE(std::find(r.members.begin(), r.members.end(), q) !=
                r.members.end());
    EXPECT_LT(r.rank, 5u);
    EXPECT_GE(r.num_levels, 1u);
  }
  EXPECT_GT(found, 0);
}

TEST(CodEngineTest, ResultSizeGrowsWithK) {
  const World w = MakeWorld(3, 300);
  EngineCore engine(w.graph, w.attrs, {});
  // Average over queries: |C*| with k=5 >= |C*| with k=1 (monotonicity the
  // paper reports in Fig. 7); per-query sampling noise is averaged out by
  // using the same rng stream lengths.
  double size_k1 = 0.0;
  double size_k5 = 0.0;
  QueryWorkspace ws(engine, 0);
  for (NodeId q = 0; q < 30; ++q) {
    ws.ReseedRng(100 + q);
    size_k1 += engine.QueryCodU(q, 1, ws).members.size();
    ws.ReseedRng(100 + q);
    size_k5 += engine.QueryCodU(q, 5, ws).members.size();
  }
  EXPECT_GE(size_k5, size_k1);
}

TEST(CodEngineTest, CodrUsesAttributeAwareHierarchy) {
  const World w = MakeWorld(4, 300);
  EngineCore engine(w.graph, w.attrs, {});
  QueryWorkspace ws(engine, 5);
  const NodeId q = 7;
  const AttributeId attr = AnyAttributeOf(w.attrs, q);
  ASSERT_NE(attr, kInvalidAttribute);
  const CodResult r = engine.QueryCodR(q, attr, 5, ws);
  if (r.found) {
    EXPECT_TRUE(std::find(r.members.begin(), r.members.end(), q) !=
                r.members.end());
  }
}

TEST(CodEngineTest, CodrCacheGivesSameResult) {
  const World w = MakeWorld(6, 300);
  EngineOptions cached_opts;
  cached_opts.cache_codr_hierarchies = true;
  EngineCore cached(w.graph, w.attrs, cached_opts);
  EngineCore uncached(w.graph, w.attrs, {});
  const NodeId q = 11;
  const AttributeId attr = AnyAttributeOf(w.attrs, q);
  QueryWorkspace ws_cached(cached, 7);
  QueryWorkspace ws_uncached(uncached, 7);
  const CodResult a = cached.QueryCodR(q, attr, 5, ws_cached);
  const CodResult b = uncached.QueryCodR(q, attr, 5, ws_uncached);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.members, b.members);
  // Second cached query hits the cache and must be identical again.
  ws_cached.ReseedRng(7);
  const CodResult c = cached.QueryCodR(q, attr, 5, ws_cached);
  EXPECT_TRUE(c.stats.codr_cache_hit);
  EXPECT_EQ(a.members, c.members);
}

TEST(CodEngineTest, CodlChainSplicesLocalAndGlobal) {
  const World w = MakeWorld(8, 300);
  EngineCore engine(w.graph, w.attrs, {});
  const NodeId q = 13;
  const AttributeId attr = AnyAttributeOf(w.attrs, q);
  const LoreChain lc = engine.BuildCodlChain(q, attr);
  ASSERT_GE(lc.chain.NumLevels(), 1u);
  // The top level is the whole graph.
  EXPECT_EQ(lc.chain.community_size.back(), w.graph.NumNodes());
  // Community sizes are non-decreasing.
  for (size_t h = 1; h < lc.chain.community_size.size(); ++h) {
    EXPECT_GE(lc.chain.community_size[h], lc.chain.community_size[h - 1]);
  }
  // The c_ell boundary level has exactly |C_ell| members.
  EXPECT_EQ(lc.chain.community_size[lc.local_levels - 1],
            engine.base_hierarchy().LeafCount(lc.c_ell));
  // q sits at level 0.
  EXPECT_EQ(lc.chain.level[q], 0u);
}

TEST(CodEngineTest, CodlMinusRuns) {
  const World w = MakeWorld(9, 300);
  EngineCore engine(w.graph, w.attrs, {});
  QueryWorkspace ws(engine, 10);
  int found = 0;
  for (NodeId q = 0; q < 15; ++q) {
    const AttributeId attr = AnyAttributeOf(w.attrs, q);
    const CodResult r = engine.QueryCodLMinus(q, attr, 5, ws);
    if (r.found) {
      ++found;
      EXPECT_TRUE(std::find(r.members.begin(), r.members.end(), q) !=
                  r.members.end());
    }
  }
  EXPECT_GT(found, 0);
}

TEST(CodEngineTest, CodlRequiresAndUsesHimor) {
  const World w = MakeWorld(11, 300);
  EngineCore engine(w.graph, w.attrs, {});
  Rng rng(12);
  ASSERT_TRUE(engine.TryBuildHimor(rng.Next()).ok());
  ASSERT_NE(engine.himor(), nullptr);
  QueryWorkspace ws(engine, 0);
  ws.rng() = rng;  // continue the stream TryBuildHimor consumed from
  int found = 0;
  int from_index = 0;
  for (NodeId q = 0; q < 25; ++q) {
    const AttributeId attr = AnyAttributeOf(w.attrs, q);
    const CodResult r = engine.QueryCodL(q, attr, 5, ws);
    if (r.found) {
      ++found;
      from_index += r.answered_from_index;
      EXPECT_TRUE(std::find(r.members.begin(), r.members.end(), q) !=
                  r.members.end());
    }
  }
  EXPECT_GT(found, 0);
  // Most queries on a well-mixed graph resolve from the index.
  EXPECT_GT(from_index, 0);
}

TEST(CodEngineTest, LtModelEndToEnd) {
  const World w = MakeWorld(13, 200);
  EngineOptions options;
  options.diffusion = DiffusionKind::kLinearThreshold;
  EngineCore engine(w.graph, w.attrs, options);
  Rng rng(14);
  ASSERT_TRUE(engine.TryBuildHimor(rng.Next()).ok());
  QueryWorkspace ws(engine, 0);
  ws.rng() = rng;
  const NodeId q = 3;
  const AttributeId attr = AnyAttributeOf(w.attrs, q);
  const CodResult u = engine.QueryCodU(q, 5, ws);
  const CodResult l = engine.QueryCodL(q, attr, 5, ws);
  // Smoke assertions: queries complete and communities contain q when found.
  if (u.found) {
    EXPECT_TRUE(std::find(u.members.begin(), u.members.end(), q) !=
                u.members.end());
  }
  if (l.found) {
    EXPECT_TRUE(std::find(l.members.begin(), l.members.end(), q) !=
                l.members.end());
  }
}

TEST(CodEngineTest, TopicSetQueriesRun) {
  const World w = MakeWorld(20, 300);
  EngineCore engine(w.graph, w.attrs, {});
  Rng rng(21);
  ASSERT_TRUE(engine.TryBuildHimor(rng.Next()).ok());
  QueryWorkspace ws(engine, 0);
  ws.rng() = rng;
  int found = 0;
  for (NodeId q = 0; q < 15; ++q) {
    const auto own = w.attrs.AttributesOf(q);
    if (own.empty()) continue;
    // Topic set: the node's own attribute plus one other.
    std::vector<AttributeId> topics(own.begin(), own.end());
    topics.push_back((own[0] + 1) % static_cast<AttributeId>(
                                        w.attrs.NumAttributes()));
    const CodResult r = engine.QueryCodL(
        q, std::span<const AttributeId>(topics), 5, ws);
    if (r.found) {
      ++found;
      EXPECT_TRUE(std::find(r.members.begin(), r.members.end(), q) !=
                  r.members.end());
    }
    // Variants accept topic sets too.
    engine.QueryCodLMinus(q, std::span<const AttributeId>(topics), 5, ws);
    engine.QueryCodR(q, std::span<const AttributeId>(topics), 5, ws);
  }
  EXPECT_GT(found, 0);
}

TEST(CodEngineTest, SingletonTopicSetMatchesSingleAttribute) {
  const World w = MakeWorld(22, 300);
  EngineCore engine(w.graph, w.attrs, {});
  Rng rng(23);
  ASSERT_TRUE(engine.TryBuildHimor(rng.Next()).ok());
  QueryWorkspace ws(engine, 0);
  for (NodeId q = 0; q < 10; ++q) {
    const auto own = w.attrs.AttributesOf(q);
    if (own.empty()) continue;
    const AttributeId attr = own[0];
    ws.ReseedRng(100 + q);
    const CodResult a = engine.QueryCodL(q, attr, 5, ws);
    ws.ReseedRng(100 + q);
    const CodResult b = engine.QueryCodL(
        q, std::span<const AttributeId>(&attr, 1), 5, ws);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.members, b.members);
  }
}

TEST(CodEngineTest, IndexedCoduIsTopKConsistentWithSampledCodu) {
  const World w = MakeWorld(40, 300);
  EngineOptions options;
  options.theta = 40;  // extra samples tighten agreement
  EngineCore engine(w.graph, w.attrs, options);
  Rng rng(41);
  ASSERT_TRUE(engine.TryBuildHimor(rng.Next()).ok());
  QueryWorkspace ws(engine, 0);
  size_t agree = 0;
  size_t total = 0;
  for (NodeId q = 0; q < 25; ++q) {
    const CodResult indexed = engine.QueryCodUIndexed(q, 5);
    ws.ReseedRng(300 + q);
    const CodResult sampled = engine.QueryCodU(q, 5, ws);
    ++total;
    // Different sample pools: exact equality is not guaranteed, but both
    // must agree on "found" for a clear majority and the indexed community
    // must contain q.
    agree += indexed.found == sampled.found;
    if (indexed.found) {
      EXPECT_TRUE(std::find(indexed.members.begin(), indexed.members.end(),
                            q) != indexed.members.end());
      EXPECT_LT(indexed.rank, 5u);
    }
  }
  EXPECT_GE(agree * 3, total * 2);  // >= 2/3 agreement
}

TEST(CodEngineTest, ExplainCodLMatchesQueryAndNarrates) {
  const World w = MakeWorld(30, 300);
  EngineCore engine(w.graph, w.attrs, {});
  Rng rng(31);
  ASSERT_TRUE(engine.TryBuildHimor(rng.Next()).ok());
  QueryWorkspace ws(engine, 0);
  int explained = 0;
  for (NodeId q = 0; q < 12; ++q) {
    const auto own = w.attrs.AttributesOf(q);
    if (own.empty()) continue;
    ws.ReseedRng(200 + q);
    const CodResult direct = engine.QueryCodL(q, own[0], 5, ws);
    ws.ReseedRng(200 + q);
    const auto explanation = engine.ExplainCodL(q, own[0], 5, ws);
    EXPECT_EQ(explanation.result.found, direct.found);
    EXPECT_EQ(explanation.result.members, direct.members);
    EXPECT_EQ(explanation.c_ell_size,
              engine.base_hierarchy().LeafCount(explanation.scores.Selected()));
    if (explanation.index_hit) {
      EXPECT_TRUE(explanation.result.answered_from_index);
      EXPECT_EQ(explanation.result.members.size(),
                engine.base_hierarchy().LeafCount(
                    explanation.index_community));
    }
    const std::string text =
        explanation.ToString(engine.base_hierarchy());
    EXPECT_NE(text.find("LORE chain"), std::string::npos);
    EXPECT_NE(text.find("C_ell"), std::string::npos);
    EXPECT_NE(text.find("result:"), std::string::npos);
    ++explained;
  }
  EXPECT_GT(explained, 0);
}

TEST(CodEngineTest, FindTopPromotersReturnsVerifiedHolders) {
  const World w = MakeWorld(24, 300);
  EngineCore engine(w.graph, w.attrs, {});
  Rng rng(25);
  ASSERT_TRUE(engine.TryBuildHimor(rng.Next()).ok());
  const AttributeId attr = 0;
  const auto promoters = engine.FindTopPromoters(attr, 5, 5);
  ASSERT_FALSE(promoters.empty());
  for (size_t i = 0; i < promoters.size(); ++i) {
    EXPECT_TRUE(w.attrs.Has(promoters[i].node, attr));
    EXPECT_LT(promoters[i].rank, 5u);
    EXPECT_EQ(promoters[i].size,
              engine.base_hierarchy().LeafCount(promoters[i].community));
    EXPECT_TRUE(engine.base_hierarchy().Contains(promoters[i].community,
                                                 promoters[i].node));
    if (i > 0) {
      EXPECT_GE(promoters[i - 1].size, promoters[i].size);
    }
  }
}

TEST(CodEngineTest, DeterministicGivenSeeds) {
  const World w = MakeWorld(15, 300);
  EngineCore e1(w.graph, w.attrs, {});
  EngineCore e2(w.graph, w.attrs, {});
  QueryWorkspace ws1(e1, 16);
  QueryWorkspace ws2(e2, 16);
  const NodeId q = 5;
  const CodResult a = e1.QueryCodU(q, 5, ws1);
  const CodResult b = e2.QueryCodU(q, 5, ws2);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.rank, b.rank);
}

}  // namespace
}  // namespace cod

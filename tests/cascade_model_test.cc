#include "influence/cascade_model.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/test_util.h"

namespace cod {
namespace {

TEST(CascadeModelTest, WeightedCascadeProbabilities) {
  // Path 0-1-2: p(u,v) = 1/deg(v).
  const Graph g = testing::MakePath(3);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  EXPECT_EQ(m.kind(), DiffusionKind::kIndependentCascade);
  const EdgeId e01 = g.FindEdge(0, 1);
  const EdgeId e12 = g.FindEdge(1, 2);
  EXPECT_DOUBLE_EQ(m.ProbToward(e01, 1), 0.5);   // deg(1) = 2
  EXPECT_DOUBLE_EQ(m.ProbToward(e01, 0), 1.0);   // deg(0) = 1
  EXPECT_DOUBLE_EQ(m.ProbToward(e12, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.ProbToward(e12, 1), 0.5);
}

TEST(CascadeModelTest, UniformIc) {
  const Graph g = testing::MakeClique(4);
  const DiffusionModel m = DiffusionModel::UniformIc(g, 0.25);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [lo, hi] = g.Endpoints(e);
    EXPECT_DOUBLE_EQ(m.ProbToward(e, lo), 0.25);
    EXPECT_DOUBLE_EQ(m.ProbToward(e, hi), 0.25);
  }
}

TEST(CascadeModelTest, LtInWeightsSumToOne) {
  const Graph g = testing::MakeTwoCliquesWithBridge(4);
  const DiffusionModel m = DiffusionModel::WeightedCascadeLt(g);
  EXPECT_EQ(m.kind(), DiffusionKind::kLinearThreshold);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    double total = 0.0;
    for (const AdjEntry& a : g.Neighbors(v)) {
      total += m.ProbToward(a.edge, v);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(CascadeModelTest, TrivalencyDrawsFromThreeLevels) {
  const Graph g = testing::MakeClique(8);
  Rng rng(1);
  const DiffusionModel m = DiffusionModel::TrivalencyIc(g, rng);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [lo, hi] = g.Endpoints(e);
    for (NodeId to : {lo, hi}) {
      const double p = m.ProbToward(e, to);
      EXPECT_TRUE(p == 0.1 || p == 0.01 || p == 0.001) << p;
    }
  }
}

TEST(CascadeModelTest, TrivalencyDeterministicPerSeed) {
  const Graph g = testing::MakeClique(6);
  Rng rng1(2);
  Rng rng2(2);
  const DiffusionModel a = DiffusionModel::TrivalencyIc(g, rng1);
  const DiffusionModel b = DiffusionModel::TrivalencyIc(g, rng2);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [lo, hi] = g.Endpoints(e);
    EXPECT_EQ(a.ProbToward(e, lo), b.ProbToward(e, lo));
    EXPECT_EQ(a.ProbToward(e, hi), b.ProbToward(e, hi));
  }
}

TEST(CascadeModelTest, GraphAccessor) {
  const Graph g = testing::MakePath(2);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  EXPECT_EQ(&m.graph(), &g);
}

}  // namespace
}  // namespace cod

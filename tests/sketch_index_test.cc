// Coverage-sketch index suite (influence/coverage_sketch.h): the bottom-k
// signature algebra, bit-identical 1-/4-thread and cold delta builds, the
// answer-preserving prune property (sketch_prune on vs off must be
// bit-identical on every exact query), the approximate sketch rung, the
// kSketch snapshot section, and the "influence/sketch_build" failpoint.
//
// CI shards override the fuzz stream via COD_FUZZ_SEED; the per-test
// offset keeps the instantiations distinct within a shard.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/task_scheduler.h"
#include "core/query_batch.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "influence/coverage_sketch.h"
#include "serving/dynamic_service.h"
#include "storage/epoch_snapshot.h"
#include "tests/test_util.h"

namespace cod {
namespace {

namespace fs = std::filesystem;

uint64_t FuzzSeed(uint64_t offset) {
  const char* env = std::getenv("COD_FUZZ_SEED");
  const uint64_t base =
      (env == nullptr || *env == '\0') ? 0 : std::strtoull(env, nullptr, 10);
  return base + offset;
}

using testing::MakeMultiComponentWorld;
using testing::World;

World MakeWorld(uint64_t seed, size_t n = 200) {
  Rng rng(seed);
  HppParams params;
  params.num_nodes = n;
  params.num_edges = 4 * n;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  World w;
  w.attrs = AssignCorrelatedAttributes(gen.block, 4, 0.8, 0.1, rng);
  w.graph = std::move(gen.graph);
  return w;
}

Graph CopyGraph(const Graph& g) {
  GraphBuilder b(g.NumNodes());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    b.AddEdge(u, v, g.Weight(e));
  }
  return std::move(b).Build();
}

EngineOptions SketchOpts(uint32_t bits = 5) {
  EngineOptions o;
  o.theta = 16;
  o.sketch_bits = bits;
  return o;
}

std::string SketchBytes(const EngineCore& core) {
  BinaryBufferWriter w;
  EXPECT_NE(core.sketch(), nullptr);
  if (core.sketch() != nullptr) core.sketch()->SerializeTo(w);
  return std::move(w).TakeBytes();
}

std::string HimorBytes(const EngineCore& core) {
  BinaryBufferWriter w;
  EXPECT_NE(core.himor(), nullptr);
  if (core.himor() != nullptr) core.himor()->SerializeTo(w);
  return std::move(w).TakeBytes();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sketch_index_test-" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Bottom-k signature algebra.
// ---------------------------------------------------------------------------

TEST(BottomKAlgebraTest, InsertKeepsSmallestDistinctValues) {
  std::vector<uint64_t> sig;
  for (uint64_t v : {50u, 10u, 30u, 10u, 70u, 20u, 40u, 50u}) {
    BottomKInsert(&sig, v, /*cap=*/4);
  }
  EXPECT_EQ(sig, (std::vector<uint64_t>{10, 20, 30, 40}));
  // A value above a full signature's max is a no-op.
  BottomKInsert(&sig, 99, 4);
  EXPECT_EQ(sig.back(), 40u);
  // A smaller value displaces the max.
  BottomKInsert(&sig, 5, 4);
  EXPECT_EQ(sig, (std::vector<uint64_t>{5, 10, 20, 30}));
}

TEST(BottomKAlgebraTest, MergeIsAssociativeCommutativeIdempotent) {
  // Small value universe on purpose: collisions across the inputs exercise
  // the distinct-value semantics that make the union an algebra at all.
  Rng rng(FuzzSeed(1) + 0x99);
  const size_t cap = 8;
  for (int trial = 0; trial < 64; ++trial) {
    const auto make = [&rng, cap] {
      std::vector<uint64_t> sig;
      const size_t len = rng.UniformInt(2 * cap);
      for (size_t i = 0; i < len; ++i) {
        BottomKInsert(&sig, rng.UniformInt(48), cap);
      }
      return sig;
    };
    const std::vector<uint64_t> a = make();
    const std::vector<uint64_t> b = make();
    const std::vector<uint64_t> c = make();
    std::vector<uint64_t> ab, ba, ab_c, bc, a_bc, aa;
    BottomKMerge(a, b, cap, &ab);
    BottomKMerge(b, a, cap, &ba);
    EXPECT_EQ(ab, ba) << "trial " << trial;
    BottomKMerge(ab, c, cap, &ab_c);
    BottomKMerge(b, c, cap, &bc);
    BottomKMerge(a, bc, cap, &a_bc);
    EXPECT_EQ(ab_c, a_bc) << "trial " << trial;
    BottomKMerge(a, a, cap, &aa);
    EXPECT_EQ(aa, a) << "trial " << trial;
  }
}

TEST(BottomKAlgebraTest, EstimateIsExactWhileUnderFull) {
  std::vector<uint64_t> sig;
  EXPECT_DOUBLE_EQ(BottomKEstimate(sig, 8), 0.0);
  for (uint64_t v : {1u, 5u, 9u}) BottomKInsert(&sig, v, 8);
  EXPECT_DOUBLE_EQ(BottomKEstimate(sig, 8), 3.0);
}

TEST(BottomKAlgebraTest, FullEstimatorTracksDistinctCardinality) {
  // 3000 uniform 64-bit ranks into a cap-64 signature: the (cap-1)/U_cap
  // estimator should land within ~3/sqrt(cap-1) relative error.
  const size_t cap = 64;
  std::vector<uint64_t> sig;
  for (NodeId v = 0; v < 3000; ++v) {
    BottomKInsert(&sig, SketchNodeRank(FuzzSeed(2) + 0xabc, v), cap);
  }
  ASSERT_EQ(sig.size(), cap);
  const double est = BottomKEstimate(sig, cap);
  EXPECT_GT(est, 3000.0 * 0.6);
  EXPECT_LT(est, 3000.0 * 1.4);
}

// ---------------------------------------------------------------------------
// Build identity and structural invariants.
// ---------------------------------------------------------------------------

// The cold build without carry and a cold delta build that records carry
// write the same HIMOR and sketch bytes, mono and component-scoped alike,
// and so does the cold delta build with its stage-1 source ranges fanned out
// on a 4-worker scheduler. The larger world (4,200 nodes at theta 16)
// splits into several ranges.
TEST(SketchBuildTest, SerialAndParallelBuildsBitIdentical) {
  for (const size_t part_nodes : {70, 1400}) {
    SCOPED_TRACE(part_nodes);
    const World w = MakeMultiComponentWorld(FuzzSeed(3), part_nodes);
    if (part_nodes == 1400) {
      ASSERT_GE(HimorIndex::NumStageOneRanges(w.graph.NumNodes(),
                                              SketchOpts().theta),
                3u);
    }
    const uint64_t rng_seed = 77;
    Rng seeder(rng_seed);
    const uint64_t schedule_seed = seeder.Next();  // a caller's one draw

    std::string mono_himor;
    for (const bool scoped : {false, true}) {
      SCOPED_TRACE(scoped ? "component_scoped" : "mono");
      EngineOptions opts = SketchOpts();
      opts.component_scoped = scoped;

      EngineCore serial(w.graph, w.attrs, opts);
      Rng rng(rng_seed);
      ASSERT_TRUE(serial.TryBuildHimor(rng.Next()).ok());
      ASSERT_NE(serial.sketch(), nullptr);
      EXPECT_EQ(serial.sketch()->schedule_seed(), schedule_seed);
      EXPECT_EQ(serial.sketch()->theta(), SketchOpts().theta);
      EXPECT_EQ(serial.sketch()->NumNodes(), w.graph.NumNodes());

      EngineCore cold_delta(w.graph, w.attrs, opts);
      HimorSampleCache cache;
      HimorDeltaStats stats;
      ASSERT_TRUE(cold_delta
                      .TryBuildHimorDelta(schedule_seed, {}, nullptr, nullptr,
                                          &cache, &stats)
                      .ok());

      TaskScheduler sched(4);
      EngineCore fanned(w.graph, w.attrs, opts);
      HimorSampleCache fanned_cache;
      ASSERT_TRUE(fanned
                      .TryBuildHimorDelta(schedule_seed, {}, nullptr, nullptr,
                                          &fanned_cache, &stats, &sched)
                      .ok());

      const std::string himor = HimorBytes(serial);
      EXPECT_EQ(himor, HimorBytes(cold_delta));
      EXPECT_EQ(himor, HimorBytes(fanned));
      const std::string sketch = SketchBytes(serial);
      EXPECT_EQ(sketch, SketchBytes(cold_delta));
      EXPECT_EQ(sketch, SketchBytes(fanned));
      EXPECT_TRUE(testing::SameCarry(fanned_cache, cache));
      if (scoped) {
        // Scoping matters on this world: impure communities are dropped.
        EXPECT_NE(himor, mono_himor);
      } else {
        mono_himor = himor;
      }
    }
  }
}

TEST(SketchBuildTest, ThresholdAndSignatureInvariants) {
  const World w = MakeWorld(FuzzSeed(4));
  EngineCore core(w.graph, w.attrs, SketchOpts());
  Rng rng(5);
  ASSERT_TRUE(core.TryBuildHimor(rng.Next()).ok());
  ASSERT_NE(core.sketch(), nullptr);
  const CoverageSketchIndex& sk = *core.sketch();
  size_t materialized = 0;
  for (size_t ci = 0; ci < sk.NumCommunities(); ++ci) {
    const CommunityId c = static_cast<CommunityId>(ci);
    const auto thr = sk.ThresholdsOf(c);
    const auto sig = sk.SignatureOf(c);
    EXPECT_LE(thr.size(), sk.rank_depth());
    EXPECT_LE(thr.size(), sk.SupportOf(c));
    for (size_t i = 1; i < thr.size(); ++i) EXPECT_LE(thr[i], thr[i - 1]);
    EXPECT_LE(sig.size(), sk.sketch_cap());
    for (size_t i = 1; i < sig.size(); ++i) EXPECT_LT(sig[i - 1], sig[i]);
    if (!thr.empty()) ++materialized;
    // The one-sided prune bound and the rung's rank estimate must agree:
    // ProvesNotTopK(c, k, t) iff at least k stored thresholds beat t.
    for (uint32_t k : {1u, 2u, 5u}) {
      for (uint32_t t : {0u, 1u, 3u, 100u}) {
        EXPECT_EQ(sk.ProvesNotTopK(c, k, t),
                  k <= thr.size() && sk.EstimatedRank(c, t) >= k)
            << "c=" << c << " k=" << k << " t=" << t;
      }
    }
  }
  EXPECT_GT(materialized, 0u);
  // Out-of-range communities (incl. kInvalidCommunity) never prove anything.
  EXPECT_FALSE(sk.ProvesNotTopK(kInvalidCommunity, 1, 0));
}

TEST(SketchBuildTest, SketchBuildFailpointDropsSketchKeepsIndex) {
  const World w = MakeWorld(FuzzSeed(5));
  EngineCore core(w.graph, w.attrs, SketchOpts());
  {
    ScopedFailpoint fp("influence/sketch_build", /*count=*/1);
    Rng rng(6);
    ASSERT_TRUE(core.TryBuildHimor(rng.Next()).ok());
  }
  EXPECT_NE(core.himor(), nullptr);
  EXPECT_EQ(core.sketch(), nullptr);
  // Sketch loss degrades latency only: exact queries still serve.
  QueryWorkspace ws(core, 1);
  EXPECT_EQ(core.QueryCodU(0, 3, ws).code, StatusCode::kOk);
  // Rebuilding without the failpoint restores the sketch.
  Rng rng2(6);
  ASSERT_TRUE(core.TryBuildHimor(rng2.Next()).ok());
  EXPECT_NE(core.sketch(), nullptr);
}

// ---------------------------------------------------------------------------
// The prune property: sketch_prune on vs off is bit-identical on every
// exact query (the sketch bound is one-sided, the pool schedule pinned).
// ---------------------------------------------------------------------------

class SketchPruneTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SketchPruneTest, PruningNeverChangesExactAnswers) {
  const uint64_t seed = FuzzSeed(GetParam());
  const World w = MakeWorld(seed);
  EngineOptions off_opts = SketchOpts();
  off_opts.sketch_prune = false;
  EngineCore pruned(w.graph, w.attrs, SketchOpts());
  EngineCore plain(w.graph, w.attrs, off_opts);
  ASSERT_TRUE(pruned.TryBuildHimor(seed + 1).ok());
  ASSERT_TRUE(plain.TryBuildHimor(seed + 1).ok());
  ASSERT_NE(pruned.sketch(), nullptr);

  size_t levels_pruned = 0;
  QueryWorkspace ws_a(pruned, 0);
  QueryWorkspace ws_b(plain, 0);
  for (NodeId q = 0; q < w.graph.NumNodes(); ++q) {
    for (uint32_t k : {1u, 2u, 5u}) {
      ws_a.ReseedRng(900 + q);
      ws_b.ReseedRng(900 + q);
      const CodResult a = pruned.QueryCodU(q, k, ws_a);
      const CodResult b = plain.QueryCodU(q, k, ws_b);
      EXPECT_TRUE(testing::SameResult(a, b)) << "CODU q=" << q << " k=" << k;
      levels_pruned += a.stats.sketch_levels_pruned;
    }
    const auto attrs = w.attrs.AttributesOf(q);
    if (attrs.empty()) continue;
    ws_a.ReseedRng(7000 + q);
    ws_b.ReseedRng(7000 + q);
    const CodResult a = pruned.QueryCodLMinus(q, attrs[0], 4, ws_a);
    const CodResult b = plain.QueryCodLMinus(q, attrs[0], 4, ws_b);
    EXPECT_TRUE(testing::SameResult(a, b)) << "CODL- q=" << q;
    levels_pruned += a.stats.sketch_levels_pruned;
    ws_a.ReseedRng(8000 + q);
    ws_b.ReseedRng(8000 + q);
    const CodResult a2 = pruned.QueryCodL(q, attrs[0], 4, ws_a);
    const CodResult b2 = plain.QueryCodL(q, attrs[0], 4, ws_b);
    EXPECT_TRUE(testing::SameResult(a2, b2)) << "CODL q=" << q;
    levels_pruned += a2.stats.sketch_levels_pruned;
  }
  // The suite proves pruning is SAFE above; this proves it actually FIRES
  // (an inert guide would pass the equality checks trivially).
  EXPECT_GT(levels_pruned, 0u);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SketchPruneTest, ::testing::Values(31, 32, 33));

// ---------------------------------------------------------------------------
// The sketch rung.
// ---------------------------------------------------------------------------

TEST(SketchRungTest, DirectSketchQueriesAlwaysDegraded) {
  const World w = MakeWorld(FuzzSeed(61));
  EngineCore core(w.graph, w.attrs, SketchOpts());
  Rng rng(13);
  ASSERT_TRUE(core.TryBuildHimor(rng.Next()).ok());
  QueryWorkspace ws(core, 1);
  size_t found = 0;
  for (NodeId q = 0; q < w.graph.NumNodes(); q += 3) {
    QuerySpec spec;
    spec.variant = CodVariant::kCodSketch;
    spec.node = q;
    spec.k = 3;
    const CodResult r = core.Query(spec, ws);
    EXPECT_EQ(r.code, StatusCode::kOk);
    EXPECT_TRUE(r.degraded) << "q=" << q;
    EXPECT_EQ(r.variant_served, CodVariant::kCodSketch);
    if (r.found) {
      ++found;
      EXPECT_TRUE(r.answered_from_index);
      EXPECT_NE(std::find(r.members.begin(), r.members.end(), q),
                r.members.end())
          << "answer community must contain q";
    }
  }
  EXPECT_GT(found, 0u);
}

TEST(SketchRungTest, ShedBatchBottomsOutInSketchRung) {
  // Extreme admission shedding clamps every ladder to its cheapest rung;
  // with a sketch present that rung is CODSKETCH, and every shed answer
  // must equal a direct sketch query (the rung is deterministic — no rng).
  const World w = MakeWorld(FuzzSeed(62));
  EngineCore core(w.graph, w.attrs, SketchOpts());
  ASSERT_TRUE(core.TryBuildHimor(17).ok());
  ASSERT_NE(core.sketch(), nullptr);

  std::vector<QuerySpec> specs;
  for (NodeId q = 0; q < 30; ++q) {
    QuerySpec spec;
    spec.variant = q % 2 == 0 ? CodVariant::kCodU : CodVariant::kCodUIndexed;
    spec.node = q;
    spec.k = 3;
    specs.push_back(spec);
  }
  BatchOptions options;
  options.shed_rungs = 99;  // clamped to the last rung of every ladder
  TaskScheduler pool(2);
  BatchStats stats;
  const std::vector<CodResult> results =
      RunQueryBatch(core, specs, pool, /*batch_seed=*/5, options, &stats);

  QueryWorkspace ws(core, 0);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].code, StatusCode::kOk) << "spec " << i;
    EXPECT_TRUE(results[i].degraded) << "spec " << i;
    EXPECT_EQ(results[i].variant_served, CodVariant::kCodSketch)
        << "spec " << i;
    QuerySpec direct = specs[i];
    direct.variant = CodVariant::kCodSketch;
    const CodResult want = core.Query(direct, ws);
    EXPECT_EQ(results[i].found, want.found) << "spec " << i;
    EXPECT_EQ(results[i].members, want.members) << "spec " << i;
    EXPECT_EQ(results[i].rank, want.rank) << "spec " << i;
  }
  EXPECT_EQ(stats.degraded, specs.size());
  EXPECT_EQ(stats.per_rung[0], 0u);
}

TEST(SketchRungTest, RungAbsentWhenDisabledOrSketchless) {
  // sketch_rung = false (or no sketch at all): the shed ladder bottoms out
  // in the exact index rung exactly as before this feature existed.
  const World w = MakeWorld(FuzzSeed(63));
  EngineOptions no_rung = SketchOpts();
  no_rung.sketch_rung = false;
  EngineCore core(w.graph, w.attrs, no_rung);
  ASSERT_TRUE(core.TryBuildHimor(19).ok());

  std::vector<QuerySpec> specs;
  for (NodeId q = 0; q < 12; ++q) {
    QuerySpec spec;
    spec.variant = CodVariant::kCodU;
    spec.node = q;
    spec.k = 3;
    specs.push_back(spec);
  }
  BatchOptions options;
  options.shed_rungs = 99;
  TaskScheduler pool(2);
  const std::vector<CodResult> results =
      RunQueryBatch(core, specs, pool, 5, options);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].variant_served, CodVariant::kCodUIndexed)
        << "spec " << i;
  }
}

// ---------------------------------------------------------------------------
// Snapshot persistence (kSketch section, container v3).
// ---------------------------------------------------------------------------

TEST(SketchSnapshotTest, EncodeDecodeRoundTripsSketchSection) {
  const World w = MakeWorld(FuzzSeed(41));
  EngineCore core(w.graph, w.attrs, SketchOpts());
  Rng rng(9);
  ASSERT_TRUE(core.TryBuildHimor(rng.Next()).ok());
  ASSERT_NE(core.sketch(), nullptr);
  EpochSnapshotMeta meta;
  meta.epoch = 3;
  const std::string bytes = EncodeEpochSnapshot(meta, core);
  const Result<DecodedEpochSnapshot> decoded =
      DecodeEpochSnapshot(bytes, "sketch-roundtrip");
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ASSERT_TRUE(decoded.value().sketch.has_value());
  BinaryBufferWriter wtr;
  decoded.value().sketch->SerializeTo(wtr);
  EXPECT_EQ(wtr.bytes(), SketchBytes(core));

  // A sketchless core writes no kSketch section and decodes sketch-less.
  EngineCore bare(w.graph, w.attrs, EngineOptions{});
  Rng rng2(9);
  ASSERT_TRUE(bare.TryBuildHimor(rng2.Next()).ok());
  const Result<DecodedEpochSnapshot> decoded2 =
      DecodeEpochSnapshot(EncodeEpochSnapshot(meta, bare), "bare-roundtrip");
  ASSERT_TRUE(decoded2.ok()) << decoded2.status().message();
  EXPECT_FALSE(decoded2.value().sketch.has_value());
}

TEST(SketchSnapshotTest, WarmRestartRestoresSketchBitForBit) {
  const std::string dir = FreshDir("warm");
  World w = MakeWorld(FuzzSeed(42));
  const size_t n = w.graph.NumNodes();
  ServiceOptions options;
  options.seed = 11;
  options.snapshot_dir = dir;
  options.rebuild_threshold = 1e9;
  options.engine.theta = 16;
  options.engine.sketch_bits = 5;
  ASSERT_TRUE(options.Validate().ok());

  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);
  ASSERT_NE(service.Snapshot().core->sketch(), nullptr);
  const std::string want = SketchBytes(*service.Snapshot().core);

  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  const DynamicCodService::EpochSnapshot snap = recovered.value()->Snapshot();
  ASSERT_NE(snap.core->sketch(), nullptr);
  EXPECT_EQ(SketchBytes(*snap.core), want);

  // Restored sketch serves the rung identically to the writer.
  QueryWorkspace ws_a(*service.Snapshot().core, 1);
  QueryWorkspace ws_b(*snap.core, 1);
  for (NodeId q = 0; q < n; q += 9) {
    QuerySpec spec;
    spec.variant = CodVariant::kCodSketch;
    spec.node = q;
    spec.k = 3;
    const CodResult a = service.Snapshot().core->Query(spec, ws_a);
    const CodResult b = snap.core->Query(spec, ws_b);
    EXPECT_TRUE(testing::SameResult(a, b)) << "q=" << q;
  }
}

TEST(SketchSnapshotTest, FingerprintCoversSketchBitsNotLatencyKnobs) {
  const ServiceOptions a;
  ServiceOptions b = a;
  b.engine.sketch_bits = 6;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint())
      << "sketch_bits shapes persisted state; it must gate warm restore";
  ServiceOptions c = a;
  c.engine.sketch_prune = false;
  c.engine.sketch_rung = false;
  EXPECT_EQ(a.Fingerprint(), c.Fingerprint())
      << "prune/rung are latency knobs; flipping them must not cost a "
         "warm restart";
}

TEST(SketchSnapshotTest, ValidateRejectsOversizedSketchBits) {
  ServiceOptions options;
  options.engine.sketch_bits = 17;
  EXPECT_FALSE(options.Validate().ok());
  options.engine.sketch_bits = 16;
  EXPECT_TRUE(options.Validate().ok());
}

// ---------------------------------------------------------------------------
// Delta rebuilds carry the sketch: a delta chain's sketch is bit-identical
// to a cold rebuild's on the same final edge set.
// ---------------------------------------------------------------------------

TEST(SketchDeltaTest, DeltaChainSketchMatchesColdRebuild) {
  const uint64_t seed = FuzzSeed(51);
  World w = MakeWorld(seed, 160);
  World w2 = MakeWorld(seed, 160);  // deterministic twin for the cold side
  const size_t n = w.graph.NumNodes();
  ServiceOptions options;
  options.seed = 7;
  options.delta_rebuild = true;
  options.rebuild_threshold = 1e9;  // rebuilds only via explicit Refresh()
  options.delta_max_dirty_fraction = 1.0;
  options.engine.theta = 16;
  options.engine.sketch_bits = 5;

  DynamicCodService delta(std::move(w.graph), std::move(w.attrs), options);
  Rng updates(seed ^ 0x5ca1ab1e);
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 6; ++i) {
      const NodeId u = static_cast<NodeId>(updates.UniformInt(n));
      const NodeId v = static_cast<NodeId>(updates.UniformInt(n));
      if (u == v) continue;
      if (updates.UniformInt(3) == 0) {
        delta.RemoveEdge(u, v);
      } else {
        delta.AddEdge(u, v, 1.0 + 0.25 * updates.UniformInt(4));
      }
    }
    ASSERT_TRUE(delta.Refresh().ok());
  }

  const DynamicCodService::EpochSnapshot evolved = delta.Snapshot();
  ASSERT_NE(evolved.core->sketch(), nullptr);
  DynamicCodService cold(CopyGraph(evolved.core->graph()), std::move(w2.attrs),
                         options);
  ASSERT_NE(cold.Snapshot().core->sketch(), nullptr);
  EXPECT_EQ(SketchBytes(*evolved.core), SketchBytes(*cold.Snapshot().core));
}

}  // namespace
}  // namespace cod

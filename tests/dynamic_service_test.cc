#include "serving/dynamic_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/task_scheduler.h"
#include "core/query_batch.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "serving/sharded_service.h"
#include "tests/test_util.h"

namespace cod {
namespace {

struct World {
  Graph graph;
  AttributeTable attrs;
};

World MakeWorld(uint64_t seed) {
  Rng rng(seed);
  HppParams params;
  params.num_nodes = 200;
  params.num_edges = 800;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  World w;
  w.attrs = AssignCorrelatedAttributes(gen.block, 4, 0.8, 0.1, rng);
  w.graph = std::move(gen.graph);
  return w;
}

ServiceOptions SmallOptions(double threshold) {
  ServiceOptions options;
  options.rebuild_threshold = threshold;
  options.seed = 7;
  return options;
}

TEST(DynamicServiceTest, InitialEpochServesQueries) {
  World w = MakeWorld(1);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SmallOptions(0.05));
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.pending_updates(), 0u);
  Rng rng(2);
  int found = 0;
  for (NodeId q = 0; q < 10; ++q) {
    const auto attrs = service.engine().attributes().AttributesOf(q);
    if (attrs.empty()) continue;
    found += service.QueryCodL(q, attrs[0], 5, rng).found;
  }
  EXPECT_GT(found, 0);
}

TEST(DynamicServiceTest, UpdatesAccumulateWithoutRebuild) {
  World w = MakeWorld(2);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SmallOptions(0.5));  // high threshold
  const size_t edges_before = service.NumEdges();
  EXPECT_TRUE(service.AddEdge(0, 100));
  EXPECT_TRUE(service.AddEdge(1, 101));
  EXPECT_TRUE(service.RemoveEdge(0, 100));
  EXPECT_FALSE(service.RemoveEdge(0, 100));  // already gone
  EXPECT_FALSE(service.AddEdge(5, 5));       // self-loop rejected
  EXPECT_EQ(service.pending_updates(), 3u);
  EXPECT_EQ(service.epoch(), 1u);  // no rebuild yet
  EXPECT_EQ(service.NumEdges(), edges_before + 1);
}

TEST(DynamicServiceTest, RefreshAppliesUpdatesToEngine) {
  World w = MakeWorld(3);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SmallOptions(0.5));
  ASSERT_TRUE(service.AddEdge(0, 150, 2.5));
  service.Refresh();
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_EQ(service.pending_updates(), 0u);
  const Graph& g = service.engine().graph();
  const EdgeId e = g.FindEdge(0, 150);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_DOUBLE_EQ(g.Weight(e), 2.5);
}

// Satellite regression (non-blocking rebuild pipeline): sync-mode queries
// used to run a FULL epoch rebuild — graph build, clustering, HIMOR —
// inline when their MaybeRefresh crossed the drift threshold, so one
// unlucky QueryCodL stalled for seconds. Queries now only
// snapshot-and-serve; the owner polls RefreshDue() and calls Refresh().
TEST(DynamicServiceTest, SyncQueriesNeverRebuildInline) {
  World w = MakeWorld(4);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SmallOptions(0.01));  // ~8 updates suffice
  Rng rng(5);
  for (NodeId v = 0; v < 12; ++v) {
    service.AddEdge(v, static_cast<NodeId>(180 - v));
  }
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_TRUE(service.RefreshDue());
  const uint64_t attempts_before = service.rebuild_stats().attempts;

  // The crossing query serves the stale epoch: no build ran on its path
  // (epoch, pending drift, and the attempt counter are all untouched), so
  // its latency is that of a plain query, pending rebuild or not.
  service.QueryCodU(0, 5, rng);
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.pending_updates(), 12u);
  EXPECT_EQ(service.rebuild_stats().attempts, attempts_before);
  EXPECT_TRUE(service.RefreshDue());

  // The OWNER rebuilds when it sees fit.
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_EQ(service.pending_updates(), 0u);
  EXPECT_FALSE(service.RefreshDue());
}

TEST(DynamicServiceTest, AsyncThresholdCrossingQuerySchedulesRebuild) {
  World w = MakeWorld(4);
  TaskScheduler rebuild_pool(1);
  ServiceOptions options = SmallOptions(0.01);
  options.async_rebuild = true;
  options.scheduler = &rebuild_pool;
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);
  Rng rng(5);
  for (NodeId v = 0; v < 12; ++v) {
    service.AddEdge(v, static_cast<NodeId>(180 - v));
  }
  EXPECT_EQ(service.epoch(), 1u);
  service.QueryCodU(0, 5, rng);  // schedules on the pool, serves epoch 1
  service.WaitForRebuild();
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_EQ(service.pending_updates(), 0u);
}

TEST(DynamicServiceTest, RemovalChangesServedGraph) {
  World w = MakeWorld(5);
  // Find an existing edge to delete.
  const auto [u, v] = w.graph.Endpoints(0);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SmallOptions(10.0));
  ASSERT_TRUE(service.RemoveEdge(u, v));
  service.Refresh();
  EXPECT_EQ(service.engine().graph().FindEdge(u, v), kInvalidEdge);
}

TEST(DynamicServiceTest, DeterministicAcrossInstances) {
  World w1 = MakeWorld(6);
  World w2 = MakeWorld(6);
  DynamicCodService s1(std::move(w1.graph), std::move(w1.attrs),
                       SmallOptions(0.5));
  DynamicCodService s2(std::move(w2.graph), std::move(w2.attrs),
                       SmallOptions(0.5));
  s1.AddEdge(3, 77);
  s2.AddEdge(3, 77);
  s1.Refresh();
  s2.Refresh();
  Rng rng1(9);
  Rng rng2(9);
  for (NodeId q = 0; q < 8; ++q) {
    const auto attrs = s1.engine().attributes().AttributesOf(q);
    if (attrs.empty()) continue;
    const CodResult a = s1.QueryCodL(q, attrs[0], 5, rng1);
    const CodResult b = s2.QueryCodL(q, attrs[0], 5, rng2);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.members, b.members);
  }
}

TEST(DynamicServiceTest, SnapshotSurvivesRefresh) {
  World w = MakeWorld(7);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SmallOptions(10.0));
  const DynamicCodService::EpochSnapshot old_snap = service.Snapshot();
  EXPECT_EQ(old_snap.epoch, 1u);
  const size_t old_edges = old_snap.core->graph().NumEdges();

  ASSERT_TRUE(service.AddEdge(0, 150));
  service.Refresh();
  EXPECT_EQ(service.Snapshot().epoch, 2u);

  // The retired epoch stays alive and queryable through its shared_ptr.
  EXPECT_EQ(old_snap.core->graph().NumEdges(), old_edges);
  EXPECT_EQ(old_snap.core->graph().FindEdge(0, 150), kInvalidEdge);
  EXPECT_NE(service.Snapshot().core->graph().FindEdge(0, 150), kInvalidEdge);
  QueryWorkspace ws(*old_snap.core, 3);
  EXPECT_NO_FATAL_FAILURE(old_snap.core->QueryCodU(0, 5, ws));
}

TEST(DynamicServiceTest, AsyncRefreshServesStaleThenSwaps) {
  World w = MakeWorld(8);
  TaskScheduler rebuild_pool(1);
  ServiceOptions options = SmallOptions(10.0);
  options.async_rebuild = true;
  options.scheduler = &rebuild_pool;
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  ASSERT_TRUE(service.AddEdge(0, 150));
  ASSERT_TRUE(service.RefreshAsync());
  // A query issued right away is answered from SOME published epoch without
  // blocking on the rebuild — at this point either epoch 1 (stale) or 2.
  Rng rng(4);
  service.QueryCodU(0, 5, rng);
  service.WaitForRebuild();
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_NE(service.engine().graph().FindEdge(0, 150), kInvalidEdge);
  EXPECT_EQ(service.pending_updates(), 0u);

  // Dedupe: a second RefreshAsync while one is in flight is a no-op.
  ASSERT_TRUE(service.AddEdge(1, 151));
  const bool first = service.RefreshAsync();
  const bool second = service.RefreshAsync();
  service.WaitForRebuild();
  EXPECT_TRUE(first);
  if (second) {
    EXPECT_EQ(service.epoch(), 4u);  // both rebuilds ran back to back
  } else {
    EXPECT_EQ(service.epoch(), 3u);  // deduped against the in-flight one
  }
}

TEST(DynamicServiceTest, AsyncAndSyncRebuildsPublishIdenticalEpochs) {
  World w1 = MakeWorld(9);
  World w2 = MakeWorld(9);
  DynamicCodService sync_service(std::move(w1.graph), std::move(w1.attrs),
                                 SmallOptions(10.0));
  TaskScheduler rebuild_pool(1);
  ServiceOptions async_options = SmallOptions(10.0);
  async_options.async_rebuild = true;
  async_options.scheduler = &rebuild_pool;
  DynamicCodService async_service(std::move(w2.graph), std::move(w2.attrs),
                                  async_options);

  const std::pair<NodeId, NodeId> updates[] = {{2, 90}, {5, 120}, {9, 44}};
  for (const auto& [u, v] : updates) {
    sync_service.AddEdge(u, v);
    async_service.AddEdge(u, v);
  }
  sync_service.Refresh();
  ASSERT_TRUE(async_service.RefreshAsync());
  async_service.WaitForRebuild();
  ASSERT_EQ(sync_service.epoch(), async_service.epoch());

  // Same build ticket + same edge set => bit-identical epoch cores.
  Rng rng1(11);
  Rng rng2(11);
  for (NodeId q = 0; q < 10; ++q) {
    const auto attrs = sync_service.engine().attributes().AttributesOf(q);
    if (attrs.empty()) continue;
    const CodResult a = sync_service.QueryCodL(q, attrs[0], 5, rng1);
    const CodResult b = async_service.QueryCodL(q, attrs[0], 5, rng2);
    EXPECT_TRUE(cod::testing::SameResult(a, b)) << "q=" << q;
  }
}

TEST(DynamicServiceTest, ServiceQueryBatchMatchesSnapshotBatch) {
  World w = MakeWorld(10);
  std::vector<QuerySpec> specs;
  for (NodeId q = 0; q < 10; ++q) {
    const auto own = w.attrs.AttributesOf(q);
    QuerySpec spec;
    spec.node = q;
    spec.k = 5;
    if (own.empty()) {
      spec.variant = CodVariant::kCodU;
    } else {
      spec.variant = CodVariant::kCodL;
      spec.attrs.assign(own.begin(), own.begin() + 1);
    }
    specs.push_back(std::move(spec));
  }
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SmallOptions(10.0));
  TaskScheduler pool(3);
  const auto via_service = service.QueryBatch(specs, pool, 21);
  const auto via_snapshot =
      RunQueryBatch(*service.Snapshot().core, specs, pool, 21);
  ASSERT_EQ(via_service.size(), via_snapshot.size());
  for (size_t i = 0; i < via_service.size(); ++i) {
    EXPECT_TRUE(cod::testing::SameResult(via_service[i], via_snapshot[i]))
        << "spec " << i;
  }
}

// ---------------------------------------------------------------------------
// Rebuild failure containment (failpoints; see common/failpoint.h). Arm
// sites only AFTER construction — the first epoch's build is CHECK-fatal.
// ---------------------------------------------------------------------------

TEST(DynamicServiceTest, RebuildFailureKeepsServingOldEpoch) {
  World w = MakeWorld(11);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SmallOptions(10.0));
  ASSERT_EQ(service.epoch(), 1u);

  // Reference answers from epoch 1.
  std::vector<CodResult> before;
  Rng rng_before(5);
  for (NodeId q = 0; q < 6; ++q) {
    before.push_back(service.QueryCodU(q, 5, rng_before));
  }

  ASSERT_TRUE(service.AddEdge(0, 150));
  Status failed;
  {
    ScopedFailpoint fp("dynamic_service/rebuild", /*count=*/1);
    failed = service.Refresh();
  }
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  // The failed build never touched the published epoch...
  EXPECT_EQ(service.epoch(), 1u);
  // ...the absorbed pending count was restored for a later retry...
  EXPECT_EQ(service.pending_updates(), 1u);
  // ...and the error is inspectable.
  const RebuildStats stats = service.rebuild_stats();
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.last_error.code(), StatusCode::kIoError);
  EXPECT_EQ(stats.published, 1u);  // only the construction epoch

  // The old epoch still answers, bit-identically.
  Rng rng_after(5);
  for (NodeId q = 0; q < 6; ++q) {
    EXPECT_TRUE(cod::testing::SameResult(service.QueryCodU(q, 5, rng_after),
                                         before[q]))
        << "q=" << q;
  }

  // With the failpoint gone, the retry publishes the update.
  EXPECT_TRUE(service.Refresh().ok());
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_EQ(service.pending_updates(), 0u);
  EXPECT_NE(service.engine().graph().FindEdge(0, 150), kInvalidEdge);
}

std::string HimorBytes(const EngineCore& core) {
  BinaryBufferWriter w;
  EXPECT_NE(core.himor(), nullptr);
  if (core.himor() != nullptr) core.himor()->SerializeTo(w);
  return std::move(w).TakeBytes();
}

std::string SketchBytes(const EngineCore& core) {
  BinaryBufferWriter w;
  EXPECT_NE(core.sketch(), nullptr);
  if (core.sketch() != nullptr) core.sketch()->SerializeTo(w);
  return std::move(w).TakeBytes();
}

// The full-rebuild mode publishes exactly what a cold core on the epoch's
// graph builds with the per-ticket seed Rng(seed + ticket).Next(). Ticket 1
// fails on the rebuild failpoint and is consumed, so the next publish is
// ticket 2's.
TEST(DynamicServiceTest, FullRebuildEpochsUsePerTicketSeeds) {
  World w = MakeWorld(31);
  ServiceOptions options = SmallOptions(10.0);
  options.engine.sketch_bits = 6;
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);
  const auto cold_bytes = [&](const EngineCore& published, uint64_t ticket) {
    EngineCore cold(published.graph(), published.attributes(),
                    options.engine);
    EXPECT_TRUE(cold.TryBuildHimor(Rng(options.seed + ticket).Next()).ok());
    return HimorBytes(cold) + SketchBytes(cold);
  };

  const DynamicCodService::EpochSnapshot first = service.Snapshot();
  EXPECT_EQ(HimorBytes(*first.core) + SketchBytes(*first.core),
            cold_bytes(*first.core, 0));

  ASSERT_TRUE(service.AddEdge(0, 150));
  ASSERT_TRUE(service.AddEdge(3, 120));
  {
    ScopedFailpoint fp("dynamic_service/rebuild", /*count=*/1);
    EXPECT_FALSE(service.Refresh().ok());  // ticket 1, consumed
  }
  EXPECT_EQ(service.epoch(), 1u);
  ASSERT_TRUE(service.Refresh().ok());  // ticket 2
  ASSERT_EQ(service.epoch(), 2u);
  const DynamicCodService::EpochSnapshot third = service.Snapshot();
  const std::string published = HimorBytes(*third.core) +
                                SketchBytes(*third.core);
  EXPECT_EQ(published, cold_bytes(*third.core, 2));
  EXPECT_NE(published, cold_bytes(*third.core, 1));
}

TEST(DynamicServiceTest, HimorFailureFailsRebuildWhenStrict) {
  World w = MakeWorld(12);
  ServiceOptions options = SmallOptions(10.0);
  options.publish_without_index = false;  // strict pre-degradation behavior
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);
  ASSERT_TRUE(service.AddEdge(1, 140));
  Status failed;
  {
    ScopedFailpoint fp("himor/build", /*count=*/1);
    failed = service.Refresh();
  }
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_FALSE(service.epoch_degraded());
  // Serving continues from the old epoch's (intact) index.
  Rng rng(3);
  EXPECT_NO_FATAL_FAILURE(service.QueryCodU(0, 5, rng));
  EXPECT_TRUE(service.Refresh().ok());
  EXPECT_EQ(service.epoch(), 2u);
}

// ---------------------------------------------------------------------------
// Degraded "publish-without-index" epochs: an index-only failure publishes
// the fresh epoch anyway (default publish_without_index), marked degraded;
// CODL serves the compressed-evaluation (CODL-) fallback.
// ---------------------------------------------------------------------------

TEST(DynamicServiceTest, HimorFailurePublishesDegradedEpochByDefault) {
  Counter* degraded_total =
      MetricsRegistry::Instance().GetCounter("cod_epochs_degraded_total");
  const uint64_t degraded_before = degraded_total->Value();

  World w = MakeWorld(12);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SmallOptions(10.0));
  EXPECT_FALSE(service.epoch_degraded());
  ASSERT_TRUE(service.AddEdge(1, 140));
  {
    ScopedFailpoint fp("himor/build", /*count=*/1);
    EXPECT_TRUE(service.Refresh().ok());  // index failure != rebuild failure
  }
  // The fresh epoch published without its index...
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_TRUE(service.epoch_degraded());
  EXPECT_TRUE(service.Snapshot().degraded);
  EXPECT_FALSE(service.Snapshot().core->index_present());
  EXPECT_NE(service.engine().graph().FindEdge(1, 140), kInvalidEdge);
  // ...its updates were absorbed (not restored like a failure)...
  EXPECT_EQ(service.pending_updates(), 0u);
  const RebuildStats stats = service.rebuild_stats();
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.published_degraded, 1u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(degraded_total->Value(), degraded_before + 1);

  // The degraded epoch serves CODL (via the fallback) and CODU.
  Rng rng(3);
  for (NodeId q = 0; q < 8; ++q) {
    const auto attrs = service.engine().attributes().AttributesOf(q);
    if (attrs.empty()) continue;
    const CodResult r = service.QueryCodL(q, attrs[0], 5, rng);
    EXPECT_EQ(r.code, StatusCode::kOk);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.variant_served, CodVariant::kCodLMinus);
  }
  EXPECT_NO_FATAL_FAILURE(service.QueryCodU(0, 5, rng));

  // The next (unimpeded) rebuild restores the index.
  EXPECT_TRUE(service.Refresh().ok());
  EXPECT_EQ(service.epoch(), 3u);
  EXPECT_FALSE(service.epoch_degraded());
  EXPECT_TRUE(service.Snapshot().core->index_present());
}

TEST(DynamicServiceTest, PermanentIndexFailureKeepsPublishingDegradedEpochs) {
  // Acceptance scenario: "himor/build" armed ALWAYS-ON plus a tiny rebuild
  // budget — every index build fails, yet the service keeps publishing
  // fresh (degraded) epochs instead of freezing on a stale one. The
  // sub-nanosecond budget is deterministically expired at its first check.
  ScopedFailpoint fp("himor/build", /*count=*/-1);
  ServiceOptions options = SmallOptions(10.0);
  options.rebuild_budget_seconds = 1e-12;
  World w = MakeWorld(16);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  // Even the construction epoch published degraded (no index to fall back
  // to, and none needed).
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_TRUE(service.epoch_degraded());
  for (uint64_t round = 1; round <= 3; ++round) {
    ASSERT_TRUE(service.AddEdge(static_cast<NodeId>(round),
                                static_cast<NodeId>(150 + round)));
    ASSERT_TRUE(service.Refresh().ok());
    EXPECT_EQ(service.epoch(), 1u + round);
    EXPECT_TRUE(service.epoch_degraded());
    EXPECT_EQ(service.pending_updates(), 0u);
  }
  const RebuildStats stats = service.rebuild_stats();
  EXPECT_EQ(stats.published, 4u);
  EXPECT_EQ(stats.published_degraded, 4u);
  EXPECT_EQ(stats.failures, 0u);

  // Every epoch served queries the whole time.
  Rng rng(4);
  int found = 0;
  for (NodeId q = 0; q < 10; ++q) {
    const auto attrs = service.engine().attributes().AttributesOf(q);
    if (attrs.empty()) continue;
    found += service.QueryCodL(q, attrs[0], 5, rng).found;
  }
  EXPECT_GT(found, 0);
}

TEST(DynamicServiceTest, DegradedCodlMatchesIndexlessBaseline) {
  // Two services over the same world and seed walk the same ticket
  // sequence, so their epoch graphs are identical; only the index differs.
  World w1 = MakeWorld(15);
  World w2 = MakeWorld(15);
  DynamicCodService degraded_svc(std::move(w1.graph), std::move(w1.attrs),
                                 SmallOptions(10.0));
  DynamicCodService baseline(std::move(w2.graph), std::move(w2.attrs),
                             SmallOptions(10.0));
  ASSERT_TRUE(degraded_svc.AddEdge(2, 120));
  ASSERT_TRUE(baseline.AddEdge(2, 120));
  {
    ScopedFailpoint fp("himor/build", /*count=*/-1);
    ASSERT_TRUE(degraded_svc.Refresh().ok());
  }
  ASSERT_TRUE(baseline.Refresh().ok());
  ASSERT_TRUE(degraded_svc.epoch_degraded());
  ASSERT_FALSE(baseline.epoch_degraded());

  // Degraded CODL must be bit-identical to CODL- on the index-present
  // baseline under the same RNG stream — the fallback IS that computation
  // (LORE pick, local recluster, spliced ancestors, compressed eval), which
  // finds the same characteristic communities CODL accelerates.
  QueryWorkspace ws_b(*baseline.Snapshot().core, 0);
  Rng rng_d(9);
  Rng rng_b(9);
  int compared = 0;
  for (NodeId q = 0; q < 16; ++q) {
    const auto attrs = baseline.engine().attributes().AttributesOf(q);
    if (attrs.empty()) continue;
    const CodResult a = degraded_svc.QueryCodL(q, attrs[0], 5, rng_d);
    ws_b.rng() = rng_b;
    const CodResult b =
        baseline.Snapshot().core->QueryCodLMinus(q, attrs[0], 5, ws_b);
    rng_b = ws_b.rng();
    EXPECT_TRUE(a.degraded);
    EXPECT_FALSE(b.degraded);
    EXPECT_EQ(a.found, b.found) << "q=" << q;
    EXPECT_EQ(a.members, b.members) << "q=" << q;
    EXPECT_EQ(a.rank, b.rank) << "q=" << q;
    ++compared;
  }
  EXPECT_GE(compared, 4);
}

TEST(DynamicServiceTest, AsyncRebuildRetriesWithBackoffUntilSuccess) {
  World w = MakeWorld(13);
  TaskScheduler rebuild_pool(1);
  ServiceOptions options = SmallOptions(10.0);
  options.async_rebuild = true;
  options.scheduler = &rebuild_pool;
  options.max_rebuild_retries = 3;
  options.rebuild_backoff_initial_ms = 1;
  options.rebuild_backoff_max_ms = 2;
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  ASSERT_TRUE(service.AddEdge(2, 130));
  // The first two attempts fail; the third succeeds within the retry cap.
  ScopedFailpoint fp("dynamic_service/rebuild", /*count=*/2);
  ASSERT_TRUE(service.RefreshAsync());
  service.WaitForRebuild();
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_NE(service.engine().graph().FindEdge(2, 130), kInvalidEdge);
  const RebuildStats stats = service.rebuild_stats();
  EXPECT_EQ(stats.failures, 2u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.attempts, 4u);  // construction + 2 failures + success
}

TEST(DynamicServiceTest, AsyncRebuildGivesUpAfterRetryCap) {
  World w = MakeWorld(14);
  TaskScheduler rebuild_pool(1);
  ServiceOptions options = SmallOptions(10.0);
  options.async_rebuild = true;
  options.scheduler = &rebuild_pool;
  options.max_rebuild_retries = 1;
  options.rebuild_backoff_initial_ms = 1;
  options.rebuild_backoff_max_ms = 1;
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  ASSERT_TRUE(service.AddEdge(3, 120));
  {
    // More armed failures than 1 + max_rebuild_retries attempts can clear.
    ScopedFailpoint fp("dynamic_service/rebuild", /*count=*/100);
    ASSERT_TRUE(service.RefreshAsync());
    service.WaitForRebuild();
    EXPECT_EQ(service.epoch(), 1u);  // old epoch still published
    EXPECT_EQ(service.pending_updates(), 1u);  // restored for a retry
    const RebuildStats stats = service.rebuild_stats();
    EXPECT_EQ(stats.failures, 2u);  // initial attempt + 1 retry
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_FALSE(stats.last_error.ok());
  }
  // Once the injected fault clears, a fresh ticket succeeds and the service
  // shuts down cleanly (destructor waits out nothing).
  ASSERT_TRUE(service.RefreshAsync());
  service.WaitForRebuild();
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_EQ(service.pending_updates(), 0u);
}

// Tentpole regression: the async retry loop used to park a pool worker in
// std::this_thread::sleep_for for the whole backoff window. Retries are now
// a scheduled retry_after deadline — between attempts the worker is back in
// the pool, provably free to run other work.
TEST(DynamicServiceTest, RetryBackoffHoldsNoPoolWorker) {
  World w = MakeWorld(17);
  TaskScheduler rebuild_pool(1);  // ONE worker makes occupancy observable
  ServiceOptions options = SmallOptions(10.0);
  options.async_rebuild = true;
  options.scheduler = &rebuild_pool;
  options.max_rebuild_retries = 2;
  options.rebuild_backoff_initial_ms = 500;  // a wide, observable window
  options.rebuild_backoff_max_ms = 500;
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  ASSERT_TRUE(service.AddEdge(4, 110));
  ScopedFailpoint fp("dynamic_service/rebuild", /*count=*/1);
  ASSERT_TRUE(service.RefreshAsync());
  // Wait until the failed attempt has scheduled its retry (bounded spin).
  const auto spin_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!service.RetryScheduled()) {
    ASSERT_LT(std::chrono::steady_clock::now(), spin_deadline)
        << "retry never scheduled";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The retry is waiting out its 500 ms backoff. The pool's only worker
  // must be idle: a canary task runs and completes WHILE the retry is still
  // scheduled — impossible if the worker were asleep in the backoff.
  std::atomic<bool> canary_ran{false};
  rebuild_pool.Submit(TaskPriority::kInteractive,
                      [&] { canary_ran.store(true); });
  while (!canary_ran.load() && service.RetryScheduled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(canary_ran.load());
  EXPECT_TRUE(service.RetryScheduled())
      << "canary only ran after the retry fired: worker was held in backoff";

  // The in-flight ticket still dedupes while waiting on its deadline...
  EXPECT_FALSE(service.RefreshAsync());
  // ...and resolves on its own (timer-driven) into a published epoch.
  service.WaitForRebuild();
  EXPECT_FALSE(service.RetryScheduled());
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_EQ(service.rebuild_stats().retries, 1u);
}

// An explicit Refresh() absorbs a scheduled retry instead of waiting out
// its backoff: the synchronous build supersedes the ticket.
TEST(DynamicServiceTest, RefreshAbsorbsScheduledRetry) {
  World w = MakeWorld(18);
  TaskScheduler rebuild_pool(1);
  ServiceOptions options = SmallOptions(10.0);
  options.async_rebuild = true;
  options.scheduler = &rebuild_pool;
  options.max_rebuild_retries = 3;
  // A backoff far longer than the test: if Refresh waited it out, the test
  // would time out instead of passing.
  options.rebuild_backoff_initial_ms = 60000;
  options.rebuild_backoff_max_ms = 60000;
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  ASSERT_TRUE(service.AddEdge(5, 100));
  {
    ScopedFailpoint fp("dynamic_service/rebuild", /*count=*/1);
    ASSERT_TRUE(service.RefreshAsync());
    const auto spin_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!service.RetryScheduled()) {
      ASSERT_LT(std::chrono::steady_clock::now(), spin_deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_FALSE(service.RetryScheduled());
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_EQ(service.pending_updates(), 0u);
  EXPECT_NE(service.engine().graph().FindEdge(5, 100), kInvalidEdge);
}

// The destructor gives up a scheduled retry instead of waiting out its
// backoff (here: a full minute).
TEST(DynamicServiceTest, DestructorCancelsScheduledRetry) {
  World w = MakeWorld(19);
  TaskScheduler rebuild_pool(1);
  ServiceOptions options = SmallOptions(10.0);
  options.async_rebuild = true;
  options.scheduler = &rebuild_pool;
  options.max_rebuild_retries = 3;
  options.rebuild_backoff_initial_ms = 60000;
  options.rebuild_backoff_max_ms = 60000;
  const auto start = std::chrono::steady_clock::now();
  {
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
    ASSERT_TRUE(service.AddEdge(6, 90));
    ScopedFailpoint fp("dynamic_service/rebuild", /*count=*/1);
    ASSERT_TRUE(service.RefreshAsync());
    const auto spin_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!service.RetryScheduled()) {
      ASSERT_LT(std::chrono::steady_clock::now(), spin_deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }  // destructor: cancel retry, join timer — must NOT take ~60 s
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));
}

// A sharded service whose graph has fewer components than shards leaves a
// shard with no nodes at all. Its service still publishes epochs, snapshots
// them and recovers — as an empty shard with its id map, and as a plain
// empty mono service.
TEST(DynamicServiceTest, ZeroNodeServicePublishesSnapshotsAndRecovers) {
  for (const bool shard : {true, false}) {
    const std::string dir = ::testing::TempDir() + "/dynamic_service-zero-" +
                            (shard ? "shard" : "mono");
    std::filesystem::remove_all(dir);
    ServiceOptions options = SmallOptions(0.5);
    options.snapshot_dir = dir;
    std::shared_ptr<const GlobalIds> ids;
    if (shard) {
      options.engine.component_scoped = true;
      options.engine.sketch_bits = 6;
      options.delta_rebuild = true;
      ids = std::make_shared<const GlobalIds>(GlobalIds{40, {}});
    }
    {
      DynamicCodService service(
          GraphBuilder(0).Build(),
          std::make_shared<const AttributeTable>(
              AttributeTableBuilder().Build(0)),
          options, ids);
      EXPECT_EQ(service.epoch(), 1u);
      EXPECT_EQ(service.NumEdges(), 0u);
      EXPECT_TRUE(service.engine().index_present());
      ASSERT_TRUE(service.Refresh().ok());
      EXPECT_EQ(service.epoch(), 2u);
    }
    Result<std::unique_ptr<DynamicCodService>> recovered =
        DynamicCodService::Recover(options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    DynamicCodService& service = **recovered;
    EXPECT_EQ(service.epoch(), 2u);
    EXPECT_EQ(service.engine().graph().NumNodes(), 0u);
    EXPECT_TRUE(service.engine().index_present());
    if (shard) {
      ASSERT_NE(service.engine().global_ids(), nullptr);
      EXPECT_EQ(*service.engine().global_ids(), *ids);
    } else {
      EXPECT_EQ(service.engine().global_ids(), nullptr);
    }
    ASSERT_TRUE(service.Refresh().ok());
    EXPECT_EQ(service.epoch(), 3u);
  }
}

// ---- Edge-set model: the service's base + overlay against a std::map. ----

// Reference edge set: canonical (u, v) -> weight.
using EdgeModel = std::map<std::pair<NodeId, NodeId>, double>;

// Four disjoint HPP blocks, so a 2-shard partition splits the graph.
World MakeSplitWorld(uint64_t seed) {
  constexpr size_t kParts = 4;
  constexpr size_t kNodesPerPart = 40;
  Rng rng(seed);
  GraphBuilder gb(kParts * kNodesPerPart);
  std::vector<uint32_t> block(kParts * kNodesPerPart, 0);
  uint32_t next_block = 0;
  for (size_t p = 0; p < kParts; ++p) {
    HppParams params;
    params.num_nodes = kNodesPerPart;
    params.num_edges = 140;
    params.levels = 2;
    params.fanout = 3;
    GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
    const NodeId base = static_cast<NodeId>(p * kNodesPerPart);
    for (EdgeId e = 0; e < gen.graph.NumEdges(); ++e) {
      const auto [u, v] = gen.graph.Endpoints(e);
      gb.AddEdge(base + u, base + v, gen.graph.Weight(e));
    }
    for (size_t v = 0; v < kNodesPerPart; ++v) {
      block[base + v] = next_block + gen.block[v];
    }
    next_block += gen.num_blocks;
  }
  World w;
  w.graph = std::move(gb).Build();
  w.attrs = AssignCorrelatedAttributes(block, 4, 0.8, 0.1, rng);
  return w;
}

// The graph a model builds, fed in DESCENDING order so the builder takes
// its sorting path: an independent reference for the service's merge.
// `keep` selects the edges (one shard's) and `rename` maps their ids.
template <typename Keep, typename Rename>
Graph ModelGraph(const EdgeModel& model, size_t num_nodes, Keep keep,
                 Rename rename) {
  GraphBuilder builder(num_nodes);
  for (auto it = model.rbegin(); it != model.rend(); ++it) {
    const auto [u, v] = it->first;
    if (keep(u, v)) builder.AddEdge(rename(u), rename(v), it->second);
  }
  return std::move(builder).Build();
}

void ExpectSameGraph(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.NumNodes(), want.NumNodes());
  ASSERT_EQ(got.NumEdges(), want.NumEdges());
  EXPECT_EQ(got.HasWeights(), want.HasWeights());
  for (EdgeId e = 0; e < want.NumEdges(); ++e) {
    ASSERT_EQ(got.Endpoints(e), want.Endpoints(e)) << "edge " << e;
    ASSERT_EQ(got.Weight(e), want.Weight(e)) << "edge " << e;
  }
}

// Every published graph (one per shard) equals the model's.
void ExpectPublished(CodServiceInterface& service, const EdgeModel& model,
                     size_t num_nodes) {
  if (auto* mono = dynamic_cast<DynamicCodService*>(&service)) {
    ExpectSameGraph(
        mono->engine().graph(),
        ModelGraph(model, num_nodes, [](NodeId, NodeId) { return true; },
                   [](NodeId v) { return v; }));
    return;
  }
  auto& sharded = dynamic_cast<ShardedCodService&>(service);
  const GraphPartition& part = sharded.partition();
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ExpectSameGraph(
        sharded.shard(s).engine().graph(),
        ModelGraph(
            model, part.shard_nodes[s],
            [&](NodeId u, NodeId) { return part.ShardOf(u) == s; },
            [&](NodeId v) { return part.LocalOf(v); }));
  }
}

// How many of the service's engines (one, or one per shard) have a
// scheduled retry.
uint32_t RetriesScheduled(CodServiceInterface& service) {
  if (auto* mono = dynamic_cast<DynamicCodService*>(&service)) {
    return mono->RetryScheduled() ? 1 : 0;
  }
  auto& sharded = dynamic_cast<ShardedCodService&>(service);
  uint32_t scheduled = 0;
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    if (sharded.shard(s).RetryScheduled()) ++scheduled;
  }
  return scheduled;
}

// Drives random adds, reweights, removals and re-adds of edges removed
// earlier (possibly since a build's capture) against the service and the
// model, checking every return value and NumEdges() after every step.
class EdgeTrace {
 public:
  EdgeTrace(EdgeModel model, std::vector<uint32_t> shard_of, uint64_t seed)
      : model_(std::move(model)), shard_of_(std::move(shard_of)), rng_(seed) {}

  const EdgeModel& model() const { return model_; }

  void Run(CodServiceInterface& service, int steps) {
    for (int i = 0; i < steps; ++i) {
      Step(service);
      ASSERT_EQ(service.NumEdges(), model_.size()) << "after step " << i;
    }
  }

 private:
  void Step(CodServiceInterface& service) {
    static constexpr double kWeights[] = {1.0, 1.0, 0.5, 2.0, 3.0};
    const double weight = kWeights[rng_.UniformInt(5)];
    const uint64_t op = rng_.UniformInt(10);
    if (op < 3) {  // add a random same-shard pair (new or present)
      const auto [u, v] = RandomPair();
      ASSERT_TRUE(service.AddEdge(u, v, weight));
      model_[{std::min(u, v), std::max(u, v)}] = weight;
    } else if (op < 5 && !model_.empty()) {  // reweight a present edge
      const auto [u, v] = RandomPresent();
      ASSERT_TRUE(service.AddEdge(v, u, weight));
      model_[{u, v}] = weight;
    } else if (op < 7 && !model_.empty()) {  // remove a present edge
      const auto [u, v] = RandomPresent();
      ASSERT_TRUE(service.RemoveEdge(u, v));
      model_.erase({u, v});
      removed_.push_back({u, v});
    } else if (op < 8 && !removed_.empty()) {  // re-add a removed edge
      const auto [u, v] = removed_[rng_.UniformInt(removed_.size())];
      ASSERT_TRUE(service.AddEdge(u, v, weight));
      model_[{u, v}] = weight;
    } else if (op < 9 && !removed_.empty()) {  // remove it (again?)
      const auto [u, v] = removed_[rng_.UniformInt(removed_.size())];
      const bool present = model_.erase({u, v}) > 0;
      ASSERT_EQ(service.RemoveEdge(v, u), present);
    } else {  // remove a random pair, usually absent
      const auto [u, v] = RandomPair();
      const bool present = model_.erase({std::min(u, v), std::max(u, v)}) > 0;
      ASSERT_EQ(service.RemoveEdge(u, v), present);
      if (present) removed_.push_back({std::min(u, v), std::max(u, v)});
    }
  }

  std::pair<NodeId, NodeId> RandomPair() {
    const NodeId n = static_cast<NodeId>(shard_of_.size());
    for (;;) {
      const NodeId u = static_cast<NodeId>(rng_.UniformInt(n));
      const NodeId v = static_cast<NodeId>(rng_.UniformInt(n));
      if (u != v && shard_of_[u] == shard_of_[v]) return {u, v};
    }
  }

  std::pair<NodeId, NodeId> RandomPresent() {
    auto it = model_.begin();
    std::advance(it, rng_.UniformInt(model_.size()));
    return it->first;
  }

  EdgeModel model_;
  std::vector<uint32_t> shard_of_;
  std::vector<std::pair<NodeId, NodeId>> removed_;
  Rng rng_;
};

// The live edge set is the published graph with the overlay of edits on
// top. Checked against a std::map across every way a build starts, fails
// or is superseded: Refresh, RefreshAsync with updates racing the build
// and its overlay prune, a failpointed rebuild, a scheduled retry that
// Refresh absorbs, and a warm restart — with delta rebuilds on and off, at
// 1 and 2 shards.
TEST(DynamicServiceTest, EdgeSetMatchesModelAcrossBuildsAndRestart) {
  for (const uint32_t shards : {1u, 2u}) {
    for (const bool delta : {false, true}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " delta " +
                   std::to_string(delta));
      const std::string dir = ::testing::TempDir() +
                              "/dynamic_service-model-" +
                              std::to_string(shards) + (delta ? "d" : "f");
      std::filesystem::remove_all(dir);
      TaskScheduler pool(2);
      ServiceOptions options = SmallOptions(10.0);
      options.num_shards = shards;
      options.delta_rebuild = delta;
      options.async_rebuild = true;
      options.scheduler = &pool;
      options.snapshot_dir = dir;
      options.max_rebuild_retries = 3;
      // Retries wait far longer than the test: only Refresh absorbs them.
      options.rebuild_backoff_initial_ms = 60000;
      options.rebuild_backoff_max_ms = 60000;

      World w = MakeSplitWorld(41);
      const size_t n = w.graph.NumNodes();
      EdgeModel initial;
      for (EdgeId e = 0; e < w.graph.NumEdges(); ++e) {
        initial[w.graph.Endpoints(e)] = w.graph.Weight(e);
      }
      std::unique_ptr<CodServiceInterface> service =
          MakeCodService(std::move(w.graph), std::move(w.attrs), options);
      std::vector<uint32_t> shard_of(n, 0);
      if (auto* sharded = dynamic_cast<ShardedCodService*>(service.get())) {
        shard_of = sharded->partition().shard_of_node;
      }
      EdgeTrace trace(initial, shard_of, 100 + shards + (delta ? 10 : 0));
      ASSERT_EQ(service->NumEdges(), initial.size());
      ExpectPublished(*service, trace.model(), n);

      // Refresh.
      trace.Run(*service, 60);
      ASSERT_TRUE(service->Refresh().ok());
      ExpectPublished(*service, trace.model(), n);

      // RefreshAsync, with updates racing the build and its prune.
      trace.Run(*service, 40);
      const EdgeModel captured = trace.model();
      ASSERT_TRUE(service->RefreshAsync());
      trace.Run(*service, 40);
      service->WaitForRebuild();
      ExpectPublished(*service, captured, n);
      ASSERT_EQ(service->NumEdges(), trace.model().size());
      trace.Run(*service, 20);
      ASSERT_TRUE(service->Refresh().ok());
      ExpectPublished(*service, trace.model(), n);

      // A failed rebuild changes nothing.
      const EdgeModel published = trace.model();
      trace.Run(*service, 40);
      {
        ScopedFailpoint fp("dynamic_service/rebuild", shards);
        EXPECT_FALSE(service->Refresh().ok());
      }
      ExpectPublished(*service, published, n);
      ASSERT_EQ(service->NumEdges(), trace.model().size());
      trace.Run(*service, 20);
      ASSERT_TRUE(service->Refresh().ok());
      ExpectPublished(*service, trace.model(), n);

      // A scheduled retry that Refresh absorbs, with edits (and re-adds)
      // made after the failed attempt's capture.
      trace.Run(*service, 40);
      {
        ScopedFailpoint fp("dynamic_service/rebuild", shards);
        ASSERT_TRUE(service->RefreshAsync());
        const auto spin_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (RetriesScheduled(*service) < shards) {
          ASSERT_LT(std::chrono::steady_clock::now(), spin_deadline);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      trace.Run(*service, 40);
      ASSERT_TRUE(service->Refresh().ok());
      EXPECT_EQ(RetriesScheduled(*service), 0u);
      ExpectPublished(*service, trace.model(), n);

      // Warm restart: the recovered service adopts the snapshot's graph.
      // Edits not yet built are not durable, so publish them first.
      trace.Run(*service, 30);
      ASSERT_TRUE(service->Refresh().ok());
      const uint64_t epoch = service->epoch();
      service.reset();
      World cold = MakeSplitWorld(41);
      Result<std::unique_ptr<CodServiceInterface>> recovered =
          RecoverCodService(options, std::move(cold.graph),
                            std::move(cold.attrs));
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      service = std::move(recovered).value();
      EXPECT_EQ(service->epoch(), epoch);
      ASSERT_EQ(service->NumEdges(), trace.model().size());
      ExpectPublished(*service, trace.model(), n);
      trace.Run(*service, 60);
      ASSERT_TRUE(service->Refresh().ok());
      ExpectPublished(*service, trace.model(), n);
      service.reset();
      std::filesystem::remove_all(dir);
    }
  }
}

}  // namespace
}  // namespace cod

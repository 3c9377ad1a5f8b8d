#include "core/query_batch.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/task_scheduler.h"
#include "core/engine_core.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace cod {
namespace {

using ::cod::testing::SameResult;

struct World {
  Graph graph;
  AttributeTable attrs;
};

World MakeWorld(uint64_t seed, size_t n = 220) {
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

// A workload covering every variant, topic sets, and the k=0 default.
std::vector<QuerySpec> MakeSpecs(const AttributeTable& attrs, size_t count) {
  std::vector<QuerySpec> specs;
  for (NodeId q = 0; specs.size() < count; ++q) {
    const auto own = attrs.AttributesOf(q % attrs.NumNodes());
    QuerySpec spec;
    spec.node = q % static_cast<NodeId>(attrs.NumNodes());
    switch (specs.size() % 5) {
      case 0:
        spec.variant = CodVariant::kCodU;
        break;
      case 1:
        spec.variant = CodVariant::kCodUIndexed;
        break;
      case 2:
        if (own.empty()) continue;
        spec.variant = CodVariant::kCodR;
        spec.attrs.assign(own.begin(), own.begin() + 1);
        break;
      case 3:
        if (own.empty()) continue;
        spec.variant = CodVariant::kCodLMinus;
        spec.attrs.assign(own.begin(), own.end());  // topic set
        spec.k = 3;
        break;
      default:
        if (own.empty()) continue;
        spec.variant = CodVariant::kCodL;
        spec.attrs.assign(own.begin(), own.begin() + 1);
        break;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

class QueryBatchTest : public ::testing::Test {
 protected:
  QueryBatchTest() : world_(MakeWorld(1)) {
    engine_ = std::make_shared<EngineCore>(world_.graph, world_.attrs,
                                           EngineOptions{});
    Rng rng(2);
    COD_CHECK(engine_->TryBuildHimor(rng.Next()).ok());
    specs_ = MakeSpecs(world_.attrs, 20);
  }

  World world_;
  std::shared_ptr<EngineCore> engine_;
  std::vector<QuerySpec> specs_;
};

TEST_F(QueryBatchTest, MatchesSequentialRerunPerQuery) {
  TaskScheduler pool(3);
  const std::vector<CodResult> batch =
      RunQueryBatch(*engine_, specs_, pool, /*batch_seed=*/77);
  ASSERT_EQ(batch.size(), specs_.size());

  // Every batch answer is reproducible in isolation from its derived seed.
  const std::shared_ptr<const EngineCore> core = engine_;
  QueryWorkspace ws(*core, 0);
  for (size_t i = 0; i < specs_.size(); ++i) {
    ws.ReseedRng(BatchQuerySeed(77, i));
    const CodResult want = RunQuerySpec(*core, specs_[i], ws);
    EXPECT_TRUE(SameResult(batch[i], want)) << "spec " << i;
  }
}

TEST_F(QueryBatchTest, BitIdenticalAcrossThreadCounts) {
  std::vector<std::vector<CodResult>> runs;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    TaskScheduler pool(threads);
    runs.push_back(RunQueryBatch(*engine_, specs_, pool, /*batch_seed=*/5));
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_TRUE(SameResult(runs[r][i], runs[0][i]))
          << "worker variant " << r << " spec " << i;
    }
  }
}

TEST_F(QueryBatchTest, DifferentBatchSeedsChangeSampling) {
  TaskScheduler pool(2);
  const auto a = RunQueryBatch(*engine_, specs_, pool, 1);
  const auto b = RunQueryBatch(*engine_, specs_, pool, 2);
  // Sampled variants may legitimately flip some answers between seeds; the
  // index-only ones must not.
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].variant == CodVariant::kCodUIndexed) {
      EXPECT_TRUE(SameResult(a[i], b[i])) << "spec " << i;
    }
  }
}

TEST_F(QueryBatchTest, DefaultKUsesEngineOptions) {
  TaskScheduler pool(2);
  std::vector<QuerySpec> defaulted{{CodVariant::kCodU, 3, 0, {}}};
  std::vector<QuerySpec> explicit_k{
      {CodVariant::kCodU, 3, engine_->options().k, {}}};
  const auto a = RunQueryBatch(*engine_, defaulted, pool, 9);
  const auto b = RunQueryBatch(*engine_, explicit_k, pool, 9);
  EXPECT_TRUE(SameResult(a[0], b[0]));
}

TEST_F(QueryBatchTest, EmptyBatchReturnsEmpty) {
  TaskScheduler pool(2);
  EXPECT_TRUE(RunQueryBatch(*engine_, {}, pool, 1).empty());
}

TEST_F(QueryBatchTest, DefaultOptionsMatchOptionFreeOverload) {
  TaskScheduler pool(3);
  const auto plain = RunQueryBatch(*engine_, specs_, pool, 42);
  const auto with_options =
      RunQueryBatch(*engine_, specs_, pool, 42, BatchOptions{});
  ASSERT_EQ(plain.size(), with_options.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_TRUE(SameResult(plain[i], with_options[i])) << "spec " << i;
    EXPECT_EQ(plain[i].code, StatusCode::kOk) << "spec " << i;
    EXPECT_FALSE(plain[i].degraded) << "spec " << i;
  }
}

TEST_F(QueryBatchTest, AggressiveBudgetMixesFullAndDegradedDeterministically) {
  // A sub-nanosecond budget deterministically expires at the FIRST poll, so
  // the whole budget-outcome sequence — and hence the result vector — is a
  // pure function of (specs, seed), bit-identical for every pool size.
  BatchOptions options;
  options.default_budget_seconds = 1e-12;
  std::vector<std::vector<CodResult>> runs;
  for (const size_t threads : {1u, 2u, 4u}) {
    TaskScheduler pool(threads);
    runs.push_back(
        RunQueryBatch(*engine_, specs_, pool, /*batch_seed=*/7, options));
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_TRUE(SameResult(runs[r][i], runs[0][i]))
          << "worker variant " << r << " spec " << i;
    }
  }
  size_t full = 0;
  size_t degraded = 0;
  for (size_t i = 0; i < runs[0].size(); ++i) {
    const CodResult& r = runs[0][i];
    ASSERT_EQ(r.code, StatusCode::kOk) << "spec " << i;
    if (specs_[i].variant == CodVariant::kCodUIndexed) {
      // Index-only entries do no budgeted work: full answers, undegraded.
      EXPECT_FALSE(r.degraded) << "spec " << i;
      ++full;
    } else {
      // Every sampled variant collapses down its ladder to the index rung.
      EXPECT_TRUE(r.degraded) << "spec " << i;
      EXPECT_EQ(r.variant_served, CodVariant::kCodUIndexed) << "spec " << i;
      ++degraded;
    }
  }
  EXPECT_GT(full, 0u);
  EXPECT_GT(degraded, 0u);
}

TEST_F(QueryBatchTest, DegradedAnswerMatchesDirectIndexedQuery) {
  // Find a CODL spec; under an exhausted budget its ladder ends at the
  // index rung, whose answer must be EXACTLY what a direct index-only query
  // returns (same node, same resolved k).
  size_t codl = specs_.size();
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].variant == CodVariant::kCodL) {
      codl = i;
      break;
    }
  }
  ASSERT_LT(codl, specs_.size());
  BatchOptions options;
  options.default_budget_seconds = 1e-12;
  TaskScheduler pool(2);
  const auto results = RunQueryBatch(*engine_, specs_, pool, 13, options);
  const CodResult& got = results[codl];
  ASSERT_EQ(got.code, StatusCode::kOk);
  ASSERT_TRUE(got.degraded);
  ASSERT_EQ(got.variant_served, CodVariant::kCodUIndexed);
  const uint32_t k =
      specs_[codl].k == 0 ? engine_->options().k : specs_[codl].k;
  const CodResult want = engine_->QueryCodUIndexed(specs_[codl].node, k);
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.members, want.members);
  EXPECT_EQ(got.rank, want.rank);
}

TEST_F(QueryBatchTest, NoDegradationReturnsTimeout) {
  BatchOptions options;
  options.default_budget_seconds = 1e-12;
  options.allow_degradation = false;
  TaskScheduler pool(2);
  const auto results = RunQueryBatch(*engine_, specs_, pool, 21, options);
  for (size_t i = 0; i < results.size(); ++i) {
    if (specs_[i].variant == CodVariant::kCodUIndexed) {
      EXPECT_EQ(results[i].code, StatusCode::kOk) << "spec " << i;
    } else {
      EXPECT_EQ(results[i].code, StatusCode::kTimeout) << "spec " << i;
      EXPECT_FALSE(results[i].degraded) << "spec " << i;
      EXPECT_EQ(results[i].variant_served, specs_[i].variant)
          << "spec " << i;
      EXPECT_FALSE(results[i].found) << "spec " << i;
    }
  }
}

TEST_F(QueryBatchTest, PerSpecBudgetOverridesDefault) {
  // Unlimited batch default; one spec carries its own hostile budget.
  std::vector<QuerySpec> specs = specs_;
  size_t victim = specs.size();
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].variant == CodVariant::kCodU) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, specs.size());
  specs[victim].budget_seconds = 1e-12;
  TaskScheduler pool(2);
  const auto results =
      RunQueryBatch(*engine_, specs, pool, 31, BatchOptions{});
  for (size_t i = 0; i < results.size(); ++i) {
    if (i == victim) {
      EXPECT_TRUE(results[i].degraded) << "victim spec";
      EXPECT_EQ(results[i].variant_served, CodVariant::kCodUIndexed);
    } else {
      EXPECT_EQ(results[i].code, StatusCode::kOk) << "spec " << i;
      EXPECT_FALSE(results[i].degraded) << "spec " << i;
    }
  }
}

TEST_F(QueryBatchTest, BatchDeadlineCapsEveryQuery) {
  // An already-expired batch deadline beats unlimited per-query budgets.
  BatchOptions options;
  options.batch_deadline = Deadline::After(0.0);
  TaskScheduler pool(3);
  const auto results = RunQueryBatch(*engine_, specs_, pool, 17, options);
  for (size_t i = 0; i < results.size(); ++i) {
    if (specs_[i].variant == CodVariant::kCodUIndexed) {
      EXPECT_FALSE(results[i].degraded) << "spec " << i;
    } else {
      EXPECT_TRUE(results[i].degraded) << "spec " << i;
    }
    EXPECT_EQ(results[i].code, StatusCode::kOk) << "spec " << i;
  }
}

TEST_F(QueryBatchTest, WorkerFailpointMarksSlotsCancelled) {
  // A "dying" worker marks its slots cancelled instead of crashing or
  // hanging the batch. One worker thread makes the hit order deterministic.
  ScopedFailpoint fp("query_batch/worker", /*count=*/2);
  TaskScheduler pool(1);
  const auto results = RunQueryBatch(*engine_, specs_, pool, 19);
  ASSERT_EQ(results.size(), specs_.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (i < 2) {
      EXPECT_EQ(results[i].code, StatusCode::kCancelled) << "spec " << i;
      EXPECT_EQ(results[i].variant_served, specs_[i].variant)
          << "spec " << i;
      EXPECT_FALSE(results[i].found) << "spec " << i;
    } else {
      EXPECT_EQ(results[i].code, StatusCode::kOk) << "spec " << i;
    }
  }
}

TEST_F(QueryBatchTest, BatchStatsMatchPerResultTallies) {
  // The per-batch aggregate must agree exactly with a recount over the
  // returned results — same outcomes, same per-rung degradation histogram.
  BatchOptions options;
  options.default_budget_seconds = 1e-12;  // every sampled variant degrades
  TaskScheduler pool(3);
  BatchStats stats;
  const std::vector<CodResult> results = RunQueryBatch(
      *engine_, specs_, pool, /*batch_seed=*/7, options, &stats);
  ASSERT_EQ(results.size(), specs_.size());

  BatchStats want;
  for (const CodResult& r : results) {
    switch (r.code) {
      case StatusCode::kOk:
        if (r.degraded) {
          ++want.degraded;
          ASSERT_LT(r.ladder_rung, BatchStats::kMaxRungs);
          ASSERT_GT(r.ladder_rung, 0);  // degraded implies a deeper rung
          ++want.per_rung[r.ladder_rung];
        } else {
          ++want.served_ok;
          EXPECT_EQ(r.ladder_rung, 0);
          ++want.per_rung[0];
        }
        break;
      case StatusCode::kCancelled:
        ++want.cancelled;
        break;
      default:
        ++want.timeout;
    }
  }
  EXPECT_EQ(stats.served_ok, want.served_ok);
  EXPECT_EQ(stats.degraded, want.degraded);
  EXPECT_EQ(stats.timeout, want.timeout);
  EXPECT_EQ(stats.cancelled, want.cancelled);
  for (size_t r = 0; r < BatchStats::kMaxRungs; ++r) {
    EXPECT_EQ(stats.per_rung[r], want.per_rung[r]) << "rung " << r;
  }
  EXPECT_EQ(stats.Served(), results.size());
  EXPECT_GT(stats.degraded, 0u);  // the hostile budget actually bit

  // The registry's batch counters moved by the same amounts.
  const uint64_t ok_before =
      MetricsRegistry::Instance()
          .GetCounter("cod_batch_queries_total{outcome=\"ok\"}")
          ->Value();
  const uint64_t degraded_before =
      MetricsRegistry::Instance()
          .GetCounter("cod_batch_queries_total{outcome=\"degraded\"}")
          ->Value();
  BatchStats again;
  RunQueryBatch(*engine_, specs_, pool, /*batch_seed=*/7, options,
                &again);
  EXPECT_EQ(MetricsRegistry::Instance()
                .GetCounter("cod_batch_queries_total{outcome=\"ok\"}")
                ->Value(),
            ok_before + again.served_ok);
  EXPECT_EQ(MetricsRegistry::Instance()
                .GetCounter("cod_batch_queries_total{outcome=\"degraded\"}")
                ->Value(),
            degraded_before + again.degraded);
}

TEST_F(QueryBatchTest, UnconstrainedBatchStatsAreAllServedOk) {
  TaskScheduler pool(2);
  BatchStats stats;
  const std::vector<CodResult> results = RunQueryBatch(
      *engine_, specs_, pool, /*batch_seed=*/3, BatchOptions{},
      &stats);
  EXPECT_EQ(stats.served_ok, results.size());
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.timeout, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  for (size_t r = 1; r < BatchStats::kMaxRungs; ++r) {
    EXPECT_EQ(stats.per_rung[r], 0u) << "rung " << r;
  }
}

TEST_F(QueryBatchTest, BatchFromWorkerThreadMatchesSolo) {
  // Running a whole batch from INSIDE a scheduler task must work (the group
  // wait helps inline instead of parking the only worker) and produce the
  // same results as a batch driven from outside. One worker makes this the
  // hardest case: the waiting task and all its chunks share a single thread.
  for (const size_t workers : {1u, 3u}) {
    TaskScheduler pool(workers);
    const auto solo = RunQueryBatch(*engine_, specs_, pool, 33);
    std::vector<CodResult> nested;
    TaskGroup group(pool);
    pool.Submit(TaskPriority::kRebuild, group,
                [&] { nested = RunQueryBatch(*engine_, specs_, pool, 33); });
    group.Wait();
    ASSERT_EQ(nested.size(), solo.size()) << "workers=" << workers;
    for (size_t i = 0; i < solo.size(); ++i) {
      EXPECT_TRUE(SameResult(nested[i], solo[i]))
          << "workers=" << workers << " spec " << i;
    }
  }
}

TEST_F(QueryBatchTest, AdmissionShedViaFailpointIsDeterministic) {
  // An overloaded scheduler sheds the batch one ladder rung. The failpoint
  // forces the shed verdict deterministically; the shed batch must be
  // bit-identical to an unshed batch started at shed_rungs = 1, and every
  // shed answer must reproduce from RunQuerySpecWithBudget with the same
  // effective options.
  TaskScheduler pool(2);
  BatchOptions start_degraded;
  start_degraded.shed_rungs = 1;
  const auto expected =
      RunQueryBatch(*engine_, specs_, pool, /*batch_seed=*/55, start_degraded);

  ScopedFailpoint fp("scheduler/admission", /*count=*/1);
  BatchStats stats;
  const auto shed = RunQueryBatch(*engine_, specs_, pool, /*batch_seed=*/55,
                                  BatchOptions{}, &stats);
  EXPECT_TRUE(stats.shed);
  ASSERT_EQ(shed.size(), expected.size());

  const std::shared_ptr<const EngineCore> core = engine_;
  QueryWorkspace ws(*core, 0);
  for (size_t i = 0; i < shed.size(); ++i) {
    EXPECT_TRUE(SameResult(shed[i], expected[i])) << "spec " << i;
    EXPECT_EQ(shed[i].code, StatusCode::kOk) << "spec " << i;
    // Shed answers from a deeper rung are tagged degraded; index-only specs
    // have a single-rung ladder and stay undegraded.
    if (specs_[i].variant == CodVariant::kCodUIndexed) {
      EXPECT_FALSE(shed[i].degraded) << "spec " << i;
    } else {
      EXPECT_TRUE(shed[i].degraded) << "spec " << i;
    }
    BatchOptions effective;
    effective.shed_rungs = 1;
    const CodResult want = RunQuerySpecWithBudget(
        *core, specs_[i], ws, effective, BatchQuerySeed(55, i));
    EXPECT_TRUE(SameResult(shed[i], want)) << "spec " << i;
  }

  // The failpoint was consumed: the next batch is served at full fidelity.
  BatchStats clean;
  const auto after = RunQueryBatch(*engine_, specs_, pool, /*batch_seed=*/55,
                                   BatchOptions{}, &clean);
  EXPECT_FALSE(clean.shed);
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_FALSE(after[i].degraded) << "spec " << i;
  }
}

TEST_F(QueryBatchTest, ConcurrentBatchesShareOnePool) {
  TaskScheduler pool(4);
  const auto solo_a = RunQueryBatch(*engine_, specs_, pool, 11);
  const auto solo_b = RunQueryBatch(*engine_, specs_, pool, 22);

  std::vector<CodResult> concurrent_a;
  std::vector<CodResult> concurrent_b;
  // Two caller threads block on their own TaskGroups against the same
  // scheduler.
  std::thread ta(
      [&] { concurrent_a = RunQueryBatch(*engine_, specs_, pool, 11); });
  std::thread tb(
      [&] { concurrent_b = RunQueryBatch(*engine_, specs_, pool, 22); });
  ta.join();
  tb.join();

  ASSERT_EQ(concurrent_a.size(), solo_a.size());
  ASSERT_EQ(concurrent_b.size(), solo_b.size());
  for (size_t i = 0; i < solo_a.size(); ++i) {
    EXPECT_TRUE(SameResult(concurrent_a[i], solo_a[i])) << "a spec " << i;
    EXPECT_TRUE(SameResult(concurrent_b[i], solo_b[i])) << "b spec " << i;
  }
}

}  // namespace
}  // namespace cod

// Failure-injection / fuzz-lite robustness tests: every loader must reject
// malformed input with a Status — never crash, never OOM, never return a
// structurally invalid object (Arrow-style "corrupt files are data, not
// bugs" discipline). The budget suites below extend the same discipline to
// deadlines and cancellation: any budget, however hostile, yields
// kOk/kTimeout/kCancelled — never a crash, hang, or corrupted answer.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/task_scheduler.h"
#include "core/engine_core.h"
#include "core/himor.h"
#include "core/independent_eval.h"
#include "core/lore.h"
#include "core/query_batch.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "hierarchy/agglomerative.h"
#include "hierarchy/dendrogram_io.h"
#include "hierarchy/lca.h"
#include "tests/test_util.h"

namespace cod {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// CI's failpoint-fuzz job points COD_METRICS_DUMP at a file and archives it
// when a shard fails — the counter state (trips, degraded epochs, fallbacks)
// is the first thing to read when reproducing a fuzz failure.
class MetricsDumpEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    const char* path = std::getenv("COD_METRICS_DUMP");
    if (path == nullptr || *path == '\0') return;
    std::ofstream out(path);
    out << MetricsRegistry::Instance().JsonDump() << "\n";
  }
};
const ::testing::Environment* const kMetricsDumpEnv =
    ::testing::AddGlobalTestEnvironment(new MetricsDumpEnvironment);

// CI shards override the fuzz stream via COD_FUZZ_SEED; the per-test offset
// keeps parameterized instantiations distinct within a shard.
uint64_t FuzzSeed(uint64_t offset) {
  const char* env = std::getenv("COD_FUZZ_SEED");
  const uint64_t base =
      (env == nullptr || *env == '\0') ? 0 : std::strtoull(env, nullptr, 10);
  return base + offset;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

std::string RandomBytes(Rng& rng, size_t count) {
  std::string bytes(count, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(256));
  return bytes;
}

class FuzzSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeedTest, RandomBytesNeverCrashLoaders) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const size_t size = rng.UniformInt(512);
    const std::string bytes = RandomBytes(rng, size);
    // Binary decoders: must return a Status (usually InvalidArgument).
    {
      BinarySpanReader in(bytes, "fuzz");
      Result<Dendrogram> r = DeserializeDendrogram(in);
      (void)r.ok();
    }
    {
      BinarySpanReader in(bytes, "fuzz");
      Result<HimorIndex> r = HimorIndex::Deserialize(in);
      (void)r.ok();
    }
    // Text loaders: random bytes are usually malformed lines.
    const std::string path = TempPath("fuzz.bin");
    WriteBytes(path, bytes);
    { Result<Graph> r = LoadEdgeList(path); (void)r.ok(); }
    { Result<AttributeTable> r = LoadAttributes(path, 16); (void)r.ok(); }
  }
}

// The bare payload codecs carry no checksum (the snapshot container owns
// integrity), so a flipped byte reaches the structural validation itself.
TEST_P(FuzzSeedTest, BitFlippedDendrogramsNeverCrash) {
  Rng rng(GetParam() + 100);
  const Graph g = EnsureConnected(ErdosRenyi(30, 90, rng), rng);
  const Dendrogram d = AgglomerativeCluster(g);
  BinaryBufferWriter out;
  SerializeDendrogram(d, out);
  const std::string bytes = out.bytes();
  for (int trial = 0; trial < 30; ++trial) {
    std::string mutated = bytes;
    const int flips = 1 + static_cast<int>(rng.UniformInt(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.UniformInt(mutated.size())] ^=
          static_cast<char>(1 + rng.UniformInt(255));
    }
    BinarySpanReader in(mutated, "mutated dendrogram");
    Result<Dendrogram> r = DeserializeDendrogram(in);
    if (r.ok()) {
      // If it decoded, it must be structurally sound.
      EXPECT_EQ(r->LeafCount(r->Root()), r->NumLeaves());
    }
  }
}

TEST_P(FuzzSeedTest, BitFlippedHimorNeverCrashes) {
  Rng rng(GetParam() + 200);
  const Graph g = EnsureConnected(ErdosRenyi(30, 90, rng), rng);
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  const HimorIndex index = HimorIndex::Build(m, d, lca, 5, rng.Next()).value();
  BinaryBufferWriter out;
  index.SerializeTo(out);
  const std::string bytes = out.bytes();
  for (int trial = 0; trial < 30; ++trial) {
    std::string mutated = bytes;
    mutated[rng.UniformInt(mutated.size())] ^=
        static_cast<char>(1 + rng.UniformInt(255));
    // Also try random truncation.
    if (rng.Bernoulli(0.5)) {
      mutated.resize(rng.UniformInt(mutated.size() + 1));
    }
    BinarySpanReader in(mutated, "mutated HIMOR");
    Result<HimorIndex> r = HimorIndex::Deserialize(in);
    if (r.ok()) {
      EXPECT_GE(r->max_rank(), 1u);
    }
  }
}

TEST_P(FuzzSeedTest, GarbledTextEdgesNeverCrash) {
  Rng rng(GetParam() + 300);
  const char* fragments[] = {"0 1",    "abc",     "1 2 3.5", "-5 2",
                             "# x",    "",        "7",       "1 999999999",
                             "2 3 xx", "\t  \t", "0 0",     "18446744073709551615 1"};
  for (int trial = 0; trial < 30; ++trial) {
    std::string content;
    const int lines = static_cast<int>(rng.UniformInt(12));
    for (int l = 0; l < lines; ++l) {
      content += fragments[rng.UniformInt(std::size(fragments))];
      content += "\n";
    }
    const std::string path = TempPath("garbled.edges");
    WriteBytes(path, content);
    Result<Graph> r = LoadEdgeList(path);
    if (r.ok()) {
      // Loaded graphs must be self-consistent.
      for (EdgeId e = 0; e < r->NumEdges(); ++e) {
        const auto [u, v] = r->Endpoints(e);
        EXPECT_LT(u, r->NumNodes());
        EXPECT_LT(v, r->NumNodes());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Budget / cancellation robustness: hostile deadlines over every variant.
// ---------------------------------------------------------------------------

struct BudgetWorld {
  Graph graph;
  AttributeTable attrs;
  std::unique_ptr<EngineCore> engine;
};

BudgetWorld MakeBudgetWorld(uint64_t seed) {
  Rng rng(seed);
  HppParams params;
  params.num_nodes = 120;
  params.num_edges = 480;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  BudgetWorld w;
  w.attrs = AssignCorrelatedAttributes(gen.block, 4, 0.8, 0.1, rng);
  w.graph = std::move(gen.graph);
  w.engine =
      std::make_unique<EngineCore>(w.graph, w.attrs, EngineOptions{});
  Rng himor_rng(seed + 1);
  COD_CHECK(w.engine->TryBuildHimor(himor_rng.Next()).ok());
  return w;
}

// A workload cycling all five variants over nodes that carry attributes.
std::vector<QuerySpec> MakeVariantSpecs(const AttributeTable& attrs,
                                        size_t count) {
  constexpr CodVariant kVariants[] = {
      CodVariant::kCodU, CodVariant::kCodUIndexed, CodVariant::kCodR,
      CodVariant::kCodLMinus, CodVariant::kCodL};
  std::vector<QuerySpec> specs;
  for (NodeId q = 0; specs.size() < count; ++q) {
    QuerySpec spec;
    spec.node = q % static_cast<NodeId>(attrs.NumNodes());
    spec.variant = kVariants[specs.size() % std::size(kVariants)];
    if (spec.variant != CodVariant::kCodU &&
        spec.variant != CodVariant::kCodUIndexed) {
      const auto own = attrs.AttributesOf(spec.node);
      if (own.empty()) continue;
      spec.attrs.assign(own.begin(), own.begin() + 1);
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

class BudgetFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BudgetFuzzTest, HostileBudgetsNeverCrashOrCorrupt) {
  Rng rng(GetParam());
  BudgetWorld w = MakeBudgetWorld(GetParam() + 40);
  const std::vector<QuerySpec> base = MakeVariantSpecs(w.attrs, 15);
  TaskScheduler pool(4);
  const double budgets[] = {0.0, 1e-12, 1e-7, 1e-5, 1e-3};

  for (int round = 0; round < 4; ++round) {
    std::vector<QuerySpec> specs = base;
    for (QuerySpec& spec : specs) {
      spec.budget_seconds = budgets[rng.UniformInt(std::size(budgets))];
    }
    BatchOptions options;
    options.default_budget_seconds =
        budgets[rng.UniformInt(std::size(budgets))];
    options.allow_degradation = rng.Bernoulli(0.5);
    const std::vector<CodResult> results =
        RunQueryBatch(*w.engine, specs, pool, /*batch_seed=*/round, options);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < results.size(); ++i) {
      const CodResult& r = results[i];
      // The complete failure taxonomy: nothing else may come back.
      EXPECT_TRUE(r.code == StatusCode::kOk ||
                  r.code == StatusCode::kTimeout ||
                  r.code == StatusCode::kCancelled)
          << "spec " << i;
      if (r.code != StatusCode::kOk) {
        EXPECT_FALSE(r.found) << "spec " << i;
        EXPECT_TRUE(r.members.empty()) << "spec " << i;
        EXPECT_FALSE(r.degraded) << "spec " << i;
      }
      if (r.found) {
        EXPECT_EQ(r.code, StatusCode::kOk) << "spec " << i;
        EXPECT_FALSE(r.members.empty()) << "spec " << i;
        for (const NodeId v : r.members) {
          EXPECT_LT(v, w.graph.NumNodes()) << "spec " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetFuzzTest, ::testing::Values(11, 12, 13));

// Fuzz mode (Failpoints::ArmRandom): every injectable site trips with a
// small independent probability while a mixed-variant workload runs with
// hostile budgets on top. The taxonomy must hold for every answer, and the
// engine must answer a clean workload perfectly once the fuzz scope ends.
class RandomFailpointFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomFailpointFuzzTest, QueriesRespectTaxonomyUnderRandomFaults) {
  Rng rng(GetParam());
  BudgetWorld w = MakeBudgetWorld(GetParam() + 90);
  const std::vector<QuerySpec> base = MakeVariantSpecs(w.attrs, 15);
  TaskScheduler pool(4);
  // A separate sampling pool puts the "influence/parallel_pool" site (the
  // parallel chunk loops) inside the fuzz blast radius too.
  TaskScheduler sampling_pool(2);

  {
    ScopedRandomFailpoints fuzz(FuzzSeed(GetParam()),
                                /*trip_probability=*/0.03);
    for (int round = 0; round < 4; ++round) {
      std::vector<QuerySpec> specs = base;
      for (QuerySpec& spec : specs) {
        // Mostly unlimited budgets: fuzz trips, not deadlines, are the
        // failure source under test; a few hostile ones compose both.
        spec.budget_seconds = rng.Bernoulli(0.25) ? 1e-5 : 0.0;
      }
      BatchOptions options;
      options.allow_degradation = rng.Bernoulli(0.5);
      options.sampling_pool = &sampling_pool;
      const std::vector<CodResult> results =
          RunQueryBatch(*w.engine, specs, pool, /*batch_seed=*/round, options);
      ASSERT_EQ(results.size(), specs.size());
      for (size_t i = 0; i < results.size(); ++i) {
        const CodResult& r = results[i];
        EXPECT_TRUE(r.code == StatusCode::kOk ||
                    r.code == StatusCode::kTimeout ||
                    r.code == StatusCode::kCancelled)
            << "spec " << i;
        if (r.code != StatusCode::kOk) {
          EXPECT_FALSE(r.found) << "spec " << i;
          EXPECT_TRUE(r.members.empty()) << "spec " << i;
        }
        if (r.found) {
          EXPECT_EQ(r.code, StatusCode::kOk) << "spec " << i;
          EXPECT_FALSE(r.members.empty()) << "spec " << i;
          for (const NodeId v : r.members) {
            EXPECT_LT(v, w.graph.NumNodes()) << "spec " << i;
          }
        }
      }
    }

    // Loaders under fuzz: their failpoints surface as Status, never crash.
    const std::string path = TempPath("fuzz_clean.edges");
    WriteBytes(path, "0 1\n1 2\n2 0\n");
    for (int trial = 0; trial < 10; ++trial) {
      Result<Graph> r = LoadEdgeList(path);
      if (r.ok()) {
        EXPECT_EQ(r->NumEdges(), 3u);
      }
    }
  }  // fuzz disarmed

  // Recovery: the same workload with clean sites and no budgets answers
  // every query completely.
  const std::vector<CodResult> clean =
      RunQueryBatch(*w.engine, base, pool, /*batch_seed=*/77);
  for (size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i].code, StatusCode::kOk) << "spec " << i;
    EXPECT_FALSE(clean[i].degraded) << "spec " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFailpointFuzzTest,
                         ::testing::Values(301, 302, 303));

TEST(CancellationTest, MidPoolFailpointCancelsAndLeavesWorkspaceReusable) {
  // Arm the parallel-sampling chunk site: the pool aborts mid-construction
  // with kCancelled, and the workspace (slab pool included) stays reusable.
  BudgetWorld w = MakeBudgetWorld(52);
  TaskScheduler sampling_pool(2);
  QueryWorkspace ws(*w.engine, /*seed=*/0);
  ws.SetSamplingPool(&sampling_pool);

  QuerySpec spec;
  spec.variant = CodVariant::kCodU;
  spec.node = 3;
  spec.k = 5;

  {
    ScopedFailpoint fp("influence/parallel_pool", /*count=*/1);
    ws.ReseedRng(5);
    const CodResult cancelled = w.engine->Query(spec, ws);
    EXPECT_EQ(cancelled.code, StatusCode::kCancelled);
    EXPECT_FALSE(cancelled.found);
    EXPECT_TRUE(cancelled.members.empty());
  }

  // Disarmed: the same workspace answers exactly like a fresh one.
  ws.ReseedRng(6);
  const CodResult reused = w.engine->Query(spec, ws);
  QueryWorkspace fresh(*w.engine, /*seed=*/0);
  fresh.SetSamplingPool(&sampling_pool);
  fresh.ReseedRng(6);
  const CodResult expected = w.engine->Query(spec, fresh);
  EXPECT_EQ(reused.code, StatusCode::kOk);
  EXPECT_EQ(reused.found, expected.found);
  EXPECT_EQ(reused.members, expected.members);
  EXPECT_EQ(reused.rank, expected.rank);
}

TEST(CancellationTest, PreCancelledBatchSkipsAllSampledWork) {
  BudgetWorld w = MakeBudgetWorld(50);
  const std::vector<QuerySpec> specs = MakeVariantSpecs(w.attrs, 10);
  TaskScheduler pool(3);
  CancelToken token;
  token.Cancel();  // before the batch even starts
  BatchOptions options;
  options.cancel = &token;
  const std::vector<CodResult> results =
      RunQueryBatch(*w.engine, specs, pool, /*batch_seed=*/1, options);
  ASSERT_EQ(results.size(), specs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (specs[i].variant == CodVariant::kCodUIndexed) {
      // Index-only lookups do no budgeted work, so they still answer.
      EXPECT_EQ(results[i].code, StatusCode::kOk) << "spec " << i;
    } else {
      // Cancellation is reported as such (never as a timeout) and skips the
      // degradation ladder.
      EXPECT_EQ(results[i].code, StatusCode::kCancelled) << "spec " << i;
      EXPECT_FALSE(results[i].degraded) << "spec " << i;
      EXPECT_EQ(results[i].variant_served, specs[i].variant) << "spec " << i;
    }
  }
}

TEST(CancellationTest, MidBatchCancelReturnsPromptly) {
  BudgetWorld w = MakeBudgetWorld(51);
  // A batch big enough to still be running when the cancel lands.
  const std::vector<QuerySpec> specs = MakeVariantSpecs(w.attrs, 200);
  TaskScheduler pool(2);
  CancelToken token;
  BatchOptions options;
  options.cancel = &token;
  options.allow_degradation = false;
  std::vector<CodResult> results;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.Cancel();
  });
  results = RunQueryBatch(*w.engine, specs, pool, /*batch_seed=*/3, options);
  canceller.join();
  ASSERT_EQ(results.size(), specs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].code == StatusCode::kOk ||
                results[i].code == StatusCode::kCancelled)
        << "spec " << i;
  }
}

// ---------------------------------------------------------------------------
// Direct evaluator / LORE / HIMOR budget semantics.
// ---------------------------------------------------------------------------

TEST(EvaluatorBudgetTest, CompressedTimesOutOnExpiredBudget) {
  BudgetWorld w = MakeBudgetWorld(60);
  const CodChain chain = w.engine->BuildCoduChain(7);
  CompressedEvaluator eval(w.engine->model(), w.engine->options().theta);
  Rng rng(1);
  const ChainEvalOutcome out =
      eval.Evaluate(chain, 7, 5, rng, Budget{Deadline::After(0.0)});
  EXPECT_EQ(out.code, StatusCode::kTimeout);
  // Compressed evaluation has no usable partial answer.
  EXPECT_EQ(out.best_level, -1);
  EXPECT_TRUE(out.rank_per_level.empty());
}

TEST(EvaluatorBudgetTest, UnlimitedBudgetMatchesLegacyEvaluate) {
  BudgetWorld w = MakeBudgetWorld(61);
  const CodChain chain = w.engine->BuildCoduChain(3);
  CompressedEvaluator a(w.engine->model(), w.engine->options().theta);
  CompressedEvaluator b(w.engine->model(), w.engine->options().theta);
  Rng rng_a(9);
  Rng rng_b(9);
  const ChainEvalOutcome legacy = a.Evaluate(chain, 3, 5, rng_a);
  const ChainEvalOutcome budgeted = b.Evaluate(chain, 3, 5, rng_b, Budget{});
  EXPECT_EQ(budgeted.code, StatusCode::kOk);
  EXPECT_EQ(legacy.best_level, budgeted.best_level);
  EXPECT_EQ(legacy.rank_per_level, budgeted.rank_per_level);
}

TEST(EvaluatorBudgetTest, ScratchStaysCleanAfterTimeout) {
  // Regression guard for the check-interval placement: a timed-out
  // evaluation must leave the reusable scratch in a state where the NEXT
  // query answers exactly as a fresh evaluator would.
  BudgetWorld w = MakeBudgetWorld(62);
  const CodChain chain = w.engine->BuildCoduChain(11);
  CompressedEvaluator reused(w.engine->model(), w.engine->options().theta);
  Rng rng_timeout(1);
  const ChainEvalOutcome timed_out = reused.Evaluate(
      chain, 11, 5, rng_timeout, Budget{Deadline::After(0.0)});
  ASSERT_EQ(timed_out.code, StatusCode::kTimeout);

  CompressedEvaluator fresh(w.engine->model(), w.engine->options().theta);
  Rng rng_reused(4);
  Rng rng_fresh(4);
  const ChainEvalOutcome after = reused.Evaluate(chain, 11, 5, rng_reused);
  const ChainEvalOutcome want = fresh.Evaluate(chain, 11, 5, rng_fresh);
  EXPECT_EQ(after.code, StatusCode::kOk);
  EXPECT_EQ(after.best_level, want.best_level);
  EXPECT_EQ(after.rank_per_level, want.rank_per_level);
}

TEST(EvaluatorBudgetTest, CancelBeatsTimeoutInOutcome) {
  BudgetWorld w = MakeBudgetWorld(63);
  const CodChain chain = w.engine->BuildCoduChain(2);
  CompressedEvaluator eval(w.engine->model(), w.engine->options().theta);
  CancelToken token;
  token.Cancel();
  Rng rng(1);
  const ChainEvalOutcome out = eval.Evaluate(
      chain, 2, 5, rng, Budget{Deadline::After(0.0), &token});
  EXPECT_EQ(out.code, StatusCode::kCancelled);
}

TEST(EvaluatorBudgetTest, IndependentHonorsDeadlineSecondsShim) {
  BudgetWorld w = MakeBudgetWorld(64);
  const CodChain chain = w.engine->BuildCoduChain(5);
  IndependentEvaluator eval(w.engine->model(), w.engine->options().theta);
  Rng rng(1);
  // The legacy double overload routes through the Budget form; a
  // sub-nanosecond deadline deterministically aborts before level 0.
  const ChainEvalOutcome out =
      eval.Evaluate(chain, 5, 5, rng, /*deadline_seconds=*/1e-12);
  EXPECT_EQ(out.code, StatusCode::kTimeout);
  EXPECT_TRUE(eval.last_timed_out());
  EXPECT_EQ(out.best_level, -1);
}

TEST(LoreBudgetTest, ExpiredBudgetReturnsPartialScoresWithTimeout) {
  BudgetWorld w = MakeBudgetWorld(65);
  NodeId q = 0;
  AttributeId attr = 0;
  for (NodeId v = 0; v < w.attrs.NumNodes(); ++v) {
    const auto own = w.attrs.AttributesOf(v);
    if (!own.empty()) {
      q = v;
      attr = own[0];
      break;
    }
  }
  const LoreScores scores = ComputeReclusteringScores(
      w.graph, w.attrs, w.engine->base_hierarchy(), w.engine->base_lca(), q,
      std::span<const AttributeId>(&attr, 1), Budget{Deadline::After(0.0)});
  EXPECT_EQ(scores.code, StatusCode::kTimeout);
  // Structurally valid even when aborted: chain populated, scores sized.
  EXPECT_FALSE(scores.chain.empty());
  EXPECT_EQ(scores.score.size(), scores.chain.size());
}

TEST(HimorBudgetTest, ExpiredBudgetFailsBothBuilders) {
  Rng rng(70);
  const Graph g = EnsureConnected(ErdosRenyi(40, 120, rng), rng);
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  // The cold build without carry (Build) and with carry (BuildDelta).
  const Result<HimorIndex> built =
      HimorIndex::Build(m, d, lca, 5, /*seed=*/2, 16,
                        Budget{Deadline::After(0.0)});
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kTimeout);
  HimorSampleCache next;
  const Result<HimorIndex> delta = HimorIndex::BuildDelta(
      m, d, lca, 5, /*seed=*/2, 16, Budget{Deadline::After(0.0)},
      /*comp_size_of_node=*/nullptr, /*dirty=*/nullptr, /*prev=*/nullptr,
      &next, /*stats=*/nullptr);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kTimeout);
  EXPECT_FALSE(next.valid);
  // And with the cold build's source ranges on a 4-worker scheduler.
  TaskScheduler sched(4);
  HimorSampleCache fanned_next;
  const Result<HimorIndex> fanned = HimorIndex::BuildDelta(
      m, d, lca, 5, /*seed=*/2, 16, Budget{Deadline::After(0.0)},
      /*comp_size_of_node=*/nullptr, /*dirty=*/nullptr, /*prev=*/nullptr,
      &fanned_next, /*stats=*/nullptr, /*sketch_bits=*/0, /*sketch=*/nullptr,
      &sched);
  ASSERT_FALSE(fanned.ok());
  EXPECT_EQ(fanned.status().code(), StatusCode::kTimeout);
  EXPECT_FALSE(fanned_next.valid);
}

// A budget that runs out, or a cancel that fires, while the cold build's
// source ranges run on the scheduler fails the whole build: the core keeps
// its previous index and sketch, `prev` stays intact and reusable, and
// `next` stays invalid. The build is large enough (192,000 samples in six
// ranges) that the stage-1 fan-out outlasts a 2 ms deadline and a cancel
// fired as the build starts.
TEST(HimorBudgetTest, FailureMidFanOutKeepsPreviousIndexAndCarry) {
  Rng rng(72);
  HppParams params;
  params.num_nodes = 3000;
  params.num_edges = 12000;
  params.levels = 3;
  params.fanout = 4;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  const AttributeTable attrs =
      AssignCorrelatedAttributes(gen.block, 4, 0.8, 0.1, rng);
  EngineOptions opts;
  opts.theta = 64;
  opts.sketch_bits = 6;
  ASSERT_GE(HimorIndex::NumStageOneRanges(params.num_nodes, opts.theta), 4u);
  EngineCore core(gen.graph, attrs, opts);
  TaskScheduler sched(4);
  const uint64_t seed = 73;

  HimorSampleCache prev;
  HimorDeltaStats stats;
  ASSERT_TRUE(core.TryBuildHimorDelta(seed, {}, nullptr, nullptr, &prev,
                                      &stats, &sched)
                  .ok());
  const auto index_bytes = [&core] {
    BinaryBufferWriter w;
    core.himor()->SerializeTo(w);
    core.sketch()->SerializeTo(w);
    return std::move(w).TakeBytes();
  };
  const std::string built = index_bytes();
  const HimorSampleCache prev_copy = prev;

  for (const bool cancel : {false, true}) {
    SCOPED_TRACE(cancel ? "cancel" : "deadline");
    CancelToken token;
    const Budget budget =
        cancel ? Budget{Deadline::Infinite(), &token}
               : Budget{Deadline::After(0.002)};
    std::thread canceller;
    if (cancel) canceller = std::thread([&token] { token.Cancel(); });
    HimorSampleCache next;
    const Status failed = core.TryBuildHimorDelta(
        seed, budget, /*dirty=*/nullptr, &prev, &next, &stats, &sched);
    if (canceller.joinable()) canceller.join();
    EXPECT_EQ(failed.code(),
              cancel ? StatusCode::kCancelled : StatusCode::kTimeout);
    EXPECT_FALSE(next.valid);
    EXPECT_EQ(index_bytes(), built);
    EXPECT_TRUE(testing::SameCarry(prev, prev_copy));
  }

  // `prev` still drives a delta build: with nothing dirty every sample is
  // reused and the index comes out unchanged.
  const std::vector<char> clean(params.num_nodes, 0);
  HimorSampleCache next;
  ASSERT_TRUE(core.TryBuildHimorDelta(seed, {}, &clean, &prev, &next, &stats,
                                      &sched)
                  .ok());
  EXPECT_EQ(stats.samples_reused, stats.samples_total);
  EXPECT_TRUE(next.valid);
  EXPECT_EQ(index_bytes(), built);
}

TEST(HimorBudgetTest, BuildFailpointFailsTheBuild) {
  Rng rng(71);
  const Graph g = EnsureConnected(ErdosRenyi(40, 120, rng), rng);
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  Rng build_rng(1);
  ScopedFailpoint fp("himor/build", /*count=*/1);
  const Result<HimorIndex> built =
      HimorIndex::Build(m, d, lca, 5, build_rng.Next());
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kIoError);
  // The site is disarmed after one hit: the retry succeeds.
  Rng retry_rng(1);
  const Result<HimorIndex> retry =
      HimorIndex::Build(m, d, lca, 5, retry_rng.Next());
  EXPECT_TRUE(retry.ok());
}

}  // namespace
}  // namespace cod

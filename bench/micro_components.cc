// google-benchmark micro-suite for the substrate components (not a paper
// figure): RR-graph sampling, LCA queries, agglomerative clustering, LORE
// score computation, compressed evaluation, and HIMOR construction.
//
// Besides the interactive gbench suite, `--bench-json=PATH` runs two
// hand-rolled canonical suites and writes BenchJsonEntry records
// (bench/bench_util.h) to PATH — the regression-tracking format CI
// archives:
//   rr_pool_build   RR-pool construction, serial vs schedulers of 1/2/4/8
//   sched_overload  interactive queue-to-start latency under rebuild load,
//                   flat FIFO pool (baseline, hand-rolled below) vs the
//                   priority TaskScheduler
//   snapshot_restart  time-to-first-query: cold epoch rebuild vs warm
//                     restore from a durable epoch snapshot
// With --bench-json the gbench suite is skipped; without it the binary
// behaves as a plain gbench runner.

#include <benchmark/benchmark.h>

#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "core/engine_core.h"
#include "core/query_workspace.h"
#include "serving/dynamic_service.h"
#include "eval/datasets.h"
#include "eval/query_gen.h"
#include "hierarchy/lca.h"
#include "influence/im.h"
#include "influence/rr_pool.h"

namespace cod {
namespace {

const AttributedGraph& Cora() {
  static const AttributedGraph* data =
      new AttributedGraph(std::move(MakeDataset("cora-sim")).value());
  return *data;
}

const EngineCore& CoraEngine() {
  static EngineCore* engine = [] {
    auto* e = new EngineCore(Cora().graph, Cora().attributes, {});
    return e;
  }();
  return *engine;
}

void BM_RrGraphSample(benchmark::State& state) {
  const auto& data = Cora();
  const DiffusionModel model = DiffusionModel::WeightedCascadeIc(data.graph);
  RrSampler sampler(model);
  Rng rng(1);
  RrGraph rr;
  NodeId source = 0;
  for (auto _ : state) {
    sampler.Sample(source, rng, &rr);
    source = static_cast<NodeId>((source + 1) % data.graph.NumNodes());
    benchmark::DoNotOptimize(rr.nodes.data());
  }
}
BENCHMARK(BM_RrGraphSample);

void BM_LcaQuery(benchmark::State& state) {
  const EngineCore& engine = CoraEngine();
  const LcaIndex& lca = engine.base_lca();
  Rng rng(2);
  const size_t n = engine.graph().NumNodes();
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    benchmark::DoNotOptimize(lca.LcaOfNodes(u, v));
  }
}
BENCHMARK(BM_LcaQuery);

// UPGMA clustering of one dataset's graph; the argument indexes
// kClusterDatasets. pubmed-sim is the hub-heavy case, dblp-sim the largest.
constexpr const char* kClusterDatasets[] = {"cora-sim", "pubmed-sim",
                                            "dblp-sim"};

void BM_AgglomerativeCluster(benchmark::State& state) {
  const char* name = kClusterDatasets[state.range(0)];
  const AttributedGraph data = std::move(MakeDataset(name)).value();
  state.SetLabel(name);
  for (auto _ : state) {
    const Dendrogram d = AgglomerativeCluster(data.graph);
    benchmark::DoNotOptimize(d.Root());
  }
}
BENCHMARK(BM_AgglomerativeCluster)
    ->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);

void BM_LoreScores(benchmark::State& state) {
  const auto& data = Cora();
  const EngineCore& engine = CoraEngine();
  Rng rng(3);
  const auto queries = GenerateQueries(data.attributes, 64, rng);
  size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(
        ComputeReclusteringScores(data.graph, data.attributes,
                                  engine.base_hierarchy(), engine.base_lca(),
                                  q.node, q.attribute)
            .selected);
  }
}
BENCHMARK(BM_LoreScores);

void BM_CompressedEvaluate(benchmark::State& state) {
  const auto& data = Cora();
  EngineCore& engine = const_cast<EngineCore&>(CoraEngine());
  CompressedEvaluator evaluator(engine.model(), 10);
  Rng rng(4);
  const auto queries = GenerateQueries(data.attributes, 16, rng);
  size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ % queries.size()];
    const CodChain chain = engine.BuildCoduChain(q.node);
    benchmark::DoNotOptimize(
        evaluator.Evaluate(chain, q.node, 5, rng).best_level);
  }
}
BENCHMARK(BM_CompressedEvaluate)->Unit(benchmark::kMillisecond);

void BM_HimorBuild(benchmark::State& state) {
  const EngineCore& engine = CoraEngine();
  const DiffusionModel& model = engine.model();
  Rng rng(5);
  for (auto _ : state) {
    const HimorIndex index =
        HimorIndex::Build(model, engine.base_hierarchy(), engine.base_lca(),
                          10, rng.Next())
            .value();
    benchmark::DoNotOptimize(index.NumEntries());
  }
}
BENCHMARK(BM_HimorBuild)->Unit(benchmark::kMillisecond);

void BM_InfluenceMaximizationRis(benchmark::State& state) {
  const EngineCore& engine = CoraEngine();
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MaximizeInfluenceRis(engine.model(), 10, 20000, rng)
            .estimated_influence);
  }
}
BENCHMARK(BM_InfluenceMaximizationRis)->Unit(benchmark::kMillisecond);

void BM_CodlQuery(benchmark::State& state) {
  const auto& data = Cora();
  EngineCore& engine = const_cast<EngineCore&>(CoraEngine());
  Rng rng(6);
  if (engine.himor() == nullptr) {
    COD_CHECK(engine.TryBuildHimor(rng.Next()).ok());
  }
  const auto queries = GenerateQueries(data.attributes, 32, rng);
  QueryWorkspace ws(engine, 0);
  ws.rng() = rng;
  size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(
        engine.QueryCodL(q.node, q.attribute, 5, ws).found);
  }
}
BENCHMARK(BM_CodlQuery)->Unit(benchmark::kMillisecond);

// Canonical RR-pool construction suite: one cora-sim CODU chain, same pool
// seed everywhere (the paths are bit-identical by contract, so only wall
// time may differ across configs). Each repetition rebuilds the full pool;
// quantiles are over repetition times after warm-up.
std::vector<bench::BenchJsonEntry> RunCanonicalRrPoolSuite(bool smoke) {
  const EngineCore& engine = CoraEngine();
  const CodChain chain = engine.BuildCoduChain(/*q=*/0);
  const uint32_t theta = smoke ? 4 : 16;
  const size_t warmup = smoke ? 1 : 3;
  const size_t reps = smoke ? 5 : 15;
  const uint64_t pool_seed = 12345;
  const size_t samples = chain.universe.size() * theta;

  std::vector<bench::BenchJsonEntry> entries;
  const auto run_config = [&](const std::string& config,
                              TaskScheduler* scheduler) {
    ParallelRrPool builder(engine.model());
    RrSlabPool slab;
    ParallelRrPool::BuildStats stats;
    std::vector<double> times;
    WallTimer timer;
    for (size_t r = 0; r < warmup + reps; ++r) {
      timer.Restart();
      const StatusCode code =
          builder.Build(chain.universe, theta, chain.in_universe, pool_seed,
                        Budget{}, scheduler, &slab, &stats);
      const double seconds = timer.ElapsedSeconds();
      COD_CHECK(code == StatusCode::kOk);
      if (r >= warmup) times.push_back(seconds);
    }
    bench::BenchJsonEntry e;
    e.name = "rr_pool_build";
    e.config = config;
    e.samples = samples;
    e.p50_seconds = bench::Quantile(times, 0.5);
    e.p95_seconds = bench::Quantile(times, 0.95);
    e.p99_seconds = bench::Quantile(times, 0.99);
    e.samples_per_sec =
        e.p50_seconds > 0.0 ? static_cast<double>(samples) / e.p50_seconds
                            : 0.0;
    entries.push_back(e);
  };

  run_config("serial", nullptr);
  for (const size_t threads : {1, 2, 4, 8}) {
    TaskScheduler scheduler(threads);
    run_config("pool" + std::to_string(threads), &scheduler);
  }
  return entries;
}

// ---------------------------------------------------------------------------
// sched_overload: interactive queue-to-start latency under rebuild load.
//
// The baseline is the retired flat FIFO ThreadPool, hand-rolled here (single
// queue, no priorities): queued interactive work waits behind every queued
// rebuild. The TaskScheduler serves the same mixed load priority-major, so
// its interactive queue-to-start tail must come in at or below the FIFO
// baseline — the acceptance criterion of the scheduler PR.
// ---------------------------------------------------------------------------

// Minimal single-queue FIFO pool, equivalent to the retired pre-scheduler
// ThreadPool. Local to this bench on purpose: production code routes
// through TaskScheduler, which would measure the wrong thing.
class FifoPool {
 public:
  explicit FifoPool(size_t num_threads) {
    for (size_t i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this] { Loop(); });
    }
  }
  ~FifoPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  void Submit(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(fn));
      ++outstanding_;
    }
    cv_.notify_one();
  }
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] { return outstanding_ == 0; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      std::function<void()> fn = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      fn();
      lock.lock();
      if (--outstanding_ == 0) idle_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  size_t outstanding_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// ~the cost of one RR-sampling chunk; enough for queueing to dominate.
void BusyWork() {
  WallTimer timer;
  volatile uint64_t sink = 0;
  while (timer.ElapsedSeconds() < 200e-6) sink = sink + 1;
}

std::vector<bench::BenchJsonEntry> RunSchedOverloadSuite(bool smoke) {
  const size_t workers = 2;
  const size_t rebuilds_per_rep = smoke ? 16 : 64;
  const size_t interactives_per_rep = smoke ? 8 : 16;
  const size_t reps = smoke ? 3 : 10;
  using Clock = TaskScheduler::Clock;

  std::vector<bench::BenchJsonEntry> entries;
  // submit_all(submit_rebuild, submit_interactive) queues one rep's mixed
  // load; the caller then waits the pool/scheduler idle.
  const auto measure = [&](const std::string& config, auto&& submit_rebuild,
                           auto&& submit_interactive, auto&& wait_idle) {
    std::mutex mu;
    std::vector<double> latencies;
    for (size_t r = 0; r < reps; ++r) {
      // Saturate first: every worker busy, a backlog of rebuilds queued.
      for (size_t i = 0; i < rebuilds_per_rep; ++i) {
        submit_rebuild([] { BusyWork(); });
      }
      // Interactive arrivals race the backlog; their queue-to-start delay is
      // the measurement.
      for (size_t i = 0; i < interactives_per_rep; ++i) {
        const Clock::time_point submitted = Clock::now();
        submit_interactive([&, submitted] {
          const double delay =
              std::chrono::duration<double>(Clock::now() - submitted).count();
          BusyWork();
          std::lock_guard<std::mutex> lock(mu);
          latencies.push_back(delay);
        });
      }
      wait_idle();
    }
    bench::BenchJsonEntry e;
    e.name = "sched_overload";
    e.config = config;
    e.samples = latencies.size();
    e.p50_seconds = bench::Quantile(latencies, 0.5);
    e.p95_seconds = bench::Quantile(latencies, 0.95);
    e.p99_seconds = bench::Quantile(latencies, 0.99);
    e.samples_per_sec =
        e.p50_seconds > 0.0 ? 1.0 / e.p50_seconds : 0.0;
    entries.push_back(e);
  };

  {
    FifoPool pool(workers);
    measure(
        "fifo" + std::to_string(workers),
        [&](std::function<void()> fn) { pool.Submit(std::move(fn)); },
        [&](std::function<void()> fn) { pool.Submit(std::move(fn)); },
        [&] { pool.WaitIdle(); });
  }
  {
    TaskScheduler scheduler(workers);
    TaskGroup group(scheduler);
    measure(
        "scheduler" + std::to_string(workers),
        [&](std::function<void()> fn) {
          scheduler.Submit(TaskPriority::kRebuild, group, std::move(fn));
        },
        [&](std::function<void()> fn) {
          scheduler.Submit(TaskPriority::kInteractive, group, std::move(fn));
        },
        [&] { group.Wait(); });
  }
  return entries;
}

// ---------------------------------------------------------------------------
// snapshot_restart: time-to-first-query after a process restart.
//
// cold_rebuild constructs the service from the raw graph (hierarchy +
// HIMOR built from scratch); warm_restore recovers it from the durable
// epoch snapshot written by the cold run. Both clocks stop after the first
// CODL answer, so the numbers are the restart gap an operator would see.
// ---------------------------------------------------------------------------
std::vector<bench::BenchJsonEntry> RunSnapshotRestartSuite(bool smoke) {
  const size_t reps = smoke ? 2 : 5;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "cod_bench_snapshots")
          .string();
  ServiceOptions options;
  options.seed = 5;
  options.snapshot_dir = dir;

  const auto first_query = [](DynamicCodService& service) {
    Rng rng(3);
    const auto attrs = service.engine().attributes().AttributesOf(0);
    COD_CHECK(!attrs.empty());
    (void)service.QueryCodL(0, attrs[0], /*k=*/5, rng);
  };

  std::vector<double> cold_times;
  std::vector<double> warm_times;
  WallTimer timer;
  for (size_t r = 0; r < reps; ++r) {
    std::filesystem::remove_all(dir);
    Result<AttributedGraph> data = MakeDataset("cora-sim");
    COD_CHECK(data.ok());
    timer.Restart();
    auto service = std::make_unique<DynamicCodService>(
        std::move(data->graph), std::move(data->attributes), options);
    first_query(*service);
    cold_times.push_back(timer.ElapsedSeconds());
    service.reset();  // the snapshot written at publish survives

    timer.Restart();
    Result<std::unique_ptr<DynamicCodService>> recovered =
        DynamicCodService::Recover(options);
    COD_CHECK(recovered.ok());
    first_query(**recovered);
    warm_times.push_back(timer.ElapsedSeconds());
  }
  std::filesystem::remove_all(dir);

  std::vector<bench::BenchJsonEntry> entries;
  for (const auto& [config, times] :
       {std::pair<const char*, std::vector<double>&>{"cold_rebuild",
                                                     cold_times},
        {"warm_restore", warm_times}}) {
    bench::BenchJsonEntry e;
    e.name = "snapshot_restart";
    e.config = config;
    e.samples = times.size();
    e.p50_seconds = bench::Quantile(times, 0.5);
    e.p95_seconds = bench::Quantile(times, 0.95);
    e.p99_seconds = bench::Quantile(times, 0.99);
    e.samples_per_sec = e.p50_seconds > 0.0 ? 1.0 / e.p50_seconds : 0.0;
    entries.push_back(e);
  }
  return entries;
}

}  // namespace
}  // namespace cod

int main(int argc, char** argv) {
  // Strip our flags before gbench sees them (it rejects unknown args).
  std::string bench_json;
  bool smoke = false;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--bench-json=", 0) == 0) {
      bench_json = arg.substr(13);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!bench_json.empty()) {
    std::vector<cod::bench::BenchJsonEntry> entries =
        cod::RunCanonicalRrPoolSuite(smoke);
    const std::vector<cod::bench::BenchJsonEntry> overload =
        cod::RunSchedOverloadSuite(smoke);
    entries.insert(entries.end(), overload.begin(), overload.end());
    const std::vector<cod::bench::BenchJsonEntry> restart =
        cod::RunSnapshotRestartSuite(smoke);
    entries.insert(entries.end(), restart.begin(), restart.end());
    return cod::bench::WriteBenchJson(bench_json, entries);
  }
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

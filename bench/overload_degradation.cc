// Overload / graceful-degradation bench: throughput and answer quality of
// the batch-query API as the per-query budget shrinks. A CODL workload runs
// under a sweep of budgets from unlimited down to well below one query's
// cost; with the degradation ladder on, shrinking budgets trade full answers
// for cheaper (eventually index-only) ones instead of failing — the
// qps/degraded-fraction curve is the serving stack's overload behavior.
//
// Besides the human-readable table, each configuration emits one
// machine-readable line:
//   OVERLOAD_JSON {"dataset":"cora-sim","budget_ms":2.0,...}
// for dashboards / regression tracking (grep for OVERLOAD_JSON).

#include <vector>

#include "bench/bench_util.h"
#include "common/failpoint.h"
#include "common/table.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "serving/dynamic_service.h"
#include "core/query_batch.h"

namespace cod::bench {
namespace {

// Second overload axis: the REBUILD pipeline. When a budgeted HIMOR build
// blows its rebuild_budget_seconds, DynamicCodService publishes the epoch
// anyway in index-absent degraded mode (publish_without_index) — CODL keeps
// answering through the compressed-evaluation fallback instead of the
// service withholding fresh epochs. The himor/build failpoint stands in for
// the budget blowout so the mode is deterministic to demonstrate.
void RunDegradedEpochSection(const Flags& flags, TablePrinter& table) {
  std::printf(
      "\n== Degraded epochs: publish-without-index under rebuild overload "
      "==\n\n");
  for (const std::string& name : flags.datasets) {
    AttributedGraph data = LoadDatasetOrDie(name);
    const size_t num_nodes = data.graph.NumNodes();

    Rng query_rng(flags.seed + 1);
    const std::vector<Query> queries =
        GenerateQueries(data.attributes, flags.queries, query_rng);

    ServiceOptions options;
    options.seed = flags.seed;
    options.rebuild_threshold = 1e9;  // refreshes are explicit below
    DynamicCodService service(std::move(data.graph),
                              std::move(data.attributes), options);
    std::vector<QuerySpec> specs;
    specs.reserve(queries.size());
    for (const Query& q : queries) {
      specs.push_back(QuerySpec{CodVariant::kCodL, q.node,
                                service.engine().options().k,
                                {q.attribute}});
    }

    TaskScheduler pool(4);
    WallTimer timer;
    const char* modes[] = {"indexed", "no-index (degraded)"};
    for (int mode = 0; mode < 2; ++mode) {
      if (mode == 1) {
        // Overloaded rebuild: every index build "blows its budget"; the
        // epoch still ships, marked degraded and index-absent.
        ScopedFailpoint fp("himor/build", /*count=*/-1);
        service.AddEdge(0, static_cast<NodeId>(num_nodes - 1));
        const Status s = service.Refresh();
        if (!s.ok()) {
          std::printf("refresh failed: %s\n", s.message().c_str());
          continue;
        }
      }
      const DynamicCodService::EpochSnapshot snap = service.Snapshot();
      timer.Restart();
      const std::vector<CodResult> results =
          RunQueryBatch(*snap.core, specs, pool, flags.seed);
      const double seconds = timer.ElapsedSeconds();

      size_t full = 0;
      size_t degraded = 0;
      size_t timeout = 0;
      for (const CodResult& r : results) {
        if (r.code != StatusCode::kOk) {
          ++timeout;
        } else if (r.degraded) {
          ++degraded;
        } else {
          ++full;
        }
      }
      const double n = static_cast<double>(results.size());
      const double qps = seconds > 0.0 ? n / seconds : 0.0;
      table.AddRow({name + " [" + modes[mode] + "]",
                    snap.degraded ? "degraded" : "healthy",
                    TablePrinter::Fmt(results.size()),
                    TablePrinter::Fmt(seconds, 3), TablePrinter::Fmt(qps, 1),
                    TablePrinter::Fmt(static_cast<double>(full) / n, 2),
                    TablePrinter::Fmt(static_cast<double>(degraded) / n, 2),
                    TablePrinter::Fmt(static_cast<double>(timeout) / n, 2)});
      std::printf(
          "OVERLOAD_JSON {\"dataset\":\"%s\",\"mode\":\"%s\","
          "\"epoch\":%llu,\"index_present\":%s,\"queries\":%zu,"
          "\"seconds\":%.6f,\"queries_per_sec\":%.2f,\"full_ok\":%zu,"
          "\"degraded_ok\":%zu,\"timeout\":%zu,\"seed\":%llu}\n",
          name.c_str(), mode == 0 ? "indexed" : "degraded_no_index",
          static_cast<unsigned long long>(snap.epoch),
          snap.core->index_present() ? "true" : "false", results.size(),
          seconds, qps, full, degraded, timeout,
          static_cast<unsigned long long>(flags.seed));
    }
  }
}

int Run(int argc, char** argv) {
  Flags flags =
      ParseFlags(argc, argv, /*default_queries=*/200, {"cora-sim"});
  std::printf("== Overload degradation: answer mix vs per-query budget ==\n\n");
  TablePrinter table({"dataset", "budget ms", "queries", "seconds",
                      "queries/sec", "full ok", "degraded", "timeout"});
  // 0 = unlimited; the rest shrink toward (and past) one query's cost.
  const double budgets_ms[] = {0.0, 50.0, 10.0, 2.0, 0.5, 0.1, 0.02};
  const size_t threads = 4;
  for (const std::string& name : flags.datasets) {
    const AttributedGraph data = LoadDatasetOrDie(name);
    EngineCore engine(data.graph, data.attributes, {});
    Rng rng(flags.seed);
    COD_CHECK(engine.TryBuildHimor(rng.Next()).ok());

    Rng query_rng(flags.seed + 1);
    const std::vector<Query> queries =
        GenerateQueries(data.attributes, flags.queries, query_rng);
    std::vector<QuerySpec> specs;
    specs.reserve(queries.size());
    for (const Query& q : queries) {
      specs.push_back(QuerySpec{CodVariant::kCodL, q.node,
                                engine.options().k, {q.attribute}});
    }

    TaskScheduler pool(threads);
    RunQueryBatch(engine, specs, pool, flags.seed);  // warm-up (cache, pages)
    WallTimer timer;
    for (const double budget_ms : budgets_ms) {
      BatchOptions options;
      options.default_budget_seconds = budget_ms / 1000.0;
      timer.Restart();
      const std::vector<CodResult> results =
          RunQueryBatch(engine, specs, pool, flags.seed, options);
      const double seconds = timer.ElapsedSeconds();

      size_t full = 0;
      size_t degraded = 0;
      size_t timeout = 0;
      for (const CodResult& r : results) {
        if (r.code != StatusCode::kOk) {
          ++timeout;
        } else if (r.degraded) {
          ++degraded;
        } else {
          ++full;
        }
      }
      const double n = static_cast<double>(results.size());
      const double qps = seconds > 0.0 ? n / seconds : 0.0;
      table.AddRow({name,
                    budget_ms == 0.0 ? "unlimited"
                                     : TablePrinter::Fmt(budget_ms, 2),
                    TablePrinter::Fmt(results.size()),
                    TablePrinter::Fmt(seconds, 3), TablePrinter::Fmt(qps, 1),
                    TablePrinter::Fmt(static_cast<double>(full) / n, 2),
                    TablePrinter::Fmt(static_cast<double>(degraded) / n, 2),
                    TablePrinter::Fmt(static_cast<double>(timeout) / n, 2)});
      std::printf(
          "OVERLOAD_JSON {\"dataset\":\"%s\",\"budget_ms\":%.3f,"
          "\"threads\":%zu,\"queries\":%zu,\"seconds\":%.6f,"
          "\"queries_per_sec\":%.2f,\"full_ok\":%zu,\"degraded_ok\":%zu,"
          "\"timeout\":%zu,\"seed\":%llu}\n",
          name.c_str(), budget_ms, threads, results.size(), seconds, qps,
          full, degraded, timeout,
          static_cast<unsigned long long>(flags.seed));
    }
  }
  TablePrinter epoch_table({"dataset [epoch mode]", "epoch", "queries",
                            "seconds", "queries/sec", "full ok", "degraded",
                            "timeout"});
  RunDegradedEpochSection(flags, epoch_table);

  std::printf("\n");
  table.Print(stdout);
  std::printf("\n");
  epoch_table.Print(stdout);
  std::printf(
      "\nAs the budget shrinks, full answers give way to degraded (cheaper\n"
      "rung, eventually index-only) ones; timeouts appear only below the\n"
      "index lookup's own cost. Throughput RISES under pressure — the\n"
      "ladder sheds work instead of queueing it. The epoch table shows the\n"
      "same trade on the REBUILD side: an index build that blows its budget\n"
      "no longer withholds the epoch — it ships index-absent, and CODL\n"
      "answers through the compressed-evaluation fallback, tagged degraded.\n");
  return DumpMetrics(flags);
}

}  // namespace
}  // namespace cod::bench

int main(int argc, char** argv) { return cod::bench::Run(argc, argv); }

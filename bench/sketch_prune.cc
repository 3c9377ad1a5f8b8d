// Sketch-accelerated pruning and the approximate sketch rung (PR 10).
//
// Two measurements on one dataset build:
//
//  1. Prune speedup: per-query latency of exact CODU and CODL- on two
//     engines that share the same HIMOR/sketch build seed and differ ONLY
//     in EngineOptions::sketch_prune. The bench cross-checks every answer
//     pair for bit-equality (pruning is a pure skip; any divergence is a
//     bug and fails the run), and reports the prune rate actually achieved.
//
//  2. Sketch-rung quality: direct kCodSketch queries against the exact
//     CODU answer for the same (q, k). Precision = |S cap E| / |S| and
//     recall = |S cap E| / |E| over the member sets, averaged across
//     queries where the exact side found a community; found/not-found
//     agreement is reported alongside. The rung's latency quantiles show
//     what an admission-shedding tier pays per answer.
//
// JSON schema note: BenchJsonEntry carries latency quantiles only, so the
// dimensionless quality rates ride in p50_seconds under the
// "sketch_rung_quality" name (config "precision" / "recall" /
// "found_agreement"); consumers key on name+config, and the table output
// prints them under their real units.

#include <algorithm>
#include <cinttypes>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/query_workspace.h"

namespace cod::bench {
namespace {

constexpr uint32_t kTopK = 4;

// Sorted copy: member lists are per-level scans, not guaranteed ordered.
std::vector<NodeId> Sorted(const std::vector<NodeId>& v) {
  std::vector<NodeId> out = v;
  std::sort(out.begin(), out.end());
  return out;
}

bool SameAnswer(const CodResult& a, const CodResult& b) {
  return a.found == b.found && a.rank == b.rank &&
         a.num_levels == b.num_levels && a.code == b.code &&
         Sorted(a.members) == Sorted(b.members);
}

struct LatencyRow {
  std::vector<double> times;  // seconds per query
  uint64_t levels_pruned = 0;
  uint64_t levels_considered = 0;
};

BenchJsonEntry MakeEntry(const std::string& name, const std::string& config,
                         const std::vector<double>& times) {
  BenchJsonEntry e;
  e.name = name;
  e.config = config;
  e.p50_seconds = Quantile(times, 0.5);
  e.p95_seconds = Quantile(times, 0.95);
  e.p99_seconds = Quantile(times, 0.99);
  e.samples_per_sec = e.p50_seconds > 0.0 ? 1.0 / e.p50_seconds : 0.0;
  e.samples = times.size();
  return e;
}

int Run(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv, /*default_queries=*/100, {"cora-sim"});
  const std::string dataset = flags.datasets.front();
  std::printf("== Sketch pruning + sketch rung (%s, %zu queries) ==\n\n",
              dataset.c_str(), flags.queries);

  const AttributedGraph data = LoadDatasetOrDie(dataset);
  EngineOptions opts;
  opts.sketch_bits = 6;
  EngineOptions plain_opts = opts;
  plain_opts.sketch_prune = false;

  EngineCore pruned(data.graph, data.attributes, opts);
  EngineCore plain(data.graph, data.attributes, plain_opts);
  // Same schedule seed: both engines hold bit-identical HIMOR indexes and
  // sketches, so any answer divergence below is the prune bound's fault.
  COD_CHECK(pruned.TryBuildHimor(flags.seed).ok());
  COD_CHECK(plain.TryBuildHimor(flags.seed).ok());

  Rng query_rng(flags.seed + 17);
  const std::vector<Query> queries =
      GenerateQueries(data.attributes, flags.queries, query_rng);

  QueryWorkspace ws_pruned(pruned, flags.seed);
  QueryWorkspace ws_plain(plain, flags.seed);

  // ---- 1. Prune speedup on the exact evaluators. ----
  struct VariantCase {
    const char* label;
    bool attributed;  // CODL- takes the query attribute; CODU ignores it
  };
  const VariantCase cases[] = {{"codu", false}, {"codlminus", true}};
  std::vector<BenchJsonEntry> entries;
  WallTimer timer;
  for (const VariantCase& vc : cases) {
    LatencyRow on;
    LatencyRow off;
    size_t mismatches = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      const uint64_t qseed = flags.seed + 1000 + i;
      ws_pruned.ReseedRng(qseed);
      timer.Restart();
      const CodResult a =
          vc.attributed
              ? pruned.QueryCodLMinus(q.node, q.attribute, kTopK, ws_pruned)
              : pruned.QueryCodU(q.node, kTopK, ws_pruned);
      on.times.push_back(timer.ElapsedSeconds());
      on.levels_pruned += a.stats.sketch_levels_pruned;
      on.levels_considered += a.stats.sketch_levels_considered;

      ws_plain.ReseedRng(qseed);
      timer.Restart();
      const CodResult b =
          vc.attributed
              ? plain.QueryCodLMinus(q.node, q.attribute, kTopK, ws_plain)
              : plain.QueryCodU(q.node, kTopK, ws_plain);
      off.times.push_back(timer.ElapsedSeconds());
      if (!SameAnswer(a, b)) {
        ++mismatches;
        std::fprintf(stderr, "ANSWER DIVERGENCE: %s q=%u\n", vc.label,
                     q.node);
      }
    }
    if (mismatches != 0) {
      std::fprintf(stderr, "%zu pruned-vs-plain mismatches on %s\n",
                   mismatches, vc.label);
      return 1;
    }
    entries.push_back(MakeEntry(std::string("sketch_prune_") + vc.label,
                                dataset + "/prune_on", on.times));
    entries.push_back(MakeEntry(std::string("sketch_prune_") + vc.label,
                                dataset + "/prune_off", off.times));
    const double p50_on = entries[entries.size() - 2].p50_seconds;
    const double p50_off = entries.back().p50_seconds;
    const double prune_rate =
        on.levels_considered > 0
            ? static_cast<double>(on.levels_pruned) /
                  static_cast<double>(on.levels_considered)
            : 0.0;
    std::printf(
        "%-10s p50 %.6fs (prune on) vs %.6fs (off)  speedup %.2fx  "
        "pruned %" PRIu64 "/%" PRIu64 " levels (%.1f%%)\n",
        vc.label, p50_on, p50_off, p50_on > 0.0 ? p50_off / p50_on : 0.0,
        on.levels_pruned, on.levels_considered, 100.0 * prune_rate);
  }

  // ---- 2. Sketch-rung quality + latency vs exact CODU. ----
  std::vector<double> rung_times;
  double precision_sum = 0.0;
  double recall_sum = 0.0;
  size_t quality_samples = 0;
  size_t found_agreements = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    ws_pruned.ReseedRng(flags.seed + 2000 + i);
    const CodResult exact = pruned.QueryCodU(q.node, kTopK, ws_pruned);
    const QuerySpec spec{CodVariant::kCodSketch, q.node, kTopK, {}};
    timer.Restart();
    const CodResult approx = pruned.Query(spec, ws_pruned);
    rung_times.push_back(timer.ElapsedSeconds());
    if (approx.found == exact.found) ++found_agreements;
    if (!exact.found) continue;
    ++quality_samples;
    if (!approx.found) continue;  // counts as precision/recall 0
    const std::vector<NodeId> e = Sorted(exact.members);
    const std::vector<NodeId> s = Sorted(approx.members);
    std::vector<NodeId> both;
    std::set_intersection(e.begin(), e.end(), s.begin(), s.end(),
                          std::back_inserter(both));
    precision_sum += static_cast<double>(both.size()) /
                     static_cast<double>(s.size());
    recall_sum +=
        static_cast<double>(both.size()) / static_cast<double>(e.size());
  }
  const double precision =
      quality_samples > 0 ? precision_sum / quality_samples : 1.0;
  const double recall =
      quality_samples > 0 ? recall_sum / quality_samples : 1.0;
  const double agreement =
      queries.empty()
          ? 1.0
          : static_cast<double>(found_agreements) / queries.size();
  std::printf(
      "sketch rung p50 %.6fs  precision %.3f  recall %.3f  "
      "found-agreement %.3f (%zu attributed queries)\n\n",
      Quantile(rung_times, 0.5), precision, recall, agreement,
      quality_samples);

  entries.push_back(MakeEntry("sketch_rung", dataset + "/latency",
                              rung_times));
  // Dimensionless rates in p50_seconds — see the file comment.
  for (const auto& [config, value] :
       {std::pair<const char*, double>{"precision", precision},
        {"recall", recall},
        {"found_agreement", agreement}}) {
    BenchJsonEntry e;
    e.name = "sketch_rung_quality";
    e.config = dataset + "/" + config;
    e.p50_seconds = value;
    e.samples = quality_samples;
    entries.push_back(e);
  }

  TablePrinter table({"name", "config", "p50", "p95", "samples"});
  for (const BenchJsonEntry& e : entries) {
    table.AddRow({e.name, e.config, TablePrinter::Fmt(e.p50_seconds, 6),
                  TablePrinter::Fmt(e.p95_seconds, 6),
                  TablePrinter::Fmt(e.samples)});
  }
  table.Print(stdout);

  if (int rc = WriteBenchJson(flags.bench_json, entries); rc != 0) return rc;
  return DumpMetrics(flags);
}

}  // namespace
}  // namespace cod::bench

int main(int argc, char** argv) { return cod::bench::Run(argc, argv); }

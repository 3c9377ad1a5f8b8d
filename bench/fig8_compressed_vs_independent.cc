// Reproduces Fig. 8: Compressed vs Independent COD evaluation on Cora and
// CiteSeer stand-ins, sweeping theta in {10, 20, 40, 80}:
//   (a)/(d) average top-k precision (does a high-sample re-estimation
//           confirm the query is top-k in the returned community?),
//   (b)/(e) average/min/max |C*|,
//   (c)/(f) execution time.
// Both are CODR variants: the chain comes from global reclustering of g_l.

#include "bench/bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/independent_eval.h"
#include "eval/metrics.h"

namespace cod::bench {
namespace {

constexpr uint32_t kK = 5;
constexpr uint32_t kVerifyTheta = 400;

int Run(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv, /*default_queries=*/30,
                                 {"cora-sim", "citeseer-sim"});
  std::printf("== Fig. 8: Compressed vs Independent (k = %u) ==\n", kK);
  std::printf("(%zu queries per dataset; precision verified with %u RR sets "
              "per member)\n\n",
              flags.queries, kVerifyTheta);

  for (const std::string& name : flags.datasets) {
    const AttributedGraph data = LoadDatasetOrDie(name);
    EngineOptions options;
    options.cache_codr_hierarchies = true;
    EngineCore engine(data.graph, data.attributes, options);
    Rng rng(flags.seed);
    const std::vector<Query> queries =
        GenerateQueries(data.attributes, flags.queries, rng);

    // Chains are shared across both evaluators and all thetas.
    std::vector<CodChain> chains;
    chains.reserve(queries.size());
    for (const Query& q : queries) {
      chains.push_back(engine.BuildCodrChain(q.node, q.attribute));
    }

    TablePrinter table({"evaluator", "theta", "precision", "avg |C*|",
                        "min", "max", "time/query (s)"});
    for (const uint32_t theta : {10u, 20u, 40u, 80u}) {
      for (const bool compressed : {true, false}) {
        CompressedEvaluator comp(engine.model(), theta);
        IndependentEvaluator indep(engine.model(), theta);
        Accumulator size_acc;
        size_t served = 0;
        size_t precise = 0;
        WallTimer timer;
        double eval_seconds = 0.0;
        for (size_t i = 0; i < queries.size(); ++i) {
          timer.Restart();
          const ChainEvalOutcome outcome =
              compressed ? comp.Evaluate(chains[i], queries[i].node, kK, rng)
                         : indep.Evaluate(chains[i], queries[i].node, kK, rng);
          eval_seconds += timer.ElapsedSeconds();
          if (outcome.best_level < 0) continue;
          ++served;
          const std::vector<NodeId> members = chains[i].MembersOfLevel(
              static_cast<uint32_t>(outcome.best_level));
          size_acc.Add(static_cast<double>(members.size()));
          const uint32_t verified_rank = VerifiedRank(
              engine.model(), members, queries[i].node, kVerifyTheta, rng);
          precise += verified_rank < kK;
        }
        table.AddRow(
            {compressed ? "Compressed" : "Independent",
             TablePrinter::Fmt(static_cast<size_t>(theta)),
             TablePrinter::Fmt(
                 served == 0 ? 0.0
                             : static_cast<double>(precise) /
                                   static_cast<double>(served),
                 3),
             TablePrinter::Fmt(size_acc.Mean(), 1),
             TablePrinter::Fmt(size_acc.count() ? size_acc.Min() : 0.0, 0),
             TablePrinter::Fmt(size_acc.count() ? size_acc.Max() : 0.0, 0),
             TablePrinter::Fmt(eval_seconds / queries.size(), 4)});
      }
    }
    std::printf("-- %s --\n", name.c_str());
    table.Print(stdout);
    std::printf("\n");
  }
  std::printf(
      "Expected shape (paper): Compressed is several times faster at every\n"
      "theta with equal-or-better precision; Independent returns somewhat\n"
      "larger C* (independent samples avoid correlated false exclusions).\n");
  return 0;
}

}  // namespace
}  // namespace cod::bench

int main(int argc, char** argv) { return cod::bench::Run(argc, argv); }

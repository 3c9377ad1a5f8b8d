// Reproduces Fig. 7: effectiveness of COD methods vs attributed community
// search, for required influence rank k = 1..5, on six datasets.
//
//   (a)-(f)  average community size |C*|
//   (g)-(l)  average topology density rho(C*)
//   (m)-(r)  average attribute density phi(C*)
//   (s)-(x)  average query influence I(q) over queries the method served
//
// Methods: ACQ, ATC, CAC (community search baselines; a community counts as
// characteristic for k only if the query verifies as top-k inside it) and
// CODU, CODR, CODL (hierarchical COD variants). As in the paper, a query a
// method cannot serve contributes 0 to |C*|, rho, and phi.
//
// One chain evaluation at k = 5 serves all k (rank_per_level is reusable),
// and CODL's effectiveness is computed from its LORE hierarchy (identical to
// the HIMOR-accelerated CODL up to estimation noise; Fig. 9 covers runtime).

#include <array>

#include "baselines/atc.h"
#include "baselines/kcore.h"
#include "baselines/ktruss.h"
#include "bench/bench_util.h"
#include "common/table.h"
#include "eval/metrics.h"
#include "influence/monte_carlo.h"

namespace cod::bench {
namespace {

constexpr uint32_t kMaxK = 5;
constexpr uint32_t kVerifyTheta = 50;
constexpr size_t kInfluenceTrials = 300;

const char* kMethods[] = {"ACQ", "ATC", "CAC", "CODU", "CODR", "CODL"};
constexpr size_t kNumMethods = 6;

struct Cell {
  double size = 0.0;
  double rho = 0.0;
  double phi = 0.0;
  double influence = 0.0;  // summed over served queries only
  size_t served = 0;
};

int Run(int argc, char** argv) {
  const Flags flags = ParseFlags(
      argc, argv, /*default_queries=*/0,
      {"cora-sim", "citeseer-sim", "pubmed-sim", "retweet-sim", "amazon-sim",
       "dblp-sim"});
  std::printf("== Fig. 7: effectiveness vs community search, k = 1..%u ==\n",
              kMaxK);
  std::printf("(measures averaged over all queries, unserved queries count "
              "0;\n I(q) averaged over served queries)\n");

  for (const std::string& name : flags.datasets) {
    const AttributedGraph data = LoadDatasetOrDie(name);
    EngineOptions options;
    options.cache_codr_hierarchies = true;
    EngineCore engine(data.graph, data.attributes, options);
    CompressedEvaluator evaluator(engine.model(), options.theta);
    MonteCarloSimulator simulator(engine.model());
    Rng rng(flags.seed);
    // Auto workload: RR sampling on hub-heavy graphs is inherently costlier
    // (a reached hub pays one coin per incident edge), so bigger/hubbier
    // datasets get fewer queries by default; --queries=N overrides.
    size_t num_queries = flags.queries;
    if (num_queries == 0) {
      const size_t n = data.graph.NumNodes();
      num_queries = n <= 3000 ? 100 : (name == "retweet-sim" ? 15 : 30);
    }
    const std::vector<Query> queries =
        GenerateQueries(data.attributes, num_queries, rng);
    std::printf("\n[%s: %zu queries]\n", name.c_str(), queries.size());

    // accum[method][k-1]
    std::array<std::array<Cell, kMaxK>, kNumMethods> accum{};

    for (const Query& query : queries) {
      const double influence =
          simulator.EstimateInfluence(query.node, kInfluenceTrials, rng);

      auto record = [&](size_t method, uint32_t k,
                        std::span<const NodeId> members) {
        Cell& cell = accum[method][k - 1];
        if (members.empty()) return;
        cell.size += static_cast<double>(members.size());
        cell.rho += TopologyDensity(data.graph, members);
        cell.phi += AttributeDensity(data.attributes, query.attribute, members);
        cell.influence += influence;
        ++cell.served;
      };

      // --- Community-search baselines: one community, verified per k. ---
      const std::vector<std::vector<NodeId>> base_communities = {
          AcqSearch(data.graph, data.attributes, query.node, query.attribute),
          AtcSearch(data.graph, data.attributes, query.node, query.attribute),
          CacSearch(data.graph, data.attributes, query.node, query.attribute)};
      for (size_t b = 0; b < base_communities.size(); ++b) {
        const auto& community = base_communities[b];
        if (community.empty()) continue;
        const uint32_t rank = VerifiedRank(engine.model(), community,
                                           query.node, kVerifyTheta, rng);
        for (uint32_t k = rank + 1; k <= kMaxK; ++k) {
          record(b, k, community);
        }
      }

      // --- Hierarchical COD variants: one evaluation covers every k. ---
      const CodChain chains[3] = {
          engine.BuildCoduChain(query.node),
          engine.BuildCodrChain(query.node, query.attribute),
          engine.BuildCodlChain(query.node, query.attribute).chain};
      for (size_t c = 0; c < 3; ++c) {
        const ChainEvalOutcome outcome =
            evaluator.Evaluate(chains[c], query.node, kMaxK, rng);
        for (uint32_t k = 1; k <= kMaxK; ++k) {
          const int best = BestLevelForK(outcome, k);
          if (best < 0) continue;
          const std::vector<NodeId> members =
              chains[c].MembersOfLevel(static_cast<uint32_t>(best));
          record(3 + c, k, members);
        }
      }
    }

    const double nq = static_cast<double>(queries.size());
    struct Metric {
      const char* title;
      double Cell::* sum;
      bool over_served;
    };
    const Metric metrics[] = {
        {"avg |C*|", &Cell::size, false},
        {"avg topology density rho", &Cell::rho, false},
        {"avg attribute density phi", &Cell::phi, false},
        {"avg I(q) of served queries", &Cell::influence, true},
    };
    for (const Metric& metric : metrics) {
      std::printf("\n-- %s: %s --\n", name.c_str(), metric.title);
      TablePrinter table({"method", "k=1", "k=2", "k=3", "k=4", "k=5"});
      for (size_t m = 0; m < kNumMethods; ++m) {
        std::vector<std::string> row{kMethods[m]};
        for (uint32_t k = 1; k <= kMaxK; ++k) {
          const Cell& cell = accum[m][k - 1];
          const double denom =
              metric.over_served ? static_cast<double>(cell.served) : nq;
          const double value =
              denom == 0.0 ? 0.0 : cell.*(metric.sum) / denom;
          row.push_back(TablePrinter::Fmt(value, 3));
        }
        table.AddRow(std::move(row));
      }
      table.Print(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "Expected shape (paper): COD variants find much larger C* than\n"
      "ACQ/ATC/CAC; CODL leads topology and attribute density among COD\n"
      "variants; sizes grow and I(q) falls as k increases; CODL serves\n"
      "queries with the lowest I(q).\n");
  return 0;
}

}  // namespace
}  // namespace cod::bench

int main(int argc, char** argv) { return cod::bench::Run(argc, argv); }

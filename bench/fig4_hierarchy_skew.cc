// Reproduces Fig. 4: the average size of the 5 deepest communities that
// contain a query node, under three hierarchy constructions —
//   CODU: agglomerative clustering of the raw graph,
//   CODR: agglomerative clustering of the attribute-weighted graph g_l,
//   CODL: LORE's local recluster spliced under the global hierarchy.
// The paper's point: global hierarchies are skewed (even the deepest
// communities around an average node are huge), LORE's are fine-grained.

#include "bench/bench_util.h"
#include "common/table.h"

namespace cod::bench {
namespace {

int Run(int argc, char** argv) {
  const Flags flags =
      ParseFlags(argc, argv, /*default_queries=*/100, SmallDatasetNames());
  std::printf("== Fig. 4: avg size of the 5 deepest communities ==\n");
  std::printf("(%zu queries per dataset)\n\n", flags.queries);
  TablePrinter table({"dataset", "CODU", "CODR", "CODL"});
  for (const std::string& name : flags.datasets) {
    const AttributedGraph data = LoadDatasetOrDie(name);
    EngineOptions options;
    options.cache_codr_hierarchies = true;
    EngineCore engine(data.graph, data.attributes, options);
    Rng rng(flags.seed);
    const std::vector<Query> queries =
        GenerateQueries(data.attributes, flags.queries, rng);

    auto five_deepest_avg = [](const CodChain& chain) {
      double total = 0.0;
      size_t count = 0;
      for (size_t h = 0; h < std::min<size_t>(5, chain.NumLevels()); ++h) {
        total += chain.community_size[h];
        ++count;
      }
      return count == 0 ? 0.0 : total / static_cast<double>(count);
    };

    double codu = 0.0;
    double codr = 0.0;
    double codl = 0.0;
    for (const Query& q : queries) {
      codu += five_deepest_avg(engine.BuildCoduChain(q.node));
      codr += five_deepest_avg(engine.BuildCodrChain(q.node, q.attribute));
      codl += five_deepest_avg(
          engine.BuildCodlChain(q.node, q.attribute).chain);
    }
    const double n = static_cast<double>(queries.size());
    table.AddRow({name, TablePrinter::Fmt(codu / n, 1),
                  TablePrinter::Fmt(codr / n, 1),
                  TablePrinter::Fmt(codl / n, 1)});
  }
  table.Print(stdout);
  std::printf(
      "\nExpected shape (paper): hub-dominated datasets (pubmed/retweet) give\n"
      "global hierarchies (CODU, CODR) whose deepest communities are large;\n"
      "LORE's locally reclustered hierarchy (CODL) is markedly finer there.\n");
  return 0;
}

}  // namespace
}  // namespace cod::bench

int main(int argc, char** argv) { return cod::bench::Run(argc, argv); }

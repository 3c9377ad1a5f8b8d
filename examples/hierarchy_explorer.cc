// Hierarchy explorer: a small CLI that prints everything COD knows about one
// node — its ancestor chain in the community hierarchy, the LORE
// reclustering scores that decide where local reclustering happens, and the
// node's estimated influence rank at every level.
//
//   $ ./hierarchy_explorer [dataset] [node]
//   $ ./hierarchy_explorer cora-sim 42
//
// Also accepts a pair of files instead of a registry dataset:
//   $ ./hierarchy_explorer edges.txt attrs.txt 42

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table.h"
#include "core/compressed_eval.h"
#include "core/engine_core.h"
#include "eval/datasets.h"
#include "graph/graph_io.h"

int main(int argc, char** argv) {
  cod::AttributedGraph data;
  cod::NodeId node = 0;
  if (argc >= 4) {
    cod::Result<cod::Graph> graph = cod::LoadEdgeList(argv[1]);
    if (!graph.ok()) {
      std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
      return 1;
    }
    data.graph = std::move(graph).value();
    cod::Result<cod::AttributeTable> attrs =
        cod::LoadAttributes(argv[2], data.graph.NumNodes());
    if (!attrs.ok()) {
      std::fprintf(stderr, "%s\n", attrs.status().ToString().c_str());
      return 1;
    }
    data.attributes = std::move(attrs).value();
    node = static_cast<cod::NodeId>(std::strtoul(argv[3], nullptr, 10));
  } else {
    const std::string name = argc > 1 ? argv[1] : "cora-sim";
    cod::Result<cod::AttributedGraph> loaded = cod::MakeDataset(name);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    data = std::move(loaded).value();
    node = argc > 2
               ? static_cast<cod::NodeId>(std::strtoul(argv[2], nullptr, 10))
               : 42;
  }
  if (node >= data.graph.NumNodes()) {
    std::fprintf(stderr, "node %u out of range (|V| = %zu)\n", node,
                 data.graph.NumNodes());
    return 1;
  }

  cod::EngineCore engine(data.graph, data.attributes, {});
  std::printf("node %u: degree %u, attributes:", node,
              data.graph.Degree(node));
  for (const cod::AttributeId a : data.attributes.AttributesOf(node)) {
    std::printf(" %s", data.attributes.Name(a).c_str());
  }
  std::printf("\n\n");

  const auto node_attrs = data.attributes.AttributesOf(node);
  const cod::AttributeId attr =
      node_attrs.empty() ? cod::kInvalidAttribute : node_attrs[0];

  // LORE scores along the ancestor chain.
  if (attr != cod::kInvalidAttribute) {
    const cod::LoreScores scores = cod::ComputeReclusteringScores(
        data.graph, data.attributes, engine.base_hierarchy(),
        engine.base_lca(), node, attr);
    std::printf("ancestor chain and LORE reclustering scores (attribute "
                "'%s'):\n",
                data.attributes.Name(attr).c_str());
    cod::TablePrinter table({"level", "dep", "|C|", "r(C)", "chosen"});
    for (size_t i = 0; i < scores.chain.size(); ++i) {
      table.AddRow(
          {cod::TablePrinter::Fmt(i),
           cod::TablePrinter::Fmt(static_cast<size_t>(
               engine.base_hierarchy().Depth(scores.chain[i]))),
           cod::TablePrinter::Fmt(static_cast<size_t>(
               engine.base_hierarchy().LeafCount(scores.chain[i]))),
           cod::TablePrinter::Fmt(scores.score[i], 4),
           i == scores.selected ? "<- C_ell" : ""});
    }
    table.Print(stdout);
  }

  // Influence ranks at every level of the attribute-aware chain.
  if (attr != cod::kInvalidAttribute) {
    cod::Rng rng(1);
    cod::CompressedEvaluator evaluator(engine.model(), 20);
    const cod::LoreChain lore = engine.BuildCodlChain(node, attr);
    const cod::ChainEvalOutcome outcome =
        evaluator.Evaluate(lore.chain, node, engine.options().k, rng);
    std::printf("\nattribute-aware chain: estimated rank per level "
                "(k = %u, '>=%u' = below top-k):\n",
                engine.options().k, engine.options().k);
    cod::TablePrinter table({"level", "|C|", "rank of node", "top-k?"});
    for (size_t h = 0; h < lore.chain.NumLevels(); ++h) {
      const uint32_t rank = outcome.rank_per_level[h];
      const bool top = rank < engine.options().k;
      table.AddRow({cod::TablePrinter::Fmt(h),
                    cod::TablePrinter::Fmt(
                        static_cast<size_t>(lore.chain.community_size[h])),
                    top ? cod::TablePrinter::Fmt(static_cast<size_t>(rank + 1))
                        : (">=" + std::to_string(engine.options().k + 1)),
                    top ? "yes" : ""});
    }
    table.Print(stdout);
    if (outcome.best_level >= 0) {
      std::printf("\ncharacteristic community: level %d, %u members\n",
                  outcome.best_level,
                  lore.chain.community_size[outcome.best_level]);
    } else {
      std::printf("\nno characteristic community at k = %u\n",
                  engine.options().k);
    }
  }
  return 0;
}

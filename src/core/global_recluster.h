// Attribute-weighted graph transform and global reclustering (the CODR
// variant, paper Section IV intro).
//
// To make a community hierarchy reflect a query attribute l_q, the graph is
// rewritten as g_l: every edge whose two endpoints both carry l_q has its
// weight boosted by `beta` (w = 1 + beta instead of 1), and hierarchical
// clustering is run on the weighted graph. The paper leaves the exact
// transform open ("any method [25], [26]"); this additive boost is the
// simplest member of that family and is configurable.

#ifndef COD_CORE_GLOBAL_RECLUSTER_H_
#define COD_CORE_GLOBAL_RECLUSTER_H_

#include "common/deadline.h"
#include "common/status.h"
#include "graph/attributes.h"
#include "graph/graph.h"
#include "hierarchy/dendrogram.h"

namespace cod {

// How the query attribute reshapes edge weights in g_l. The paper leaves the
// scheme open ("any method [25], [26]"); three members of that family:
//  * kQueryBoost (default): w = base + beta if both endpoints carry the
//    query attribute, else base.
//  * kJaccard: w = base * (1 + beta * J(A(u), A(v))) with J the Jaccard
//    similarity of the full attribute sets — attribute-blind to the query
//    but rewards overall homophily.
//  * kQueryJaccard: like kJaccard, but only edges whose endpoints share the
//    query attribute get the homophily bonus.
enum class AttributeTransform {
  kQueryBoost,
  kJaccard,
  kQueryJaccard,
};

struct TransformOptions {
  AttributeTransform transform = AttributeTransform::kQueryBoost;
  double beta = 2.0;
};

// Whole-graph transform: same topology, attribute-reshaped weights. The
// span overloads treat an edge as query-attributed when both endpoints carry
// at least one of `query_attrs` (multi-attribute "topic set" queries); the
// AttributeId overloads are the single-attribute convenience forms
// (kInvalidAttribute = no query attribute, i.e., no boost).
Graph BuildAttributeWeightedGraph(const Graph& g, const AttributeTable& attrs,
                                  std::span<const AttributeId> query_attrs,
                                  const TransformOptions& options);
Graph BuildAttributeWeightedGraph(const Graph& g, const AttributeTable& attrs,
                                  AttributeId query_attribute,
                                  const TransformOptions& options);

// Induced-subgraph transform used by LORE: only `members` and their mutual
// edges, with the same weighting rule; `to_parent` maps local to parent ids.
InducedSubgraph BuildAttributeWeightedSubgraph(
    const Graph& g, const AttributeTable& attrs,
    std::span<const AttributeId> query_attrs, const TransformOptions& options,
    std::span<const NodeId> members);
InducedSubgraph BuildAttributeWeightedSubgraph(
    const Graph& g, const AttributeTable& attrs, AttributeId query_attribute,
    const TransformOptions& options, std::span<const NodeId> members);

// CODR's hierarchy: agglomerative clustering of the transformed graph.
Dendrogram GlobalRecluster(const Graph& g, const AttributeTable& attrs,
                           std::span<const AttributeId> query_attrs,
                           const TransformOptions& options);
Dendrogram GlobalRecluster(const Graph& g, const AttributeTable& attrs,
                           AttributeId query_attribute,
                           const TransformOptions& options);

// Budget-aware forms: the clustering pass polls `budget` (see the NN-chain
// poll in hierarchy/agglomerative.h) and unwinds with kTimeout / kCancelled
// instead of overshooting a deadline by a whole agglomerative run.
Result<Dendrogram> GlobalRecluster(const Graph& g, const AttributeTable& attrs,
                                   std::span<const AttributeId> query_attrs,
                                   const TransformOptions& options,
                                   const Budget& budget);
Result<Dendrogram> GlobalRecluster(const Graph& g, const AttributeTable& attrs,
                                   AttributeId query_attribute,
                                   const TransformOptions& options,
                                   const Budget& budget);

}  // namespace cod

#endif  // COD_CORE_GLOBAL_RECLUSTER_H_

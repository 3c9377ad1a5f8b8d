#include "core/global_recluster.h"

#include "hierarchy/agglomerative.h"

namespace cod {
namespace {

// Jaccard similarity of two sorted attribute id spans.
double AttributeJaccard(std::span<const AttributeId> a,
                        std::span<const AttributeId> b) {
  if (a.empty() && b.empty()) return 0.0;
  size_t i = 0;
  size_t j = 0;
  size_t common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t unioned = a.size() + b.size() - common;
  return unioned == 0 ? 0.0
                      : static_cast<double>(common) /
                            static_cast<double>(unioned);
}

double EdgeWeight(const Graph& g, const AttributeTable& attrs,
                  std::span<const AttributeId> query_attrs,
                  const TransformOptions& options, EdgeId e) {
  const auto [u, v] = g.Endpoints(e);
  const double base = g.Weight(e);
  const bool share_query = !query_attrs.empty() &&
                           attrs.HasAny(u, query_attrs) &&
                           attrs.HasAny(v, query_attrs);
  switch (options.transform) {
    case AttributeTransform::kQueryBoost:
      return base + (share_query ? options.beta : 0.0);
    case AttributeTransform::kJaccard:
      return base * (1.0 + options.beta *
                               AttributeJaccard(attrs.AttributesOf(u),
                                                attrs.AttributesOf(v)));
    case AttributeTransform::kQueryJaccard:
      if (!share_query) return base;
      return base * (1.0 + options.beta *
                               AttributeJaccard(attrs.AttributesOf(u),
                                                attrs.AttributesOf(v)));
  }
  COD_CHECK(false);
  return base;
}

// Normalizes the single-attribute convenience form to a span (empty when
// kInvalidAttribute, i.e., no query attribute).
std::span<const AttributeId> AsSpan(const AttributeId& attr) {
  return attr == kInvalidAttribute
             ? std::span<const AttributeId>()
             : std::span<const AttributeId>(&attr, 1);
}

}  // namespace

Graph BuildAttributeWeightedGraph(const Graph& g, const AttributeTable& attrs,
                                  std::span<const AttributeId> query_attrs,
                                  const TransformOptions& options) {
  GraphBuilder builder(g.NumNodes());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    builder.AddEdge(u, v, EdgeWeight(g, attrs, query_attrs, options, e));
  }
  return std::move(builder).Build();
}

Graph BuildAttributeWeightedGraph(const Graph& g, const AttributeTable& attrs,
                                  AttributeId query_attribute,
                                  const TransformOptions& options) {
  return BuildAttributeWeightedGraph(g, attrs, AsSpan(query_attribute),
                                     options);
}

InducedSubgraph BuildAttributeWeightedSubgraph(
    const Graph& g, const AttributeTable& attrs,
    std::span<const AttributeId> query_attrs, const TransformOptions& options,
    std::span<const NodeId> members) {
  std::vector<NodeId> to_local(g.NumNodes(), kInvalidNode);
  for (size_t i = 0; i < members.size(); ++i) {
    to_local[members[i]] = static_cast<NodeId>(i);
  }
  InducedSubgraph sub;
  sub.to_parent.assign(members.begin(), members.end());
  GraphBuilder builder(members.size());
  for (NodeId parent_u : members) {
    const NodeId lu = to_local[parent_u];
    for (const AdjEntry& a : g.Neighbors(parent_u)) {
      const NodeId lv = to_local[a.to];
      if (lv == kInvalidNode || lv <= lu) continue;
      builder.AddEdge(
          lu, lv, EdgeWeight(g, attrs, query_attrs, options, a.edge));
    }
  }
  sub.graph = std::move(builder).Build();
  return sub;
}

InducedSubgraph BuildAttributeWeightedSubgraph(
    const Graph& g, const AttributeTable& attrs, AttributeId query_attribute,
    const TransformOptions& options, std::span<const NodeId> members) {
  return BuildAttributeWeightedSubgraph(g, attrs, AsSpan(query_attribute),
                                        options, members);
}

Dendrogram GlobalRecluster(const Graph& g, const AttributeTable& attrs,
                           std::span<const AttributeId> query_attrs,
                           const TransformOptions& options) {
  const Graph weighted =
      BuildAttributeWeightedGraph(g, attrs, query_attrs, options);
  return AgglomerativeCluster(weighted);
}

Dendrogram GlobalRecluster(const Graph& g, const AttributeTable& attrs,
                           AttributeId query_attribute,
                           const TransformOptions& options) {
  return GlobalRecluster(g, attrs, AsSpan(query_attribute), options);
}

Result<Dendrogram> GlobalRecluster(const Graph& g, const AttributeTable& attrs,
                                   std::span<const AttributeId> query_attrs,
                                   const TransformOptions& options,
                                   const Budget& budget) {
  // The transform itself is one O(|E|) pass — cheap next to clustering — so
  // the budget only gates the agglomerative run.
  const Graph weighted =
      BuildAttributeWeightedGraph(g, attrs, query_attrs, options);
  return AgglomerativeCluster(weighted, AgglomerativeOptions{}, budget);
}

Result<Dendrogram> GlobalRecluster(const Graph& g, const AttributeTable& attrs,
                                   AttributeId query_attribute,
                                   const TransformOptions& options,
                                   const Budget& budget) {
  return GlobalRecluster(g, attrs, AsSpan(query_attribute), options, budget);
}

}  // namespace cod

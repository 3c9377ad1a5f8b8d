#include "graph/graph.h"

#include <algorithm>
#include <string>

namespace cod {

EdgeId Graph::FindEdge(NodeId u, NodeId v) const {
  if (u >= NumNodes() || v >= NumNodes() || u == v) return kInvalidEdge;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  for (const AdjEntry& a : Neighbors(u)) {
    if (a.to == v) return a.edge;
  }
  return kInvalidEdge;
}

double Graph::TotalWeight() const {
  if (weights_.empty()) return static_cast<double>(NumEdges());
  double total = 0.0;
  for (double w : weights_) total += w;
  return total;
}

void GraphBuilder::AddEdge(NodeId u, NodeId v, double weight) {
  if (u == v) return;  // Self-loops carry no structural information here.
  if (u > v) std::swap(u, v);
  const size_t needed = static_cast<size_t>(v) + 1;
  if (needed > num_nodes_) num_nodes_ = needed;
  pending_.emplace_back(u, v);
  pending_weights_.push_back(weight);
}

Graph GraphBuilder::Build() && {
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<double> weights;
  bool weighted = false;
  const bool strictly_increasing =
      std::adjacent_find(pending_.begin(), pending_.end(),
                         [](const auto& a, const auto& b) {
                           return !(a < b);
                         }) == pending_.end();
  if (strictly_increasing) {
    // Already canonical (a service rebuild): nothing to sort or merge.
    edges = std::move(pending_);
    weights = std::move(pending_weights_);
    weighted = std::any_of(weights.begin(), weights.end(),
                           [](double w) { return w != 1.0; });
  } else {
    // Sort edge records to merge duplicates deterministically.
    std::vector<size_t> order(pending_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return pending_[a] < pending_[b];
    });
    for (size_t idx : order) {
      const auto& e = pending_[idx];
      if (!edges.empty() && edges.back() == e) {
        weights.back() += pending_weights_[idx];
        weighted = true;
        continue;
      }
      edges.push_back(e);
      weights.push_back(pending_weights_[idx]);
      if (pending_weights_[idx] != 1.0) weighted = true;
    }
  }
  if (!weighted) weights = {};  // release the all-1.0 buffer too

  // Two-pass CSR fill.
  std::vector<size_t> offsets(num_nodes_ + 1, 0);
  for (const auto& [u, v] : edges) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (size_t i = 1; i <= num_nodes_; ++i) offsets[i] += offsets[i - 1];
  std::vector<AdjEntry> adjacency(2 * edges.size());
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (EdgeId e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    adjacency[cursor[u]++] = AdjEntry{v, e};
    adjacency[cursor[v]++] = AdjEntry{u, e};
  }
  // Neighbor lists come out strictly increasing by id because edges were
  // sorted and each node's slots are filled in edge order; the graph
  // section decoder (graph_io.h) relies on it.
  Graph g;
  g.offsets_ = SharedArray<size_t>(std::move(offsets));
  g.adjacency_ = SharedArray<AdjEntry>(std::move(adjacency));
  g.edges_ = SharedArray<std::pair<NodeId, NodeId>>(std::move(edges));
  g.weights_ = SharedArray<double>(std::move(weights));
  return g;
}

InducedSubgraph BuildInducedSubgraph(const Graph& g,
                                     std::span<const NodeId> nodes) {
  InducedSubgraph sub;
  sub.to_parent.assign(nodes.begin(), nodes.end());
  std::vector<NodeId> to_local(g.NumNodes(), kInvalidNode);
  for (size_t i = 0; i < nodes.size(); ++i) {
    COD_CHECK(nodes[i] < g.NumNodes());
    COD_CHECK(to_local[nodes[i]] == kInvalidNode);  // no duplicates
    to_local[nodes[i]] = static_cast<NodeId>(i);
  }
  GraphBuilder builder(nodes.size());
  for (NodeId parent_u : nodes) {
    const NodeId lu = to_local[parent_u];
    for (const AdjEntry& a : g.Neighbors(parent_u)) {
      const NodeId lv = to_local[a.to];
      if (lv == kInvalidNode || lv <= lu) continue;  // keep each edge once
      builder.AddEdge(lu, lv, g.Weight(a.edge));
    }
  }
  sub.graph = std::move(builder).Build();
  return sub;
}

Status ValidateGlobalIds(const GlobalIds& ids, size_t num_nodes) {
  if (ids.global.size() != num_nodes) {
    return Status::InvalidArgument("global id map covers " +
                                   std::to_string(ids.global.size()) +
                                   " nodes, the graph has " +
                                   std::to_string(num_nodes));
  }
  for (size_t v = 0; v < ids.global.size(); ++v) {
    if (ids.global[v] >= ids.global_nodes) {
      return Status::InvalidArgument("global id out of range");
    }
    if (v > 0 && ids.global[v] <= ids.global[v - 1]) {
      return Status::InvalidArgument("global ids not strictly ascending");
    }
  }
  return Status::Ok();
}

}  // namespace cod

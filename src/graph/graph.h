// Immutable undirected graph in compressed sparse row (CSR) form.
//
// This is the structural substrate of codlib: communities are node sets over
// a Graph, hierarchies are built on it, and influence processes run over its
// edges. Graphs are built once through GraphBuilder (or adopted from a
// snapshot's graph section, graph_io.h) and never mutated, which keeps
// adjacency iteration cache-friendly and makes sharing across modules
// trivial.
//
// Conventions:
//  * Nodes are dense ids 0..NumNodes()-1 (NodeId).
//  * Each undirected edge {u, v} has one dense EdgeId; both adjacency
//    directions reference the same EdgeId, so per-edge annotations (weights,
//    truss numbers, activation coins) are arrays indexed by EdgeId.
//  * Self-loops are rejected; parallel edges are merged (weights summed).

#ifndef COD_GRAPH_GRAPH_H_
#define COD_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/shared_array.h"
#include "common/status.h"

namespace cod {

using NodeId = uint32_t;
using EdgeId = uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

// One adjacency slot: the neighbor and the shared undirected edge id.
struct AdjEntry {
  NodeId to;
  EdgeId edge;
};

class BinaryBufferWriter;
class BinarySpanReader;

class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  size_t NumNodes() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  size_t NumEdges() const { return edges_.size(); }

  uint32_t Degree(NodeId v) const {
    COD_DCHECK(v < NumNodes());
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  std::span<const AdjEntry> Neighbors(NodeId v) const {
    COD_DCHECK(v < NumNodes());
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  // Endpoints of edge `e` with Endpoints(e).first < Endpoints(e).second.
  std::pair<NodeId, NodeId> Endpoints(EdgeId e) const {
    COD_DCHECK(e < edges_.size());
    return edges_[e];
  }

  // Edge weight; 1.0 for graphs built without explicit weights.
  double Weight(EdgeId e) const {
    COD_DCHECK(e < edges_.size());
    return weights_.empty() ? 1.0 : weights_[e];
  }
  bool HasWeights() const { return !weights_.empty(); }

  // Returns the id of edge {u, v}, or kInvalidEdge if absent.
  // O(min(deg(u), deg(v))) scan.
  EdgeId FindEdge(NodeId u, NodeId v) const;

  // Total weight (== NumEdges() for unweighted graphs).
  double TotalWeight() const;

 private:
  friend class GraphBuilder;
  friend void SerializeGraph(const Graph& g, BinaryBufferWriter& out);
  friend Result<Graph> DeserializeGraph(BinarySpanReader& in);

  SharedArray<size_t> offsets_;            // size NumNodes()+1
  SharedArray<AdjEntry> adjacency_;        // size 2*NumEdges()
  SharedArray<std::pair<NodeId, NodeId>> edges_;  // canonical (min, max)
  SharedArray<double> weights_;            // empty, or size NumEdges()
};

// Accumulates edges and produces an immutable Graph. Duplicate edges are
// merged (weights summed); self-loops are dropped.
class GraphBuilder {
 public:
  // `num_nodes` may grow automatically as edges reference larger ids.
  explicit GraphBuilder(size_t num_nodes = 0) : num_nodes_(num_nodes) {}

  void AddEdge(NodeId u, NodeId v, double weight = 1.0);
  void SetNumNodes(size_t n);
  size_t num_nodes() const { return num_nodes_; }

  // Builds the CSR graph. If every accumulated weight equals 1.0 the graph is
  // marked unweighted. The builder is consumed.
  Graph Build() &&;

 private:
  size_t num_nodes_;
  std::vector<std::pair<NodeId, NodeId>> pending_;  // canonical (min, max)
  std::vector<double> pending_weights_;
};

// A materialized induced subgraph together with the mapping back to the
// parent graph's node ids. `graph` uses local ids 0..nodes.size()-1 and
// `to_parent[local]` is the parent id; edge weights are inherited.
struct InducedSubgraph {
  Graph graph;
  std::vector<NodeId> to_parent;
};

// Builds the subgraph of `g` induced by `nodes` (parent ids; duplicates not
// allowed). Nodes keep the relative order given in `nodes`.
InducedSubgraph BuildInducedSubgraph(const Graph& g,
                                     std::span<const NodeId> nodes);

// Where the nodes of a compact subgraph sit in a larger graph (a shard's
// nodes in the whole graph): local node v is node `global[v]` of a
// `global_nodes`-node graph. `global` is strictly ascending, so relabelling
// keeps every id order (and with it every order-based tie break).
struct GlobalIds {
  uint64_t global_nodes = 0;
  std::vector<NodeId> global;

  bool operator==(const GlobalIds&) const = default;
};

// The id that keys node v's random schedules (its RR samples, its sketch
// rank): v itself, or its global id when `keys` maps a compact shard into
// the whole graph (GlobalIds::global; empty = identity). Keying by global
// id makes a shard draw exactly what a whole-graph engine draws for v.
inline NodeId NodeKey(std::span<const NodeId> keys, NodeId v) {
  return keys.empty() ? v : keys[v];
}

// InvalidArgument unless `ids` maps exactly `num_nodes` local nodes,
// strictly ascending, into [0, global_nodes).
Status ValidateGlobalIds(const GlobalIds& ids, size_t num_nodes);

}  // namespace cod

#endif  // COD_GRAPH_GRAPH_H_

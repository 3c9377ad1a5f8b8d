// Deterministic component-atomic graph partitioning for the sharded
// serving tier.
//
// Both strategies assign whole connected components to shards — never
// splitting one — because the shard engines answer component-scoped
// queries (EngineOptions::component_scoped): as long as a component's
// edges land intact on exactly one shard, that shard's answers for the
// component's nodes are bit-identical to any other layout's, which is
// what makes the router's merged results independent of the shard count.
//
// The assignment is a pure function of (graph, attrs, num_shards,
// strategy): components are ordered deterministically and placed with a
// greedy longest-processing-time balance, ties always toward the smaller
// index. No randomness, no iteration-order dependence.
//
// Each shard then holds only its own nodes, relabelled 0..k-1 in ascending
// global order (compact ids), so it clusters, samples theta·k RR sources
// and sizes its arrays by k, not by the whole graph.

#ifndef COD_SERVING_PARTITION_H_
#define COD_SERVING_PARTITION_H_

#include <cstdint>
#include <vector>

#include "graph/attributes.h"
#include "graph/graph.h"
#include "serving/service_options.h"

namespace cod {

struct GraphPartition {
  std::vector<uint32_t> shard_of_node;  // per node, in [0, num_shards)
  uint32_t num_shards = 0;
  // Nodes per shard (the balance the greedy placement optimized).
  std::vector<uint32_t> shard_nodes;
  // Compact ids: a shard numbers its own nodes 0..shard_nodes[s]-1 in
  // ascending global order. local_of_node is the global -> local map (per
  // node, its id on its own shard); global_of_local[s] the local -> global
  // map of shard s, strictly ascending. The two are inverse.
  std::vector<NodeId> local_of_node;
  std::vector<std::vector<NodeId>> global_of_local;

  uint32_t ShardOf(NodeId v) const { return shard_of_node[v]; }
  NodeId LocalOf(NodeId v) const { return local_of_node[v]; }
};

// Assigns every node to a shard. Fewer components than shards is legal:
// the surplus shards stay empty (their shard graphs have no nodes) — a
// connected graph simply cannot be spread wider than one shard without
// changing answers.
GraphPartition PartitionGraph(const Graph& g, const AttributeTable& attrs,
                              uint32_t num_shards, PartitionStrategy strategy);

// The subgraph shard `shard` serves, in compact ids: its own nodes only,
// relabelled by partition.local_of_node, with exactly the edges whose two
// endpoints the partition assigned to `shard`. Component-atomic partitions
// never produce cross-shard edges, so the shard graphs tile the input's
// edge set. The relabelling is monotone, so edge and adjacency order are
// the input's; with the shard's global ids keying every node-keyed random
// schedule (GlobalIds, EngineCore::global_ids), a shard answers exactly
// what a whole-graph component-scoped engine answers for its nodes.
Graph BuildShardGraph(const Graph& g, const GraphPartition& partition,
                      uint32_t shard);

}  // namespace cod

#endif  // COD_SERVING_PARTITION_H_

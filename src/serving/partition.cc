#include "serving/partition.h"

#include <algorithm>
#include <cstdint>

#include "common/status.h"
#include "graph/connectivity.h"

namespace cod {
namespace {

struct ComponentInfo {
  uint32_t label = 0;
  uint32_t size = 0;
  // kAttributeLocality grouping key: the component's dominant attribute
  // (most member occurrences, smallest id on ties); kInvalidAttribute when
  // no member carries any attribute.
  AttributeId dominant = kInvalidAttribute;
};

// Greedy longest-processing-time placement over an already-ordered
// component list: each component goes to the lightest shard so far, ties
// toward the smallest shard index. Deterministic for a deterministic
// input order.
void PlaceGreedy(const std::vector<ComponentInfo>& order,
                 const Components& comps, GraphPartition& out) {
  std::vector<uint64_t> load(out.num_shards, 0);
  std::vector<uint32_t> shard_of_comp(comps.count, 0);
  for (const ComponentInfo& c : order) {
    uint32_t best = 0;
    for (uint32_t s = 1; s < out.num_shards; ++s) {
      if (load[s] < load[best]) best = s;
    }
    shard_of_comp[c.label] = best;
    load[best] += c.size;
  }
  out.shard_of_node.resize(comps.label.size());
  out.local_of_node.resize(comps.label.size());
  out.shard_nodes.assign(out.num_shards, 0);
  out.global_of_local.assign(out.num_shards, {});
  for (size_t v = 0; v < comps.label.size(); ++v) {
    const uint32_t s = shard_of_comp[comps.label[v]];
    out.shard_of_node[v] = s;
    out.local_of_node[v] = out.shard_nodes[s]++;
    out.global_of_local[s].push_back(static_cast<NodeId>(v));
  }
}

std::vector<ComponentInfo> DescribeComponents(const Graph& g,
                                              const AttributeTable& attrs,
                                              const Components& comps,
                                              bool want_dominant) {
  std::vector<ComponentInfo> info(comps.count);
  for (uint32_t c = 0; c < comps.count; ++c) info[c].label = c;
  for (uint32_t label : comps.label) ++info[label].size;
  if (want_dominant && attrs.NumAttributes() > 0) {
    // One counting pass per component would be O(components x attributes);
    // instead count (component, attribute) pairs in a flat map keyed by
    // component-major order so the scan stays O(sum of attribute rows).
    std::vector<std::vector<uint32_t>> counts(
        comps.count, std::vector<uint32_t>());
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      auto& local = counts[comps.label[v]];
      for (AttributeId a : attrs.AttributesOf(v)) {
        if (local.size() <= a) local.resize(a + 1, 0);
        ++local[a];
      }
    }
    for (uint32_t c = 0; c < comps.count; ++c) {
      uint32_t best_count = 0;
      AttributeId best = kInvalidAttribute;
      for (AttributeId a = 0; a < counts[c].size(); ++a) {
        if (counts[c][a] > best_count) {
          best_count = counts[c][a];
          best = a;
        }
      }
      info[c].dominant = best;
    }
  }
  return info;
}

}  // namespace

GraphPartition PartitionGraph(const Graph& g, const AttributeTable& attrs,
                              uint32_t num_shards,
                              PartitionStrategy strategy) {
  COD_CHECK(num_shards >= 1);
  COD_CHECK_EQ(g.NumNodes(), attrs.NumNodes());
  GraphPartition out;
  out.num_shards = num_shards;
  const Components comps = ConnectedComponents(g);
  std::vector<ComponentInfo> order = DescribeComponents(
      g, attrs, comps,
      /*want_dominant=*/strategy == PartitionStrategy::kAttributeLocality);
  switch (strategy) {
    case PartitionStrategy::kConnectedComponents:
      // Size-balanced: biggest components placed first (LPT), label order
      // breaking size ties so the order is total and deterministic.
      std::sort(order.begin(), order.end(),
                [](const ComponentInfo& a, const ComponentInfo& b) {
                  if (a.size != b.size) return a.size > b.size;
                  return a.label < b.label;
                });
      break;
    case PartitionStrategy::kAttributeLocality:
      // Topic-clustered: components sharing a dominant attribute are
      // placed consecutively, so the greedy pass tends to co-locate them
      // on whichever shard is lightest when their run starts. Within a
      // topic, biggest first; attribute-less components (dominant ==
      // kInvalidAttribute, the largest id) sort last as pure filler.
      std::sort(order.begin(), order.end(),
                [](const ComponentInfo& a, const ComponentInfo& b) {
                  if (a.dominant != b.dominant) return a.dominant < b.dominant;
                  if (a.size != b.size) return a.size > b.size;
                  return a.label < b.label;
                });
      break;
  }
  PlaceGreedy(order, comps, out);
  return out;
}

Graph BuildShardGraph(const Graph& g, const GraphPartition& partition,
                      uint32_t shard) {
  COD_CHECK(shard < partition.num_shards);
  COD_CHECK_EQ(g.NumNodes(), partition.shard_of_node.size());
  GraphBuilder builder(partition.shard_nodes[shard]);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    // Component-atomic partitions put both endpoints on one shard; the
    // check is for span-of-edges correctness, not a rejection path.
    COD_DCHECK(partition.shard_of_node[u] == partition.shard_of_node[v]);
    if (partition.shard_of_node[u] != shard) continue;
    builder.AddEdge(partition.local_of_node[u], partition.local_of_node[v],
                    g.Weight(e));
  }
  return std::move(builder).Build();
}

}  // namespace cod

// Shared fixtures for the codlib test suite: tiny hand-built graphs and the
// paper's running example (Fig. 2 graph + hierarchy, Fig. 5 attributes).

#ifndef COD_TESTS_TEST_UTIL_H_
#define COD_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "core/engine_core.h"
#include "core/himor.h"
#include "graph/attributes.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "hierarchy/dendrogram.h"

namespace cod::testing {

// Bit-level equality of two query answers (every observable field), used by
// the determinism and concurrency suites.
inline bool SameResult(const CodResult& a, const CodResult& b) {
  return a.found == b.found && a.members == b.members && a.rank == b.rank &&
         a.num_levels == b.num_levels &&
         a.answered_from_index == b.answered_from_index &&
         a.code == b.code && a.degraded == b.degraded &&
         a.variant_served == b.variant_served;
}

// Element-wise equality of two HIMOR carries: every RR sample's bytes,
// the pair records, the old-dendrogram arrays and the bucket rows (entries
// in stored order).
inline bool SameCarry(const HimorSampleCache& a, const HimorSampleCache& b) {
  if (a.valid != b.valid || a.theta != b.theta || a.seed != b.seed ||
      a.max_rank != b.max_rank || a.num_leaves != b.num_leaves ||
      a.parent != b.parent || a.set_hash != b.set_hash ||
      a.set_size != b.set_size || a.pair_begin != b.pair_begin ||
      a.pair_pos != b.pair_pos || a.pair_tag != b.pair_tag ||
      a.pair_node != b.pair_node ||
      a.rr.NumSamples() != b.rr.NumSamples() ||
      a.rr.TotalNodes() != b.rr.TotalNodes() ||
      a.rows.size() != b.rows.size()) {
    return false;
  }
  for (size_t i = 0; i < a.rr.NumSamples(); ++i) {
    const RrSlabPool::View x = a.rr.Sample(i);
    const RrSlabPool::View y = b.rr.Sample(i);
    if (x.source != y.source || x.node_count != y.node_count ||
        !std::equal(x.nodes, x.nodes + x.node_count, y.nodes) ||
        !std::equal(x.offsets, x.offsets + x.node_count + 1, y.offsets) ||
        !std::equal(x.neighbors, x.neighbors + x.offsets[x.node_count],
                    y.neighbors)) {
      return false;
    }
  }
  for (const auto& [hash, row] : a.rows) {
    const auto it = b.rows.find(hash);
    if (it == b.rows.end() || it->second.node != row.node ||
        it->second.count != row.count) {
      return false;
    }
  }
  return true;
}

// Path 0-1-2-...-(n-1).
inline Graph MakePath(size_t n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1);
  return std::move(b).Build();
}

// Complete graph on n nodes.
inline Graph MakeClique(size_t n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) b.AddEdge(u, v);
  }
  return std::move(b).Build();
}

// Two k-cliques {0..k-1} and {k..2k-1} joined by the bridge (k-1, k).
inline Graph MakeTwoCliquesWithBridge(size_t k) {
  GraphBuilder b(2 * k);
  for (NodeId u = 0; u < k; ++u) {
    for (NodeId v = u + 1; v < k; ++v) {
      b.AddEdge(u, v);
      b.AddEdge(u + k, v + k);
    }
  }
  b.AddEdge(static_cast<NodeId>(k - 1), static_cast<NodeId>(k));
  return std::move(b).Build();
}

// A graph with the attribute table drawn for it.
struct World {
  Graph graph;
  AttributeTable attrs;
};

// Three disjoint planted-partition parts: several connected components, so
// the dendrogram stacks impure merge vertices above them and
// component-scoped materialization drops those.
inline World MakeMultiComponentWorld(uint64_t seed, size_t part_nodes = 70) {
  constexpr size_t kParts = 3;
  Rng rng(seed);
  GraphBuilder b(kParts * part_nodes);
  std::vector<uint32_t> block(kParts * part_nodes);
  uint32_t block_base = 0;
  for (size_t p = 0; p < kParts; ++p) {
    HppParams params;
    params.num_nodes = part_nodes;
    params.num_edges = 4 * part_nodes;
    params.levels = 2;
    params.fanout = 3;
    const GeneratedGraph part = HierarchicalPlantedPartition(params, rng);
    const NodeId base = static_cast<NodeId>(p * part_nodes);
    for (EdgeId e = 0; e < part.graph.NumEdges(); ++e) {
      const auto [u, v] = part.graph.Endpoints(e);
      b.AddEdge(base + u, base + v, part.graph.Weight(e));
    }
    for (NodeId v = 0; v < part_nodes; ++v) {
      block[base + v] = block_base + part.block[v];
    }
    block_base += part.num_blocks;
  }
  World w;
  w.graph = std::move(b).Build();
  w.attrs = AssignCorrelatedAttributes(block, 4, 0.8, 0.1, rng);
  return w;
}

// The paper's Fig. 2 example: 10 nodes, 15 edges, hierarchy
//   C0 = {v0..v3}, C2 = {v6,v7}, C3 = C0+C2, C1 = {v4,v5}, C4 = C3+C1,
//   C5 = {v8,v9}, C6 = C4+C5 (root).
// Depths: C6=1, C4=2, C5=2, C3=3, C1=3, C0=4, C2=4 — matching Example 2's
// dep(C3) = 3 and H(v0) = {C0, C3, C4, C6}.
struct PaperExample {
  Graph graph;
  Dendrogram dendrogram;
  CommunityId c0, c1, c2, c3, c4, c5, c6;
};

inline PaperExample MakePaperExample() {
  PaperExample ex;
  GraphBuilder b(10);
  // Dense block {v0..v3}.
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  // Block {v6, v7} attached to C0.
  b.AddEdge(6, 7);
  b.AddEdge(3, 7);
  b.AddEdge(2, 6);
  // Block {v4, v5} attached to C3's nodes.
  b.AddEdge(4, 5);
  b.AddEdge(2, 4);
  b.AddEdge(3, 5);
  b.AddEdge(5, 6);
  // Block {v8, v9} attached to the rest.
  b.AddEdge(8, 9);
  b.AddEdge(4, 8);
  b.AddEdge(7, 9);
  ex.graph = std::move(b).Build();

  DendrogramBuilder db(10);
  // Build bottom-up; leaves are 0..9. C0 is a 4-way vertex exactly as in
  // Fig. 2 (the builder supports arbitrary fan-out).
  const CommunityId c0_children[4] = {0, 1, 2, 3};
  ex.c0 = db.Merge(c0_children);           // C0 = {0,1,2,3}
  ex.c2 = db.Merge(6, 7);                  // C2 = {6,7}
  ex.c3 = db.Merge(ex.c0, ex.c2);          // C3
  ex.c1 = db.Merge(4, 5);                  // C1 = {4,5}
  ex.c4 = db.Merge(ex.c3, ex.c1);          // C4
  ex.c5 = db.Merge(8, 9);                  // C5 = {8,9}
  ex.c6 = db.Merge(ex.c4, ex.c5);          // C6 = root
  ex.dendrogram = std::move(db).Build();
  return ex;
}

// Fig. 5 attributes: DB on v2, v3, v4, v5, v7 (the query-attributed edges on
// v0's chain are then (v2,v4), (v3,v5) with lca C4 and (v3,v7) with lca C3,
// reproducing Delta(C3) = 1, Delta(C4) = 2 of Example 6; note v2-v3 is an
// in-C0 edge and must stay excluded from every score).
inline AttributeTable MakePaperAttributes() {
  AttributeTableBuilder b;
  for (NodeId v : {2, 3, 4, 5, 7}) b.Add(v, "DB");
  b.Add(0, "IR");
  b.Add(1, "IR");
  b.Add(8, "ML");
  b.Add(9, "ML");
  return std::move(b).Build(10);
}

}  // namespace cod::testing

#endif  // COD_TESTS_TEST_UTIL_H_

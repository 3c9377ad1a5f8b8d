// Bottom-up construction of CoverageSketchIndex during a HIMOR build.
//
// HimorIndex::BuildFromItems already walks the dendrogram in ascending
// community-id order (parents after children, Theorem 6), with three facts
// the sketch gets for free at each non-leaf community c:
//
//  * the sorted bucket run `updated` — the nodes whose DEEPEST tag is c,
//    i.e. exactly the nodes c adds to its children's covered sets (every
//    source appears in its leaf-parent's bucket, so leaves need no
//    signatures of their own);
//  * the fully merged run `merged` — every covered node of c with its exact
//    cumulative count, descending — from which the top `rank_depth`
//    thresholds and the exact support are read off;
//  * for materialized c, acc[v] per member v — v's exact count at c; the
//    ascending sweep overwrites so each node ends at its TOPMOST
//    materialized ancestor (the monotone upper bound pruning needs).
//
// The builder is pure bookkeeping over those hooks: signatures merge with
// the associative/commutative bottom-k union (counter-seeded SketchNodeRank,
// so cold and delta builds agree bit-for-bit), and
// Finish() packs the CSR index. Thresholds/signatures are emitted only for
// MATERIALIZED communities — the only ones HIMOR ranks and the only ones a
// chain level can name.

#ifndef COD_HIERARCHY_SKETCH_BUILDER_H_
#define COD_HIERARCHY_SKETCH_BUILDER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "hierarchy/dendrogram.h"
#include "influence/coverage_sketch.h"

namespace cod {

class CoverageSketchBuilder {
 public:
  // `num_vertices` counts dendrogram vertices (leaves + internal),
  // `num_nodes` graph nodes. (schedule_seed, theta) must be the schedule
  // the surrounding HIMOR build samples with; rank_depth its max_rank.
  // `node_keys` (borrowed; empty = identity) are the global ids that key
  // each node's SketchNodeRank on a compact shard (NodeKey).
  CoverageSketchBuilder(size_t num_vertices, size_t num_nodes,
                        uint64_t schedule_seed, uint32_t theta,
                        uint32_t sketch_bits, uint32_t rank_depth,
                        std::span<const NodeId> node_keys = {});

  // Called once per non-leaf community, children-first. `bucket` is the
  // community's own sorted bucket run (count, node): the nodes first
  // covered at c.
  void MergeUp(CommunityId c, std::span<const CommunityId> children,
               std::span<const std::pair<uint32_t, NodeId>> bucket);

  // Called for materialized communities only, after ranks are assigned.
  // `merged` is the full descending coverage run of c.
  void RecordCommunity(CommunityId c,
                       std::span<const std::pair<uint32_t, NodeId>> merged);

  // v's exact cumulative count at the materialized community currently
  // being processed; last write wins (= topmost materialized ancestor).
  void SetTopCount(NodeId v, uint32_t count) { top_count_[v] = count; }

  // Packs the CSR index. The builder is spent afterwards.
  CoverageSketchIndex Finish();

 private:
  uint64_t schedule_seed_;
  std::span<const NodeId> node_keys_;
  uint32_t theta_;
  uint32_t sketch_bits_;
  uint32_t rank_depth_;
  size_t cap_;

  std::vector<std::vector<uint64_t>> sigs_;      // transient, per community
  std::vector<std::vector<uint32_t>> thr_;       // recorded communities only
  std::vector<uint8_t> recorded_;
  std::vector<uint32_t> support_;
  std::vector<uint32_t> top_count_;

  std::vector<uint64_t> cur_;  // merge scratch
  std::vector<uint64_t> tmp_;

  double merge_seconds_ = 0.0;
};

}  // namespace cod

#endif  // COD_HIERARCHY_SKETCH_BUILDER_H_

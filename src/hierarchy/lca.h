// O(1) lowest-common-ancestor queries over a Dendrogram.
//
// Range minimum over the n-1 leaf gaps of the DFS leaf order: gap i is the
// lca of the leaves at positions i and i+1, and the lca of the leaves at
// p < q is the shallowest gap in [p, q-1]. Level k of a sparse table holds
// the shallowest gap of every window of 2^k gaps: (n-1)(floor(log2(n-1))+1)
// ids, 1.7 MB on dblp-sim (an Euler-tour table over 2V-1 positions: 9.4 MB).
// The paper's Theorems 5 and 6 assume this constant-time lca.

#ifndef COD_HIERARCHY_LCA_H_
#define COD_HIERARCHY_LCA_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "hierarchy/dendrogram.h"

namespace cod {

class LcaIndex {
 public:
  // Builds the index; `dendrogram` must outlive the index.
  explicit LcaIndex(const Dendrogram& dendrogram);

  // Lowest common ancestor of two dendrogram vertices (leaves or internal).
  CommunityId Lca(CommunityId a, CommunityId b) const;

  // lca of two graph nodes: the smallest community containing both.
  CommunityId LcaOfNodes(NodeId u, NodeId v) const {
    uint32_t p = dendrogram_->LeafPosition(u);
    uint32_t q = dendrogram_->LeafPosition(v);
    if (p == q) return dendrogram_->LeafOf(u);
    if (p > q) std::swap(p, q);
    return ShallowestGap(p, q);
  }

 private:
  // The shallowest gap in [p, q-1], for leaf positions p < q.
  CommunityId ShallowestGap(uint32_t p, uint32_t q) const {
    COD_DCHECK(p < q && q <= num_gaps_);
    const uint32_t k = std::bit_width(q - p) - 1;
    const CommunityId* level = table_.data() + LevelOffset(k);
    const CommunityId left = level[p];
    const CommunityId right = level[q - (uint32_t{1} << k)];
    return dendrogram_->Depth(left) <= dendrogram_->Depth(right) ? left
                                                                 : right;
  }

  // Level j holds num_gaps_ - 2^j + 1 windows; level k starts after 0..k-1.
  size_t LevelOffset(uint32_t k) const {
    return size_t{k} * (num_gaps_ + 1) - (size_t{1} << k) + 1;
  }

  const Dendrogram* dendrogram_;
  uint32_t num_gaps_ = 0;
  std::vector<CommunityId> table_;  // levels back to back; level 0 = gaps
};

}  // namespace cod

#endif  // COD_HIERARCHY_LCA_H_

#include "hierarchy/lca.h"

namespace cod {

LcaIndex::LcaIndex(const Dendrogram& dendrogram) : dendrogram_(&dendrogram) {
  if (dendrogram.NumLeaves() < 2) return;
  num_gaps_ = static_cast<uint32_t>(dendrogram.NumLeaves() - 1);
  const uint32_t levels = std::bit_width(num_gaps_);
  table_.resize(LevelOffset(levels));

  // Gap i: the first ancestor of the leaf at position i whose interval goes
  // on past i. Each vertex ends one interval, so the walks total O(V).
  const auto order = dendrogram.Members(dendrogram.Root());
  for (uint32_t i = 0; i < num_gaps_; ++i) {
    CommunityId c = dendrogram.LeafOf(order[i]);
    while (dendrogram.LeafBegin(c) + dendrogram.LeafCount(c) == i + 1) {
      c = dendrogram.Parent(c);
    }
    table_[i] = c;
  }
  for (uint32_t k = 1; k < levels; ++k) {
    const CommunityId* prev = table_.data() + LevelOffset(k - 1);
    CommunityId* level = table_.data() + LevelOffset(k);
    const uint32_t half = uint32_t{1} << (k - 1);
    for (uint32_t i = 0; i + 2 * half <= num_gaps_; ++i) {
      const CommunityId left = prev[i];
      const CommunityId right = prev[i + half];
      level[i] = dendrogram.Depth(left) <= dendrogram.Depth(right) ? left
                                                                   : right;
    }
  }
}

CommunityId LcaIndex::Lca(CommunityId a, CommunityId b) const {
  if (dendrogram_->IsAncestorOrSelf(a, b)) return a;
  if (dendrogram_->IsAncestorOrSelf(b, a)) return b;
  // Disjoint leaf intervals: every leaf of `a` meets every leaf of `b` at
  // the same lca, so the first leaves stand in for both.
  uint32_t p = dendrogram_->LeafBegin(a);
  uint32_t q = dendrogram_->LeafBegin(b);
  if (p > q) std::swap(p, q);
  return ShallowestGap(p, q);
}

}  // namespace cod

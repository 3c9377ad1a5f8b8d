#include "hierarchy/dendrogram.h"

#include <algorithm>

namespace cod {

std::vector<CommunityId> Dendrogram::PathToRoot(NodeId q) const {
  std::vector<CommunityId> path;
  CommunityId c = Parent(LeafOf(q));
  while (c != kInvalidCommunity) {
    path.push_back(c);
    c = Parent(c);
  }
  return path;
}

DendrogramBuilder::DendrogramBuilder(size_t num_leaves)
    : num_leaves_(num_leaves),
      parent_(num_leaves, kInvalidCommunity),
      children_(num_leaves) {}

CommunityId DendrogramBuilder::Merge(std::span<const CommunityId> children) {
  COD_CHECK(children.size() >= 2);
  const CommunityId id = static_cast<CommunityId>(parent_.size());
  parent_.push_back(kInvalidCommunity);
  children_.emplace_back(children.begin(), children.end());
  for (CommunityId child : children) {
    COD_CHECK(child < id);
    COD_CHECK(parent_[child] == kInvalidCommunity);  // child must be a root
    parent_[child] = id;
  }
  return id;
}

Dendrogram DendrogramBuilder::Build() && {
  const size_t num_vertices = parent_.size();
  Dendrogram d;
  d.num_leaves_ = num_leaves_;
  d.parent_ = std::move(parent_);

  // Locate the unique root.
  d.root_ = kInvalidCommunity;
  for (CommunityId c = 0; c < num_vertices; ++c) {
    if (d.parent_[c] == kInvalidCommunity) {
      COD_CHECK(d.root_ == kInvalidCommunity);  // exactly one root
      d.root_ = c;
    }
  }
  // Only the empty hierarchy (no leaves) has no root.
  COD_CHECK((d.root_ != kInvalidCommunity) == (num_vertices > 0));

  // CSR children.
  d.child_offsets_.assign(num_vertices + 1, 0);
  for (CommunityId c = 0; c < num_vertices; ++c) {
    d.child_offsets_[c + 1] = d.child_offsets_[c] + children_[c].size();
  }
  d.children_.resize(d.child_offsets_[num_vertices]);
  for (CommunityId c = 0; c < num_vertices; ++c) {
    std::copy(children_[c].begin(), children_[c].end(),
              d.children_.begin() + d.child_offsets_[c]);
  }

  // Iterative DFS from the root: assign depths and contiguous leaf ranges.
  d.depth_.assign(num_vertices, 0);
  d.leaf_begin_.assign(num_vertices, 0);
  d.leaf_end_.assign(num_vertices, 0);
  d.leaf_order_.reserve(num_leaves_);
  d.leaf_position_.assign(num_leaves_, 0);

  // Stack entries: (vertex, entering). On exit, the leaf range closes.
  std::vector<std::pair<CommunityId, bool>> stack;
  if (num_vertices > 0) {
    stack.emplace_back(d.root_, true);
    d.depth_[d.root_] = 1;
  }
  while (!stack.empty()) {
    auto [c, entering] = stack.back();
    stack.pop_back();
    if (entering) {
      d.leaf_begin_[c] = static_cast<uint32_t>(d.leaf_order_.size());
      if (c < num_leaves_) {
        d.leaf_position_[c] = static_cast<uint32_t>(d.leaf_order_.size());
        d.leaf_order_.push_back(static_cast<NodeId>(c));
        d.leaf_end_[c] = static_cast<uint32_t>(d.leaf_order_.size());
        continue;
      }
      stack.emplace_back(c, false);
      const auto kids = d.Children(c);
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        d.depth_[*it] = d.depth_[c] + 1;
        stack.emplace_back(*it, true);
      }
    } else {
      d.leaf_end_[c] = static_cast<uint32_t>(d.leaf_order_.size());
    }
  }
  COD_CHECK_EQ(d.leaf_order_.size(), num_leaves_);
  return d;
}

}  // namespace cod

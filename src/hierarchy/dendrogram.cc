#include "hierarchy/dendrogram.h"

#include <algorithm>
#include <string>

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

Result<Dendrogram> Dendrogram::FromArrays(size_t num_leaves,
                                          SharedArray<CommunityId> parent,
                                          SharedArray<size_t> child_offsets,
                                          SharedArray<CommunityId> children) {
  const size_t num_vertices = parent.size();
  if (num_vertices < num_leaves || num_vertices > 2 * num_leaves ||
      child_offsets.size() != num_vertices + 1 || child_offsets[0] != 0 ||
      child_offsets[num_vertices] != children.size()) {
    return Status::InvalidArgument("dendrogram arrays disagree in size");
  }
  for (size_t c = 0; c < num_vertices; ++c) {
    if (child_offsets[c + 1] < child_offsets[c]) {
      return Status::InvalidArgument("dendrogram child offsets not monotone");
    }
    const size_t count = child_offsets[c + 1] - child_offsets[c];
    if (c < num_leaves ? count != 0 : count < 2) {
      return Status::InvalidArgument("corrupt children list");
    }
  }
  Dendrogram d;
  d.num_leaves_ = num_leaves;
  d.parent_ = std::move(parent);
  d.child_offsets_ = std::move(child_offsets);
  d.children_ = std::move(children);
  d.depth_.assign(num_vertices, 0);
  d.leaf_begin_.assign(num_vertices, 0);
  d.leaf_end_.assign(num_vertices, 1);  // leaf counts until the second pass
  d.leaf_order_.resize(num_leaves);
  d.leaf_position_.resize(num_leaves);
  if (num_vertices == 0) return d;

  // Every child has a smaller id than its parent, so the last vertex is the
  // root. Pass 1, ascending: a vertex's children are final before it, so
  // leaf counts add up, and each vertex may be reached only once (depth_
  // marks it; the root is never reached).
  d.root_ = static_cast<CommunityId>(num_vertices - 1);
  if (d.parent_[d.root_] != kInvalidCommunity) {
    return Status::InvalidArgument("dendrogram root has a parent");
  }
  for (size_t c = num_leaves; c < num_vertices; ++c) {
    uint32_t count = 0;
    for (const CommunityId child : d.Children(static_cast<CommunityId>(c))) {
      if (child >= c) {
        return Status::InvalidArgument("child id not below its parent");
      }
      if (d.parent_[child] != c || d.depth_[child] != 0) {
        return Status::InvalidArgument("dendrogram vertex reached twice");
      }
      d.depth_[child] = 1;
      count += d.leaf_end_[child];
    }
    d.leaf_end_[c] = count;
  }
  if (static_cast<size_t>(std::count(d.depth_.begin(), d.depth_.end(), 1u)) !=
      num_vertices - 1) {
    return Status::InvalidArgument("hierarchy is not a single tree");
  }

  // Pass 2, descending: a vertex's parent is placed before it, so depths and
  // leaf ranges flow down; children take consecutive ranges in list order
  // (the pre-order a DFS visiting children in order produces).
  d.depth_[d.root_] = 1;
  for (size_t c = num_vertices; c-- > 0;) {
    const uint32_t begin = d.leaf_begin_[c];
    d.leaf_end_[c] += begin;
    if (c < num_leaves) {
      d.leaf_order_[begin] = static_cast<NodeId>(c);
      d.leaf_position_[c] = begin;
      continue;
    }
    uint32_t cursor = begin;
    for (const CommunityId child : d.Children(static_cast<CommunityId>(c))) {
      d.depth_[child] = d.depth_[c] + 1;
      d.leaf_begin_[child] = cursor;
      cursor += d.leaf_end_[child];
    }
  }
  return d;
}

DendrogramBuilder::DendrogramBuilder(size_t num_leaves)
    : num_leaves_(num_leaves),
      parent_(num_leaves, kInvalidCommunity),
      child_offsets_(num_leaves + 1, 0) {}

CommunityId DendrogramBuilder::Merge(std::span<const CommunityId> children) {
  COD_CHECK(children.size() >= 2);
  const CommunityId id = static_cast<CommunityId>(parent_.size());
  parent_.push_back(kInvalidCommunity);
  for (CommunityId child : children) {
    COD_CHECK(child < id);
    COD_CHECK(parent_[child] == kInvalidCommunity);  // child must be a root
    parent_[child] = id;
  }
  children_.insert(children_.end(), children.begin(), children.end());
  child_offsets_.push_back(children_.size());
  return id;
}

Dendrogram DendrogramBuilder::Build() && {
  Result<Dendrogram> d = Dendrogram::FromArrays(
      num_leaves_, SharedArray<CommunityId>(std::move(parent_)),
      SharedArray<size_t>(std::move(child_offsets_)),
      SharedArray<CommunityId>(std::move(children_)));
  COD_CHECK(d.ok());  // exactly one root: every vertex but the last merged
  return std::move(d).value();
}

}  // namespace cod

// Community hierarchy (dendrogram) over a graph's nodes.
//
// A Dendrogram is a rooted tree whose leaves are the graph's nodes and whose
// internal vertices are communities: the community held by an internal vertex
// is the set of leaves below it (paper Sec. II-A). Vertices 0..n-1 are the
// leaves (leaf i <=> NodeId i); internal vertices follow in construction
// order, so for a binary agglomerative hierarchy the root is vertex 2n-2.
//
// The tree itself is three arrays — Parent, and Children as a CSR — built by
// DendrogramBuilder or adopted from a snapshot's hierarchy section
// (dendrogram_io.h). FromArrays validates them and derives the rest in two
// flat passes over the vertex ids. The structure is immutable and offers:
//  * Depth(c): distance from the root, with Depth(root) == 1 as in the paper.
//  * Members(c): the leaves below c, contiguous in a global leaf ordering, so
//    membership tests (Contains) are two integer comparisons.
//  * PathToRoot(q): the chain H(q) of communities containing node q, sorted
//    deepest-first, excluding the singleton leaf itself.

#ifndef COD_HIERARCHY_DENDROGRAM_H_
#define COD_HIERARCHY_DENDROGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/shared_array.h"
#include "common/status.h"
#include "graph/graph.h"

namespace cod {

using CommunityId = uint32_t;

inline constexpr CommunityId kInvalidCommunity = static_cast<CommunityId>(-1);

class Dendrogram {
 public:
  Dendrogram() = default;

  // The tree over `num_leaves` leaves given by `parent` (kInvalidCommunity
  // for the root) and the children CSR (`child_offsets`, NumVertices() + 1
  // entries, into `children`); the arrays are adopted as they are.
  // InvalidArgument unless they form one tree in the builder's shape: leaves
  // 0..num_leaves-1 without children, every internal vertex with >= 2
  // children of smaller id that name it as their parent, the root the last
  // vertex, every vertex reached exactly once. No leaves, no vertices is the
  // empty hierarchy.
  static Result<Dendrogram> FromArrays(size_t num_leaves,
                                       SharedArray<CommunityId> parent,
                                       SharedArray<size_t> child_offsets,
                                       SharedArray<CommunityId> children);

  Dendrogram(const Dendrogram&) = delete;
  Dendrogram& operator=(const Dendrogram&) = delete;
  Dendrogram(Dendrogram&&) = default;
  Dendrogram& operator=(Dendrogram&&) = default;

  size_t NumLeaves() const { return num_leaves_; }
  size_t NumVertices() const { return parent_.size(); }
  CommunityId Root() const { return root_; }

  bool IsLeaf(CommunityId c) const { return c < num_leaves_; }
  // The graph node held by leaf vertex `c`.
  NodeId LeafNode(CommunityId c) const {
    COD_DCHECK(IsLeaf(c));
    return static_cast<NodeId>(c);
  }
  // The leaf vertex of graph node `v`.
  CommunityId LeafOf(NodeId v) const {
    COD_DCHECK(v < num_leaves_);
    return static_cast<CommunityId>(v);
  }

  // kInvalidCommunity for the root.
  CommunityId Parent(CommunityId c) const {
    COD_DCHECK(c < parent_.size());
    return parent_[c];
  }

  std::span<const CommunityId> Children(CommunityId c) const {
    COD_DCHECK(c < parent_.size());
    return {children_.data() + child_offsets_[c],
            child_offsets_[c + 1] - child_offsets_[c]};
  }

  // Depth from the root; Depth(Root()) == 1 (paper convention dep in Z+).
  uint32_t Depth(CommunityId c) const {
    COD_DCHECK(c < parent_.size());
    return depth_[c];
  }

  // Number of graph nodes in community `c` (1 for leaves).
  uint32_t LeafCount(CommunityId c) const {
    COD_DCHECK(c < parent_.size());
    return leaf_end_[c] - leaf_begin_[c];
  }

  // The nodes of community `c`, contiguous in the global leaf order.
  std::span<const NodeId> Members(CommunityId c) const {
    COD_DCHECK(c < parent_.size());
    return {leaf_order_.data() + leaf_begin_[c],
            static_cast<size_t>(leaf_end_[c] - leaf_begin_[c])};
  }

  // Position of community `c`'s first member in the global leaf order.
  uint32_t LeafBegin(CommunityId c) const {
    COD_DCHECK(c < parent_.size());
    return leaf_begin_[c];
  }

  // Position of node `v` in the global leaf order.
  uint32_t LeafPosition(NodeId v) const {
    COD_DCHECK(v < num_leaves_);
    return leaf_position_[v];
  }

  bool Contains(CommunityId c, NodeId v) const {
    COD_DCHECK(c < parent_.size());
    COD_DCHECK(v < num_leaves_);
    const uint32_t pos = leaf_position_[v];
    return pos >= leaf_begin_[c] && pos < leaf_end_[c];
  }

  // H(q): every non-leaf community containing `q`, deepest first; the last
  // element is the root. Size equals Depth(Parent(LeafOf(q))).
  std::vector<CommunityId> PathToRoot(NodeId q) const;

  // True iff `ancestor` is `c` itself or an ancestor of `c`.
  bool IsAncestorOrSelf(CommunityId ancestor, CommunityId c) const {
    return leaf_begin_[ancestor] <= leaf_begin_[c] &&
           leaf_end_[c] <= leaf_end_[ancestor];
  }

 private:
  friend void SerializeDendrogram(const Dendrogram& dendrogram,
                                  BinaryBufferWriter& out);

  size_t num_leaves_ = 0;
  CommunityId root_ = kInvalidCommunity;
  SharedArray<CommunityId> parent_;
  SharedArray<size_t> child_offsets_;
  SharedArray<CommunityId> children_;
  std::vector<uint32_t> depth_;
  std::vector<uint32_t> leaf_begin_;
  std::vector<uint32_t> leaf_end_;
  std::vector<NodeId> leaf_order_;      // leaves in DFS order
  std::vector<uint32_t> leaf_position_; // inverse of leaf_order_
};

// Accumulates merges bottom-up (agglomerative) or from an explicit parent
// relation and produces an immutable Dendrogram.
class DendrogramBuilder {
 public:
  explicit DendrogramBuilder(size_t num_leaves);

  // Creates a new internal vertex with the given children (which must be
  // roots of their current subtrees). Returns the new vertex's id.
  CommunityId Merge(std::span<const CommunityId> children);
  CommunityId Merge(CommunityId a, CommunityId b) {
    const CommunityId pair[2] = {a, b};
    return Merge(pair);
  }

  // Number of vertices created so far (leaves + internal).
  size_t NumVertices() const { return parent_.size(); }

  // Finalizes; every vertex except exactly one must have a parent. With no
  // leaves this is the empty hierarchy: no vertices, Root() ==
  // kInvalidCommunity (an empty shard's).
  Dendrogram Build() &&;

 private:
  size_t num_leaves_;
  std::vector<CommunityId> parent_;
  // Children CSR; merges create vertices in id order, so it only appends.
  std::vector<size_t> child_offsets_;
  std::vector<CommunityId> children_;
};

}  // namespace cod

#endif  // COD_HIERARCHY_DENDROGRAM_H_

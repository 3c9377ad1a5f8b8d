#include "hierarchy/dendrogram_io.h"

#include <vector>

#include "common/binary_io.h"

namespace cod {

void SerializeDendrogram(const Dendrogram& dendrogram,
                         BinaryBufferWriter& out) {
  out.WritePod<uint64_t>(dendrogram.NumLeaves());
  out.WritePod<uint64_t>(dendrogram.NumVertices());
  // Internal vertices in id order; ids of children are stable because the
  // builder assigns internal ids sequentially after the leaves.
  for (CommunityId c = static_cast<CommunityId>(dendrogram.NumLeaves());
       c < dendrogram.NumVertices(); ++c) {
    const auto kids = dendrogram.Children(c);
    std::vector<CommunityId> children(kids.begin(), kids.end());
    out.WriteVector(children);
  }
}

Result<Dendrogram> DeserializeDendrogram(BinarySpanReader& in) {
  uint64_t num_leaves = 0;
  uint64_t num_vertices = 0;
  // Header sanity: every internal vertex has >= 2 children, so
  // num_vertices <= 2 * num_leaves - 1; the leaf cap matches the edge-list
  // loader's 1e8 node limit (corrupt headers must not drive allocations).
  constexpr uint64_t kMaxLeaves = 100'000'000;
  if (!in.ReadPod(&num_leaves) || !in.ReadPod(&num_vertices)) {
    return in.status();
  }
  // The empty hierarchy (no leaves, no vertices) is legal: an empty shard.
  if (num_leaves > kMaxLeaves || num_vertices < num_leaves ||
      num_vertices > 2 * num_leaves) {
    in.Fail("corrupt dendrogram header");
    return in.status();
  }
  DendrogramBuilder builder(num_leaves);
  std::vector<char> has_parent(num_vertices, 0);
  for (uint64_t c = num_leaves; c < num_vertices; ++c) {
    std::vector<CommunityId> children;
    if (!in.ReadVector(&children, num_vertices)) return in.status();
    if (children.size() < 2) {
      in.Fail("corrupt children list");
      return in.status();
    }
    for (CommunityId child : children) {
      if (child >= c || has_parent[child]) {
        in.Fail("invalid child reference");
        return in.status();
      }
      has_parent[child] = 1;
    }
    const CommunityId id = builder.Merge(children);
    COD_CHECK_EQ(static_cast<uint64_t>(id), c);
  }
  // Exactly one root must remain or Build() would abort on corrupt input.
  size_t roots = 0;
  for (uint64_t c = 0; c < num_vertices; ++c) roots += !has_parent[c];
  if (roots != (num_vertices > 0 ? 1u : 0u)) {
    in.Fail("hierarchy is not a single tree");
    return in.status();
  }
  return std::move(builder).Build();
}

}  // namespace cod

#include "hierarchy/dendrogram_io.h"

#include "common/binary_io.h"

namespace cod {

namespace {

// Matches the edge-list loader's 1e8 node limit.
constexpr uint64_t kMaxLeaves = 100'000'000;

}  // namespace

void SerializeDendrogram(const Dendrogram& dendrogram,
                         BinaryBufferWriter& out) {
  out.WritePod<uint64_t>(dendrogram.NumLeaves());
  out.WriteArray(dendrogram.parent_);
  out.WriteArray(dendrogram.child_offsets_);
  out.WriteArray(dendrogram.children_);
}

Result<Dendrogram> DeserializeDendrogram(BinarySpanReader& in) {
  uint64_t num_leaves = 0;
  SharedArray<CommunityId> parent;
  SharedArray<size_t> child_offsets;
  SharedArray<CommunityId> children;
  if (!in.ReadPod(&num_leaves) || !in.ReadArray(&parent, 2 * kMaxLeaves) ||
      !in.ReadArray(&child_offsets) || !in.ReadArray(&children)) {
    return in.status();
  }
  if (num_leaves > kMaxLeaves) {
    in.Fail("corrupt dendrogram header");
    return in.status();
  }
  Result<Dendrogram> d =
      Dendrogram::FromArrays(num_leaves, std::move(parent),
                             std::move(child_offsets), std::move(children));
  if (!d.ok()) {
    in.Fail(d.status().message());
    return in.status();
  }
  return d;
}

}  // namespace cod

#include "hierarchy/sketch_builder.h"

#include <algorithm>
#include <chrono>

namespace cod {

namespace {
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
}  // namespace

CoverageSketchBuilder::CoverageSketchBuilder(size_t num_vertices,
                                             size_t num_nodes,
                                             uint64_t schedule_seed,
                                             uint32_t theta,
                                             uint32_t sketch_bits,
                                             uint32_t rank_depth,
                                             std::span<const NodeId> node_keys)
    : schedule_seed_(schedule_seed),
      node_keys_(node_keys),
      theta_(theta),
      sketch_bits_(sketch_bits),
      rank_depth_(rank_depth),
      cap_(size_t{1} << sketch_bits),
      sigs_(num_vertices),
      thr_(num_vertices),
      recorded_(num_vertices, 0),
      support_(num_vertices, 0),
      top_count_(num_nodes, 0) {}

void CoverageSketchBuilder::MergeUp(
    CommunityId c, std::span<const CommunityId> children,
    std::span<const std::pair<uint32_t, NodeId>> bucket) {
  const auto start = std::chrono::steady_clock::now();
  // Own-bucket ranks: sort-dedup-truncate beats repeated insertion for the
  // large buckets near the root.
  cur_.clear();
  for (const auto& [count, node] : bucket) {
    cur_.push_back(SketchNodeRank(schedule_seed_, NodeKey(node_keys_, node)));
  }
  std::sort(cur_.begin(), cur_.end());
  cur_.erase(std::unique(cur_.begin(), cur_.end()), cur_.end());
  if (cur_.size() > cap_) cur_.resize(cap_);
  // Fold in the children (leaf children have empty signatures; their nodes
  // arrive through ancestor buckets instead).
  for (const CommunityId child : children) {
    const auto& sig = sigs_[child];
    if (sig.empty()) continue;
    BottomKMerge(cur_, sig, cap_, &tmp_);
    cur_.swap(tmp_);
  }
  sigs_[c] = cur_;
  merge_seconds_ += SecondsSince(start);
}

void CoverageSketchBuilder::RecordCommunity(
    CommunityId c, std::span<const std::pair<uint32_t, NodeId>> merged) {
  recorded_[c] = 1;
  support_[c] = static_cast<uint32_t>(merged.size());
  auto& thr = thr_[c];
  thr.clear();
  const size_t len = std::min<size_t>(rank_depth_, merged.size());
  thr.reserve(len);
  for (size_t i = 0; i < len; ++i) thr.push_back(merged[i].first);
}

CoverageSketchIndex CoverageSketchBuilder::Finish() {
  const auto start = std::chrono::steady_clock::now();
  CoverageSketchIndex index;
  index.schedule_seed_ = schedule_seed_;
  index.theta_ = theta_;
  index.sketch_bits_ = sketch_bits_;
  index.rank_depth_ = rank_depth_;

  const size_t n = sigs_.size();
  std::vector<uint64_t> thr_offsets;
  std::vector<uint32_t> thr_values;
  std::vector<uint64_t> sig_offsets;
  std::vector<uint64_t> sig_values;
  thr_offsets.reserve(n + 1);
  sig_offsets.reserve(n + 1);
  thr_offsets.push_back(0);
  sig_offsets.push_back(0);
  for (CommunityId c = 0; c < n; ++c) {
    if (recorded_[c]) {
      thr_values.insert(thr_values.end(), thr_[c].begin(), thr_[c].end());
      sig_values.insert(sig_values.end(), sigs_[c].begin(), sigs_[c].end());
    } else {
      // Non-materialized communities keep empty rows AND zero support so
      // the index never claims knowledge it can't back.
      support_[c] = 0;
    }
    thr_offsets.push_back(thr_values.size());
    sig_offsets.push_back(sig_values.size());
  }
  index.thr_offsets_ = SharedArray<uint64_t>(std::move(thr_offsets));
  index.thr_values_ = SharedArray<uint32_t>(std::move(thr_values));
  index.sig_offsets_ = SharedArray<uint64_t>(std::move(sig_offsets));
  index.sig_values_ = SharedArray<uint64_t>(std::move(sig_values));
  index.support_ = SharedArray<uint32_t>(std::move(support_));
  index.top_count_ = SharedArray<uint32_t>(std::move(top_count_));
  index.build_merge_seconds_ = merge_seconds_;
  index.build_finalize_seconds_ = SecondsSince(start);
  return index;
}

}  // namespace cod

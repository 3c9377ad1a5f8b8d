#include "influence/coverage_sketch.h"

#include <algorithm>

namespace cod {

void BottomKInsert(std::vector<uint64_t>* sig, uint64_t value, size_t cap) {
  auto it = std::lower_bound(sig->begin(), sig->end(), value);
  if (it != sig->end() && *it == value) return;
  if (sig->size() == cap) {
    if (it == sig->end()) return;  // larger than everything kept
    sig->insert(it, value);
    sig->pop_back();
    return;
  }
  sig->insert(it, value);
}

void BottomKMerge(std::span<const uint64_t> a, std::span<const uint64_t> b,
                  size_t cap, std::vector<uint64_t>* out) {
  out->clear();
  size_t i = 0;
  size_t j = 0;
  while (out->size() < cap && (i < a.size() || j < b.size())) {
    uint64_t next;
    if (j == b.size() || (i < a.size() && a[i] <= b[j])) {
      next = a[i];
      if (j < b.size() && b[j] == next) ++j;  // distinct union
      ++i;
    } else {
      next = b[j];
      ++j;
    }
    out->push_back(next);
  }
}

double BottomKEstimate(std::span<const uint64_t> sig, size_t cap) {
  if (sig.size() < cap) return static_cast<double>(sig.size());
  // sig.back() is the cap-th smallest distinct rank; +1 maps the closed
  // integer range onto (0, 1] so a tiny rank can't divide by zero.
  const double kth =
      (static_cast<double>(sig.back()) + 1.0) * 0x1.0p-64;
  return static_cast<double>(cap - 1) / kth;
}

uint32_t CoverageSketchIndex::EstimatedRank(CommunityId c,
                                            uint32_t top_count_q) const {
  const auto thr = ThresholdsOf(c);
  // Thresholds are descending: the prefix strictly above top_count_q is the
  // provable number of nodes beating q.
  const auto it = std::upper_bound(thr.begin(), thr.end(), top_count_q,
                                   [](uint32_t tq, uint32_t t) { return tq >= t; });
  return static_cast<uint32_t>(it - thr.begin());
}

size_t CoverageSketchIndex::MemoryBytes() const {
  return thr_offsets_.size() * sizeof(uint64_t) +
         thr_values_.size() * sizeof(uint32_t) +
         sig_offsets_.size() * sizeof(uint64_t) +
         sig_values_.size() * sizeof(uint64_t) +
         support_.size() * sizeof(uint32_t) +
         top_count_.size() * sizeof(uint32_t);
}

void CoverageSketchIndex::SerializeTo(BinaryBufferWriter& out) const {
  out.WritePod(schedule_seed_);
  out.WritePod(theta_);
  out.WritePod(sketch_bits_);
  out.WritePod(rank_depth_);
  out.WriteArray(thr_offsets_);
  out.WriteArray(thr_values_);
  out.WriteArray(sig_offsets_);
  out.WriteArray(sig_values_);
  out.WriteArray(support_);
  out.WriteArray(top_count_);
}

namespace {

// Offsets must be a monotone prefix-sum over `count` rows ending at `total`.
bool OffsetsValid(const SharedArray<uint64_t>& offsets, size_t count,
                  size_t total) {
  if (offsets.size() != count + 1 || offsets.front() != 0 ||
      offsets.back() != total) {
    return false;
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  return true;
}

}  // namespace

Result<CoverageSketchIndex> CoverageSketchIndex::Deserialize(
    BinarySpanReader& in) {
  CoverageSketchIndex index;
  if (!in.ReadPod(&index.schedule_seed_) || !in.ReadPod(&index.theta_) ||
      !in.ReadPod(&index.sketch_bits_) || !in.ReadPod(&index.rank_depth_) ||
      !in.ReadArray(&index.thr_offsets_) ||
      !in.ReadArray(&index.thr_values_) ||
      !in.ReadArray(&index.sig_offsets_) ||
      !in.ReadArray(&index.sig_values_) || !in.ReadArray(&index.support_) ||
      !in.ReadArray(&index.top_count_)) {
    return in.status();
  }
  if (index.theta_ == 0 || index.rank_depth_ == 0 || index.sketch_bits_ > 30) {
    in.Fail("corrupt coverage sketch (bad parameters)");
    return in.status();
  }
  const size_t count = index.support_.size();
  if (!OffsetsValid(index.thr_offsets_, count, index.thr_values_.size()) ||
      !OffsetsValid(index.sig_offsets_, count, index.sig_values_.size())) {
    in.Fail("inconsistent coverage-sketch offsets");
    return in.status();
  }
  for (CommunityId c = 0; c < count; ++c) {
    const auto thr = index.ThresholdsOf(c);
    if (thr.size() > index.rank_depth_ ||
        (!thr.empty() && thr.size() > index.support_[c])) {
      in.Fail("coverage-sketch thresholds exceed caps");
      return in.status();
    }
    for (size_t i = 1; i < thr.size(); ++i) {
      if (thr[i] > thr[i - 1]) {
        in.Fail("coverage-sketch thresholds not descending");
        return in.status();
      }
    }
    const auto sig = index.SignatureOf(c);
    if (sig.size() > index.sketch_cap()) {
      in.Fail("coverage-sketch signature exceeds cap");
      return in.status();
    }
    for (size_t i = 1; i < sig.size(); ++i) {
      if (sig[i] <= sig[i - 1]) {
        in.Fail("coverage-sketch signature not strictly ascending");
        return in.status();
      }
    }
  }
  return index;
}

}  // namespace cod

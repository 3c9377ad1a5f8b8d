// Influence-coverage sketches over the community hierarchy (ROADMAP item 3,
// the chopper sketch_bits idiom): tiny mergeable per-community summaries of
// RR-set coverage, built bottom-up alongside HimorIndex and queried in two
// ways.
//
//  * Safe pruning (one-sided, answer-preserving). For every MATERIALIZED
//    community C the index stores the top `rank_depth` exact cumulative
//    coverage counts (the same counts HIMOR ranks against), plus each
//    node's count at its topmost materialized ancestor (`top_count`). By
//    monotonicity of cumulative counts up the chain, count_C(q) <=
//    top_count(q) for every ancestor C of q, so
//        thresholds(C)[k-1] > top_count(q)
//    proves at least k nodes of C beat q there — rank_C(q) is exactly k
//    (clamped) — BEFORE any sampling. CompressedEvaluator uses this to skip
//    whole levels; the pruned evaluation is bit-identical to the unpruned
//    one because the pool follows the same counter-seeded schedule
//    RrSampleSeed(schedule_seed, source * theta + j) the index was built
//    with (see SketchPruneGuide in core/compressed_eval.h).
//
//  * The sketch rung. The same thresholds answer "first ancestor where q is
//    top-k" with zero sampling (EstimatedRank), and bottom-k signatures of
//    SketchNodeRank values estimate each community's covered-set size
//    (EstimatedCoverage). Both power CodVariant::kCodSketch, the degraded
//    bottom rung of the batch ladder.
//
// Signatures use a COUNTER-SEEDED rank schedule: a node's 64-bit rank is a
// pure function of (schedule_seed, node), so unions are associative and
// commutative, and delta rebuilds that re-sketch only dirty components
// reproduce clean components byte-for-byte.

#ifndef COD_INFLUENCE_COVERAGE_SKETCH_H_
#define COD_INFLUENCE_COVERAGE_SKETCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/random.h"
#include "common/shared_array.h"
#include "common/status.h"
#include "graph/graph.h"
#include "hierarchy/dendrogram.h"

namespace cod {

// Deterministic 64-bit sketch rank of a node. XOR-mixes the node into the
// seed (where RrSampleSeed mixes additively) so the two schedules stay
// decorrelated even when fed the same seed.
inline uint64_t SketchNodeRank(uint64_t seed, NodeId v) {
  uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (uint64_t{v} + 1));
  return SplitMix64(state);
}

// Bottom-k signature algebra. A signature is a strictly ascending vector of
// distinct 64-bit ranks, at most `cap` long: the `cap` smallest distinct
// ranks of the underlying node set. Distinctness (rather than a multiset)
// is what makes Merge associative, commutative, and idempotent, and keeps
// the cardinality estimator unbiased.

// Inserts `value` into signature `sig`, keeping the `cap` smallest distinct
// values. No-op if the value is present or too large for a full signature.
void BottomKInsert(std::vector<uint64_t>* sig, uint64_t value, size_t cap);

// `*out` = the `cap` smallest distinct values of a ∪ b. `out` must not
// alias either input.
void BottomKMerge(std::span<const uint64_t> a, std::span<const uint64_t> b,
                  size_t cap, std::vector<uint64_t>* out);

// Distinct-set cardinality estimate from a bottom-k signature: exact while
// the signature is under-full, else the classic (cap - 1) / U_(cap) with
// the cap-th smallest rank normalized to (0, 1].
double BottomKEstimate(std::span<const uint64_t> sig, size_t cap);

// The immutable sketch index, CSR over communities. Rows exist for every
// community id of the dendrogram it was built from; non-materialized
// communities (HIMOR's purity rule) have empty rows and never prune.
class CoverageSketchIndex {
 public:
  // Schedule identity: pruning is sound only against a pool built with this
  // exact (seed, theta) schedule, so the evaluator checks both.
  uint64_t schedule_seed() const { return schedule_seed_; }
  uint32_t theta() const { return theta_; }
  uint32_t sketch_bits() const { return sketch_bits_; }
  // Signature capacity: 1 << sketch_bits.
  uint32_t sketch_cap() const { return uint32_t{1} << sketch_bits_; }
  // Thresholds kept per community (== himor_max_rank at build time).
  uint32_t rank_depth() const { return rank_depth_; }

  size_t NumCommunities() const { return support_.size(); }
  size_t NumNodes() const { return top_count_.size(); }

  // q's exact cumulative coverage count at its topmost materialized
  // ancestor; an upper bound on count_C(q) for every ancestor C.
  uint32_t TopCountOf(NodeId v) const { return top_count_[v]; }

  // Descending exact coverage counts of C's top-min(rank_depth, support)
  // covered nodes. Empty for non-materialized communities.
  std::span<const uint32_t> ThresholdsOf(CommunityId c) const {
    return thr_values_.span().subspan(thr_offsets_[c],
                                      thr_offsets_[c + 1] - thr_offsets_[c]);
  }
  // Bottom-k signature of C's covered set (empty when not materialized).
  std::span<const uint64_t> SignatureOf(CommunityId c) const {
    return sig_values_.span().subspan(sig_offsets_[c],
                                      sig_offsets_[c + 1] - sig_offsets_[c]);
  }
  // Exact size of C's covered set (nodes with nonzero coverage count).
  uint32_t SupportOf(CommunityId c) const { return support_[c]; }

  // One-sided pruning bound: true only when >= k nodes of C have exact
  // counts strictly above q's best possible count there, i.e. the exact
  // evaluator is GUARANTEED to report rank k (clamped) at C. Unknown
  // communities (including kInvalidCommunity) never prove anything.
  bool ProvesNotTopK(CommunityId c, uint32_t k, uint32_t top_count_q) const {
    if (c >= NumCommunities()) return false;
    const auto thr = ThresholdsOf(c);
    return k <= thr.size() && thr[k - 1] > top_count_q;
  }

  // Lower bound on q's exact clamped rank in C (number of stored thresholds
  // strictly above top_count_q). The sketch rung treats it as the rank.
  uint32_t EstimatedRank(CommunityId c, uint32_t top_count_q) const;

  // Bottom-k estimate of |covered set of C|; exact (== SupportOf) whenever
  // the signature is under-full.
  double EstimatedCoverage(CommunityId c) const {
    return BottomKEstimate(SignatureOf(c), sketch_cap());
  }

  size_t MemoryBytes() const;

  // Snapshot codec (section payload; the container adds magic/CRC): the
  // schedule parameters, then the six arrays as aligned arrays
  // (common/binary_io.h), which Deserialize adopts in place. Deserialize
  // validates structure: monotone offsets, descending thresholds, strictly
  // ascending signatures, caps respected.
  void SerializeTo(BinaryBufferWriter& out) const;
  static Result<CoverageSketchIndex> Deserialize(BinarySpanReader& in);

  // Transient build timings (not serialized): bottom-up signature merging
  // vs final CSR packing, for the cod_sketch_build_stage_seconds metric.
  double build_merge_seconds() const { return build_merge_seconds_; }
  double build_finalize_seconds() const { return build_finalize_seconds_; }

 private:
  friend class CoverageSketchBuilder;

  uint64_t schedule_seed_ = 0;
  uint32_t theta_ = 0;
  uint32_t sketch_bits_ = 0;
  uint32_t rank_depth_ = 0;

  SharedArray<uint64_t> thr_offsets_;  // NumCommunities() + 1
  SharedArray<uint32_t> thr_values_;
  SharedArray<uint64_t> sig_offsets_;  // NumCommunities() + 1
  SharedArray<uint64_t> sig_values_;
  SharedArray<uint32_t> support_;    // per community
  SharedArray<uint32_t> top_count_;  // per node

  double build_merge_seconds_ = 0.0;
  double build_finalize_seconds_ = 0.0;
};

}  // namespace cod

#endif  // COD_INFLUENCE_COVERAGE_SKETCH_H_

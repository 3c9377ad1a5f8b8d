#include "serving/service_options.h"

#include "common/random.h"

namespace cod {

Status ServiceOptions::Validate() const {
  if (num_shards == 0) {
    return Status::InvalidArgument("ServiceOptions: num_shards must be >= 1");
  }
  if (async_rebuild && scheduler == nullptr) {
    return Status::InvalidArgument(
        "ServiceOptions: async_rebuild requires a scheduler");
  }
  if (snapshots_keep == 0) {
    return Status::InvalidArgument(
        "ServiceOptions: snapshots_keep must be >= 1");
  }
  if (rebuild_backoff_initial_ms > rebuild_backoff_max_ms) {
    return Status::InvalidArgument(
        "ServiceOptions: rebuild_backoff_initial_ms exceeds "
        "rebuild_backoff_max_ms");
  }
  if (engine.k == 0) {
    return Status::InvalidArgument("ServiceOptions: engine.k must be >= 1");
  }
  if (engine.theta == 0) {
    return Status::InvalidArgument(
        "ServiceOptions: engine.theta must be >= 1");
  }
  if (engine.himor_max_rank == 0) {
    return Status::InvalidArgument(
        "ServiceOptions: engine.himor_max_rank must be >= 1");
  }
  if (engine.sketch_bits > 16) {
    return Status::InvalidArgument(
        "ServiceOptions: engine.sketch_bits must be <= 16 (signature "
        "capacity 2^bits u64 per community)");
  }
  if (rebuild_threshold < 0.0) {
    return Status::InvalidArgument(
        "ServiceOptions: rebuild_threshold must be >= 0");
  }
  if (rebuild_budget_seconds < 0.0) {
    return Status::InvalidArgument(
        "ServiceOptions: rebuild_budget_seconds must be >= 0");
  }
  if (delta_max_dirty_fraction < 0.0 || delta_max_dirty_fraction > 1.0) {
    return Status::InvalidArgument(
        "ServiceOptions: delta_max_dirty_fraction must be in [0, 1]");
  }
  return Status::Ok();
}

namespace {

// Feeds one value into the digest: xor-fold, then advance through the
// SplitMix64 scrambler so field ORDER matters (swapping k and theta
// changes the digest) and a zero field still perturbs the state.
void Mix(uint64_t& h, uint64_t v) {
  h ^= v;
  uint64_t state = h;
  h = SplitMix64(state);
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t ServiceOptions::Fingerprint() const {
  uint64_t h = 0xc0d5e41f19e124ULL;  // arbitrary non-zero domain tag
  Mix(h, seed);
  Mix(h, engine.k);
  Mix(h, engine.theta);
  Mix(h, engine.himor_max_rank);
  Mix(h, static_cast<uint64_t>(engine.diffusion));
  Mix(h, static_cast<uint64_t>(engine.transform.transform));
  Mix(h, DoubleBits(engine.transform.beta));
  Mix(h, engine.component_scoped ? 1 : 0);
  // sketch_bits shapes the PERSISTED state (the kSketch snapshot section and
  // the rung's answer surface), so it gates warm-restore compatibility.
  // sketch_prune and sketch_rung deliberately do NOT: pruning is proven
  // answer-preserving, and the rung only changes which degraded tier answers
  // under pressure — both are runtime latency knobs a restart may flip.
  Mix(h, engine.sketch_bits);
  // Delta mode changes the RR sampling schedule (counter-seeded per sample
  // vs per-ticket streams), so its answers differ from non-delta answers
  // for the same seed — it must gate snapshot compatibility. The dirty
  // threshold does NOT: both sides of it answer identically.
  Mix(h, delta_rebuild ? 1 : 0);
  Mix(h, num_shards);
  Mix(h, static_cast<uint64_t>(partitioner));
  return h;
}

}  // namespace cod

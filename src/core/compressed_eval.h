// Compressed COD evaluation (paper Section III, Algorithm 1).
//
// Evaluates whether the query node is top-k influential in every community of
// a nested chain using ONE shared pool of RR graphs:
//
//  1. Shared sample generation: theta RR graphs are sampled from each
//     universe node into a contiguous slab pool (see influence/rr_pool.h).
//     The j-th sample of source s always draws from
//     Rng(RrSampleSeed(pool_seed, s * theta + j)) where pool_seed is ONE
//     draw from the caller's RNG, so the pool is identical whether it was
//     built serially or sharded across a thread pool.
//  2. Hierarchical-first search (HFS) + incremental top-k evaluation: each
//     stored RR graph is traversed level-by-level so that every reached node
//     is recorded exactly once, at the smallest chain community containing a
//     live path from the source (Theorem 2 makes the induced counts
//     unbiased); per-level occurrences are then scanned from the deepest
//     community outward, carrying cumulative counts and the current top-k
//     candidates (Theorem 3 guarantees no other node can enter the top-k).
//
// Cost is O(Theta * omega + L) — the chain length L is decoupled from the
// sampling cost (Theorem 4). All scratch (slabs, per-level lists, stamp
// arrays, candidate storage) is reused across queries, so a warmed evaluator
// performs zero heap allocations per query beyond the returned outcome.

#ifndef COD_CORE_COMPRESSED_EVAL_H_
#define COD_CORE_COMPRESSED_EVAL_H_

#include <vector>

#include "common/deadline.h"
#include "core/cod_chain.h"
#include "influence/coverage_sketch.h"
#include "influence/rr_pool.h"

namespace cod {

class TaskScheduler;

// Optional sketch guidance for Evaluate (core/engine_core.cc wires it when
// the engine carries a CoverageSketchIndex and the chain knows its level
// communities). Activating the guide PINS the pool seed to the sketch's
// schedule seed — the evaluation samples the exact pool the index build
// proved its bounds against — which is what makes `prune` answer-preserving:
// a pruned level is one where >= k universe nodes provably beat q's best
// possible cumulative count, so the unpruned run would have reported rank k
// (clamped) there anyway, and the retained levels draw byte-identical
// samples because the source-keyed schedule is position-independent.
//
// The guide only takes effect when the sketch's (schedule_seed, theta)
// matches the evaluator's theta and the chain carries level communities for
// every level; otherwise Evaluate silently falls back to the normal
// rng-seeded pool. With `prune` false the schedule is still pinned but no
// level is skipped — the prune-on/prune-off property tests compare exactly
// these two modes.
struct SketchPruneGuide {
  const CoverageSketchIndex* sketch = nullptr;
  bool prune = true;
};

// Per-level outcome of a chain evaluation, shared with IndependentEvaluator.
struct ChainEvalOutcome {
  // kOk for a complete evaluation; kTimeout / kCancelled when the budget ran
  // out first. CompressedEvaluator aborts with NO partial answer (its shared
  // counts are incomplete at every level); IndependentEvaluator keeps the
  // levels finished so far (each level is evaluated independently).
  StatusCode code = StatusCode::kOk;
  // Largest level h where q's rank < k, or -1 if none.
  int best_level = -1;
  // q's estimated rank (number of strictly more influential nodes) at the
  // best level; undefined when best_level == -1.
  uint32_t rank_at_best = 0;
  // q's estimated rank at every level, clamped to k (any value >= k only
  // means "not in the top-k"); for tests and diagnostics.
  std::vector<uint32_t> rank_per_level;
};

// Owns per-query scratch, so it is not thread-safe; concurrent serving uses
// one evaluator per thread (see core/query_workspace.h).
class CompressedEvaluator {
 public:
  // `theta`: RR graphs sampled per universe node. `node_keys` (borrowed;
  // empty = identity) keys each source's samples by its global id on a
  // compact shard (NodeKey in graph/graph.h).
  CompressedEvaluator(const DiffusionModel& model, uint32_t theta,
                      std::span<const NodeId> node_keys = {});

  // Re-targets the evaluator at a (possibly different) model, theta and
  // node keys, reusing scratch allocations (slab capacity included). Lets a
  // per-thread workspace follow serving epoch swaps without being
  // reconstructed.
  void Rebind(const DiffusionModel& model, uint32_t theta,
              std::span<const NodeId> node_keys = {});

  ChainEvalOutcome Evaluate(const CodChain& chain, NodeId q, uint32_t k,
                            Rng& rng) {
    return Evaluate(chain, q, k, rng, Budget{});
  }

  ChainEvalOutcome Evaluate(const CodChain& chain, NodeId q, uint32_t k,
                            Rng& rng, const Budget& budget) {
    return Evaluate(chain, q, k, rng, budget, nullptr);
  }

  // Budget-aware form with optional intra-query parallel sampling: when
  // `scheduler` is non-null and multi-threaded, RR-pool construction is
  // sharded across it (calling from one of its workers is fine — the chunk
  // group waits with inline help). Results are bit-identical for any
  // scheduler (the per-sample seed schedule decouples the RNG stream from
  // thread placement), and `rng` advances by exactly ONE draw per call
  // either way.
  //
  // The budget is polled between RR samples — the only points where the
  // reusable scratch is clean — so an exhausted budget aborts within one
  // sample's work and the evaluator stays usable for the next query. An
  // already-exhausted budget aborts before the first sample, which makes
  // sub-nanosecond test budgets deterministic (see common/deadline.h).
  ChainEvalOutcome Evaluate(const CodChain& chain, NodeId q, uint32_t k,
                            Rng& rng, const Budget& budget,
                            TaskScheduler* scheduler,
                            const SketchPruneGuide* guide = nullptr);

  uint32_t theta() const { return theta_; }

  // Total RR-graph nodes explored by the last Evaluate call (|R| in the
  // paper's analysis); exposed for the Fig. 8 sample-cost comparison.
  size_t last_explored_nodes() const { return last_explored_nodes_; }

  // ---- Per-call instrumentation of the last Evaluate (QueryStats feed). --
  // RR graphs actually drawn (theta * |universe| when not aborted early).
  uint64_t last_samples() const { return last_samples_; }
  // RR-pool construction wall seconds (sampling only; HFS moved to eval).
  double last_sample_seconds() const { return last_sample_seconds_; }
  // Parallel chunk-merge wall seconds (0 on the serial path).
  double last_merge_seconds() const { return last_merge_seconds_; }
  // HFS bucketing + incremental top-k wall seconds.
  double last_eval_seconds() const { return last_eval_seconds_; }
  // Parallel chunks used by the last pool build (0 = serial path).
  size_t last_parallel_chunks() const { return last_parallel_chunks_; }

  // Sketch pruning on the last Evaluate: chain levels the guide proved
  // skippable / total levels a prune pass considered (0 when no active
  // guide — see SketchPruneGuide for the activation conditions).
  size_t last_levels_pruned() const { return last_levels_pruned_; }
  size_t last_levels_considered() const { return last_levels_considered_; }

  // Slab growth events across the pool and all chunk scratch — stable across
  // repeated same-shape queries once warmed (the zero-allocation contract).
  uint64_t slab_growth_events() const {
    return slab_.growth_events() + pool_builder_.chunk_growth_events();
  }

 private:
  const DiffusionModel* model_;
  uint32_t theta_;
  ParallelRrPool pool_builder_;
  RrSlabPool slab_;
  size_t last_explored_nodes_ = 0;
  uint64_t last_samples_ = 0;
  double last_sample_seconds_ = 0.0;
  double last_merge_seconds_ = 0.0;
  double last_eval_seconds_ = 0.0;
  size_t last_parallel_chunks_ = 0;
  size_t last_levels_pruned_ = 0;
  size_t last_levels_considered_ = 0;

  // Reusable per-query scratch (sized lazily to the graph / chain).
  std::vector<std::vector<uint32_t>> level_queue_;  // local node ids per level
  std::vector<char> queued_;                        // per local node id
  // Per-level node occurrences across all samples (each reached node once
  // per sample, at its minimal level). Duplicates across samples allowed;
  // stage 2 dedups with the stamp arrays below.
  std::vector<std::vector<NodeId>> level_nodes_;
  std::vector<uint32_t> tau_;        // cumulative counts, valid per query
  std::vector<uint64_t> tau_mark_;   // query stamp for tau_
  std::vector<uint64_t> seen_mark_;  // per-level first-touch stamp
  uint64_t query_epoch_ = 0;
  uint64_t level_epoch_ = 0;
  std::vector<NodeId> touched_;      // nodes first seen at the current level
  std::vector<uint32_t> heap_;       // pending_levels min-heap storage
  std::vector<std::pair<uint32_t, NodeId>> topk_items_;  // TopK storage
  std::vector<NodeId> pruned_sources_;  // universe minus pruned-level sources
};

}  // namespace cod

#endif  // COD_CORE_COMPRESSED_EVAL_H_

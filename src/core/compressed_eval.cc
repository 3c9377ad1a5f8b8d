#include "core/compressed_eval.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <span>

namespace cod {
namespace {

// Small sorted top-k candidate set (descending count, ties toward smaller
// node id). k is tiny, so linear maintenance beats a heap and, unlike one,
// supports in-place value increases. Storage is borrowed from the evaluator
// so repeated queries reuse its capacity.
class TopKCandidates {
 public:
  TopKCandidates(uint32_t k, std::vector<std::pair<uint32_t, NodeId>>* items)
      : k_(k), items_(*items) {
    items_.clear();
  }

  void Update(NodeId v, uint32_t count) {
    for (size_t i = 0; i < items_.size(); ++i) {
      if (items_[i].second == v) {
        items_[i].first = count;
        Resort(i);
        return;
      }
    }
    if (items_.size() < k_) {
      items_.emplace_back(count, v);
      Resort(items_.size() - 1);
      return;
    }
    const auto& worst = items_.back();
    if (count > worst.first ||
        (count == worst.first && v < worst.second)) {
      items_.back() = {count, v};
      Resort(items_.size() - 1);
    }
  }

  // Number of candidates with a strictly larger count than `count`. When the
  // candidate set holds the k largest cumulative counts, this equals the
  // query's true rank whenever that rank is < k (see DESIGN.md note 4).
  uint32_t RankAgainst(uint32_t count) const {
    uint32_t rank = 0;
    for (const auto& [c, v] : items_) {
      if (c > count) ++rank;
    }
    return rank;
  }

 private:
  void Resort(size_t i) {
    // Bubble the updated entry toward the front to restore descending order.
    while (i > 0 && (items_[i].first > items_[i - 1].first ||
                     (items_[i].first == items_[i - 1].first &&
                      items_[i].second < items_[i - 1].second))) {
      std::swap(items_[i], items_[i - 1]);
      --i;
    }
  }

  uint32_t k_;
  std::vector<std::pair<uint32_t, NodeId>>& items_;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

CompressedEvaluator::CompressedEvaluator(const DiffusionModel& model,
                                         uint32_t theta,
                                         std::span<const NodeId> node_keys)
    : model_(&model), theta_(theta), pool_builder_(model, node_keys) {
  COD_CHECK(theta > 0);
}

void CompressedEvaluator::Rebind(const DiffusionModel& model, uint32_t theta,
                                 std::span<const NodeId> node_keys) {
  COD_CHECK(theta > 0);
  model_ = &model;
  theta_ = theta;
  pool_builder_.Rebind(model, node_keys);
  last_explored_nodes_ = 0;
  last_samples_ = 0;
  last_sample_seconds_ = 0.0;
  last_merge_seconds_ = 0.0;
  last_eval_seconds_ = 0.0;
  last_parallel_chunks_ = 0;
  last_levels_pruned_ = 0;
  last_levels_considered_ = 0;
  // The stamp arrays are query-scoped; capacity survives (they only regrow
  // when the new graph is larger), so epoch swaps between same-sized graphs
  // stay allocation-free.
}

ChainEvalOutcome CompressedEvaluator::Evaluate(const CodChain& chain, NodeId q,
                                               uint32_t k, Rng& rng,
                                               const Budget& budget,
                                               TaskScheduler* scheduler,
                                               const SketchPruneGuide* guide) {
  const size_t num_levels = chain.NumLevels();
  COD_CHECK(num_levels >= 1);
  COD_CHECK(chain.in_universe[q]);
  COD_CHECK_EQ(chain.level[q], 0u);
  COD_CHECK(k >= 1);

  // One draw is consumed from the caller's stream whether or not it ends up
  // seeding the pool — callers rely on Evaluate advancing rng by exactly one
  // draw per call. Every RR sample then derives its own Rng from
  // RrSampleSeed(pool_seed, source * theta + j), making the pool
  // independent of sampling order, thread placement, and source filtering.
  const uint64_t drawn_seed = rng.Next();

  // An active guide pins the pool to the sketch's build schedule (same seed,
  // same theta, source-keyed), so the sketch's exact per-community bounds
  // apply verbatim to the pool this evaluation will draw. Pinning is
  // deliberately independent of guide->prune: prune on and off evaluate the
  // very same pool, which is what makes them bit-comparable.
  const CoverageSketchIndex* sketch =
      guide != nullptr ? guide->sketch : nullptr;
  const bool pinned = sketch != nullptr && sketch->theta() == theta_ &&
                      chain.level_community.size() == num_levels &&
                      q < sketch->NumNodes();
  const uint64_t pool_seed = pinned ? sketch->schedule_seed() : drawn_seed;

  // Top-down prune pass: the top-contiguous run of levels whose sketch
  // thresholds prove rank_C(q) == k (clamped) is skipped entirely — their
  // sources never sample and their occurrence lists are never scanned. Only
  // a SUFFIX is pruned: a sample's contributions land at levels >= its
  // source's level, so dropping sources of pruned levels leaves every
  // retained level's data byte-identical.
  last_levels_pruned_ = 0;
  last_levels_considered_ = 0;
  size_t keep = num_levels;
  if (pinned && guide->prune) {
    const uint32_t tq = sketch->TopCountOf(q);
    while (keep > 0 &&
           sketch->ProvesNotTopK(chain.level_community[keep - 1], k, tq)) {
      --keep;
    }
    last_levels_considered_ = num_levels;
    last_levels_pruned_ = num_levels - keep;
  }

  if (keep == 0) {
    // Every level proved: q is outside the top-k everywhere, with zero
    // sampling. Mirror the pool builder's entry poll so an exhausted budget
    // still reports as such.
    last_samples_ = 0;
    last_explored_nodes_ = 0;
    last_sample_seconds_ = 0.0;
    last_merge_seconds_ = 0.0;
    last_eval_seconds_ = 0.0;
    last_parallel_chunks_ = 0;
    ChainEvalOutcome outcome;
    outcome.code = budget.ExhaustedCode();
    if (outcome.code == StatusCode::kOk) {
      outcome.rank_per_level.assign(num_levels, k);
    }
    return outcome;
  }

  std::span<const NodeId> sources(chain.universe);
  if (keep < num_levels) {
    pruned_sources_.clear();
    for (const NodeId v : chain.universe) {
      if (chain.level[v] < keep) pruned_sources_.push_back(v);
    }
    sources = pruned_sources_;
  }

  // --- Stage 1: shared sample generation into the slab pool. ---
  ParallelRrPool::BuildStats build_stats;
  const StatusCode code =
      pool_builder_.Build(sources, theta_, chain.in_universe, pool_seed,
                          budget, scheduler, &slab_, &build_stats);
  last_samples_ = build_stats.samples;
  last_explored_nodes_ = build_stats.explored_nodes;
  last_sample_seconds_ = build_stats.sample_seconds;
  last_merge_seconds_ = build_stats.merge_seconds;
  last_eval_seconds_ = 0.0;
  last_parallel_chunks_ = build_stats.chunks;
  if (code != StatusCode::kOk) {
    ChainEvalOutcome aborted;
    aborted.code = code;
    return aborted;
  }

  // --- Stage 2: HFS bucketing + incremental top-k evaluation. ---
  const auto stage2_start = std::chrono::steady_clock::now();
  if (level_queue_.size() < num_levels) level_queue_.resize(num_levels);
  if (level_nodes_.size() < num_levels) level_nodes_.resize(num_levels);
  for (size_t h = 0; h < num_levels; ++h) level_nodes_[h].clear();

  // HFS per stored sample: every reached node lands in level_nodes_ exactly
  // once per sample, at the minimal level where a live path from the source
  // exists. heap_ is a min-heap of pending non-empty levels so sparse chains
  // don't pay O(L) per RR graph.
  const size_t num_samples = slab_.NumSamples();
  for (size_t s = 0; s < num_samples; ++s) {
    // HFS is cheap relative to sampling but still O(|R|); poll the budget at
    // a coarse interval so a mid-evaluation expiry surfaces promptly. Sample
    // boundaries are clean points (queues drained, heap empty).
    if ((s & 63u) == 0u) {
      const StatusCode hfs_code = budget.ExhaustedCode();
      if (hfs_code != StatusCode::kOk) {
        last_eval_seconds_ = SecondsSince(stage2_start);
        ChainEvalOutcome aborted;
        aborted.code = hfs_code;
        return aborted;
      }
    }
    const RrSlabPool::View rr = slab_.Sample(s);
    const size_t n_local = rr.NumNodes();
    if (queued_.size() < n_local) queued_.resize(n_local);
    std::fill(queued_.begin(), queued_.begin() + n_local, 0);

    const uint32_t source_level = chain.level[rr.source];
    queued_[0] = 1;
    level_queue_[source_level].push_back(0);
    heap_.push_back(source_level);

    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const uint32_t h = heap_.back();
      heap_.pop_back();
      auto& queue = level_queue_[h];
      auto& bucket = level_nodes_[h];
      // Index loop: same-level discoveries extend `queue` while iterating.
      for (size_t idx = 0; idx < queue.size(); ++idx) {
        const uint32_t i = queue[idx];
        bucket.push_back(rr.nodes[i]);
        for (uint32_t u : rr.NeighborsOf(i)) {
          if (queued_[u]) continue;
          queued_[u] = 1;
          const uint32_t h2 = std::max(h, chain.level[rr.nodes[u]]);
          if (h2 != h && level_queue_[h2].empty()) {
            heap_.push_back(h2);
            std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
          }
          level_queue_[h2].push_back(u);
        }
      }
      queue.clear();
    }
  }

  // Incremental top-k from the deepest community outward. tau_ carries
  // cumulative counts, stamped per query; seen_mark_ dedups a level's
  // occurrence list so each node is presented to the candidate set once per
  // level, with its final count (presentation order — first occurrence
  // order — does not affect the resulting top-k set; see DESIGN.md).
  const size_t n = model_->graph().NumNodes();
  if (tau_.size() < n) {
    tau_.resize(n);
    tau_mark_.resize(n, 0);
    seen_mark_.resize(n, 0);
  }
  ++query_epoch_;

  // Levels >= keep were proved by the sketch: the unpruned run would report
  // rank exactly k (clamped) there, so write that directly. Their occurrence
  // lists may hold spill from retained-level sources (h2 rounds up) but are
  // incomplete without the dropped sources, so they must not be scanned.
  ChainEvalOutcome outcome;
  outcome.rank_per_level.resize(num_levels);
  for (size_t h = keep; h < num_levels; ++h) outcome.rank_per_level[h] = k;
  TopKCandidates candidates(k, &topk_items_);
  uint32_t tau_q = 0;
  for (uint32_t h = 0; h < keep; ++h) {
    ++level_epoch_;
    touched_.clear();
    for (const NodeId v : level_nodes_[h]) {
      if (tau_mark_[v] != query_epoch_) {
        tau_mark_[v] = query_epoch_;
        tau_[v] = 0;
      }
      ++tau_[v];
      if (seen_mark_[v] != level_epoch_) {
        seen_mark_[v] = level_epoch_;
        touched_.push_back(v);
      }
    }
    for (const NodeId v : touched_) {
      candidates.Update(v, tau_[v]);
      if (v == q) tau_q = tau_[v];
    }
    const uint32_t rank = candidates.RankAgainst(tau_q);
    outcome.rank_per_level[h] = rank;
    if (rank < k) {
      outcome.best_level = static_cast<int>(h);
      outcome.rank_at_best = rank;
    }
  }
  last_eval_seconds_ = SecondsSince(stage2_start);
  return outcome;
}

}  // namespace cod

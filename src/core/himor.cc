#include "core/himor.h"

#include <algorithm>
#include <atomic>
#include <queue>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/task_scheduler.h"
#include "hierarchy/sketch_builder.h"

namespace cod {
namespace {

constexpr uint32_t kNoPos = static_cast<uint32_t>(-1);

// (count, node) runs sorted by descending count, ascending node id on ties.
using Run = std::vector<std::pair<uint32_t, NodeId>>;

bool RunLess(const std::pair<uint32_t, NodeId>& a,
             const std::pair<uint32_t, NodeId>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second < b.second;
}

// Merges `a` and `b` into `out` (appending). When `bucket_stamp` is non-null,
// entries whose node is stamped with `token` (i.e. present in the current
// community's bucket) are skipped — they re-enter with fresh totals.
void MergeRuns(const Run& a, const Run& b,
               const std::vector<uint32_t>* bucket_stamp, uint32_t token,
               Run* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_a =
        j == b.size() || (i < a.size() && RunLess(a[i], b[j]));
    const auto& item = take_a ? a[i++] : b[j++];
    if (bucket_stamp != nullptr && (*bucket_stamp)[item.second] == token) {
      continue;
    }
    out->push_back(item);
  }
}

// Stage-1 worker: samples RR graphs and performs hierarchical-first search
// on the tree, emitting one (community, node) pair per first visit; pairs
// are aggregated into buckets afterwards (addition commutes, so any merge
// order works).
//
// The walk is split from the sampling so the delta builder can re-run it
// over RR bytes carried from the previous epoch (RrSlabPool::View) as well
// as over freshly drawn RrGraphs — both expose nodes[] / NeighborsOf().
class TreeHfsSampler {
 public:
  // `max_depth` is MaxDepth(dendrogram), computed once per build rather
  // than once per stage-1 range.
  TreeHfsSampler(const DiffusionModel& model, const Dendrogram& dendrogram,
                 const LcaIndex& lca, uint32_t max_depth)
      : dendrogram_(&dendrogram), lca_(&lca), sampler_(model) {
    depth_queue_.resize(max_depth + 1);
    source_chain_.resize(max_depth + 1);
  }

  static uint32_t MaxDepth(const Dendrogram& dendrogram) {
    uint32_t max_depth = 0;
    for (CommunityId c = 0; c < dendrogram.NumVertices(); ++c) {
      max_depth = std::max(max_depth, dendrogram.Depth(c));
    }
    return max_depth;
  }

  // Loads `source`'s ancestor chain; must precede Walk / SampleAndWalk.
  // Ancestor depths are contiguous (a parent is exactly one level
  // shallower), so the chain occupies slots [0, source_level_] and stale
  // entries above it are never read — no per-source clear needed.
  void BeginSource(NodeId source) {
    const Dendrogram& dendrogram = *dendrogram_;
    source_ = source;
    CommunityId c = dendrogram.Parent(dendrogram.LeafOf(source));
    source_level_ = dendrogram.Depth(c);
    while (c != kInvalidCommunity) {
      source_chain_[dendrogram.Depth(c)] = c;
      c = dendrogram.Parent(c);
    }
  }

  // Number of non-leaf ancestors of the current source (= chain length).
  uint32_t source_level() const { return source_level_; }

  // The current source's ancestor at leaf-up position `pos` (0 = the leaf's
  // parent, source_level() - 1 = the root).
  CommunityId ChainAtLeafUp(uint32_t pos) const {
    return source_chain_[source_level_ - pos];
  }

  // Leaf-up slot of lca(w, source) on the current source's chain — the
  // position the walk would assign `w` before any clamping.
  uint32_t SlotOf(NodeId w) const {
    if (w == source_) return 0;
    return source_level_ - dendrogram_->Depth(lca_->LcaOfNodes(w, source_));
  }

  // Hierarchical-first search over one RR graph of the current source:
  // depth queues drained deepest-first, each node emitted once at the
  // shallowest depth its live path has been clamped to. When `cache` is
  // non-null, each emission also records (pos, tag, node) in LEAF-UP chain
  // positions — see HimorSampleCache. `pairs` may be null when only the
  // cache records are wanted (the delta builder maintains its bucket rows
  // incrementally instead of re-aggregating raw pairs).
  template <typename RrT>
  void Walk(const RrT& rr, std::vector<std::pair<CommunityId, NodeId>>* pairs,
            HimorSampleCache* cache) {
    WalkClamped(
        rr,
        [this](NodeId v) {
          return dendrogram_->Depth(lca_->LcaOfNodes(v, source_));
        },
        pairs, cache);
  }

  // The clamped hierarchical-first search with node depths supplied by
  // `lvl_of` instead of LCA queries. The delta rebuild's replay path knows
  // every node's new chain slot already, so it walks without touching the
  // LCA tables; results are bit-identical to Walk when `lvl_of` returns
  // Depth(lca(v, source)).
  template <typename RrT, typename LvlFn>
  void WalkClamped(const RrT& rr, LvlFn lvl_of,
                   std::vector<std::pair<CommunityId, NodeId>>* pairs,
                   HimorSampleCache* cache) {
    const size_t n_local = rr.NumNodes();
    if (queued_.size() < n_local) {
      queued_.resize(n_local);
      pos_depth_.resize(n_local);
    }
    std::fill(queued_.begin(), queued_.begin() + n_local, 0);

    queued_[0] = 1;
    pos_depth_[0] = source_level_;
    depth_queue_[source_level_].push_back(0);
    pending_.push(source_level_);
    while (!pending_.empty()) {
      const uint32_t d = pending_.top();
      pending_.pop();
      auto& queue = depth_queue_[d];
      const CommunityId community = source_chain_[d];
      for (size_t idx = 0; idx < queue.size(); ++idx) {
        const uint32_t i = queue[idx];
        if (pairs != nullptr) pairs->emplace_back(community, rr.nodes[i]);
        if (cache != nullptr) {
          cache->pair_pos.push_back(source_level_ - pos_depth_[i]);
          cache->pair_tag.push_back(source_level_ - d);
          cache->pair_node.push_back(rr.nodes[i]);
        }
        for (uint32_t u : rr.NeighborsOf(i)) {
          if (queued_[u]) continue;
          queued_[u] = 1;
          // Smallest source-ancestor containing u has depth
          // Depth(lca(u, source)); the live path so far is within depth
          // d, so u's tag is the shallower of the two.
          const uint32_t lvl_u = lvl_of(rr.nodes[u]);
          pos_depth_[u] = lvl_u;
          const uint32_t d2 = std::min(d, lvl_u);
          if (d2 != d && depth_queue_[d2].empty()) pending_.push(d2);
          depth_queue_[d2].push_back(u);
        }
      }
      queue.clear();
    }
  }

  // Draws one RR graph for the current source from `rng` and walks it. The
  // drawn bytes stay available via last_rr() until the next draw.
  void SampleAndWalk(Rng& rng,
                     std::vector<std::pair<CommunityId, NodeId>>* pairs,
                     HimorSampleCache* cache) {
    sampler_.Sample(source_, rng, &rr_);
    Walk(rr_, pairs, cache);
  }

  const RrGraph& last_rr() const { return rr_; }

 private:
  const Dendrogram* dendrogram_;
  const LcaIndex* lca_;
  RrSampler sampler_;
  RrGraph rr_;
  std::vector<std::vector<uint32_t>> depth_queue_;
  std::priority_queue<uint32_t> pending_;  // max-heap: deepest first
  std::vector<char> queued_;
  std::vector<uint32_t> pos_depth_;  // per local node, Depth(lca(., source))
  std::vector<CommunityId> source_chain_;
  NodeId source_ = kInvalidNode;
  uint32_t source_level_ = 0;
};

// Error for a build aborted with the (non-ok) budget code recorded at the
// check site — never re-polls the budget, which may have changed since.
Status BudgetStatus(StatusCode code) {
  return code == StatusCode::kCancelled
             ? Status::Cancelled("HIMOR build cancelled")
             : Status::Timeout("HIMOR build deadline exceeded");
}

// Member-set fingerprint of a leaf. Internal vertices sum (mod 2^64) their
// children's fingerprints, so equal hashes mean equal leaf sets regardless
// of tree shape (up to collisions; DESIGN.md Sec. 15).
uint64_t LeafFingerprint(NodeId v) {
  uint64_t mix = 0x9e3779b97f4a7c15ULL * (uint64_t{v} + 1);
  return SplitMix64(mix);
}

// Shared sketch co-build gate. An armed "influence/sketch_build" failpoint
// (or sketch_bits == 0, or no output slot) drops the sketch while the index
// itself still builds — sketch loss degrades pruning, never correctness.
std::optional<CoverageSketchBuilder> MaybeSketchBuilder(
    const Dendrogram& dendrogram, uint64_t schedule_seed, uint32_t theta,
    uint32_t max_rank, uint32_t sketch_bits,
    std::optional<CoverageSketchIndex>* sketch,
    std::span<const NodeId> node_keys) {
  if (sketch != nullptr) sketch->reset();
  if (sketch == nullptr || sketch_bits == 0 ||
      COD_FAILPOINT("influence/sketch_build")) {
    return std::nullopt;
  }
  return std::make_optional<CoverageSketchBuilder>(
      dendrogram.NumVertices(), dendrogram.NumLeaves(), schedule_seed, theta,
      sketch_bits, max_rank, node_keys);
}

// Cold stage 1 runs as contiguous source ranges. Their length depends on
// (n, theta) only, never on the worker count: at most kStageOneRanges
// ranges, none shorter than kMinRangeSamples samples. A graph below that
// many samples (cora-sim at theta 10 draws 24,850) runs as one inline range
// that writes its carry straight into `next`: there the fan-out saved less
// than the carry copy it adds once the host lends few cores. The split
// cannot show in any output, which consumes the ranges in source order.
constexpr size_t kStageOneRanges = 64;
constexpr uint64_t kMinRangeSamples = 32768;

size_t StageOneRangeLength(size_t n, uint32_t theta) {
  const size_t even = (n + kStageOneRanges - 1) / kStageOneRanges;
  const auto min_len =
      static_cast<size_t>((kMinRangeSamples + theta - 1) / theta);
  return std::max<size_t>({even, min_len, 1});
}

// Appends stage-1 ranges' carry records to `next` in range order, one
// reservation per array: the arrays one serial pass appends. A range's
// pair_begin holds each of its samples' pair ends, relative to the range.
// The RR slab and the pair records are separate calls, so they can be
// copied side by side.
void AppendRangeSlabs(const std::vector<HimorSampleCache>& parts,
                      HimorSampleCache* next) {
  std::vector<const RrSlabPool*> pools;
  for (const HimorSampleCache& part : parts) pools.push_back(&part.rr);
  next->rr.AppendPools(pools);
}

void AppendRangePairs(const std::vector<HimorSampleCache>& parts,
                      HimorSampleCache* next) {
  size_t num_pairs = 0;
  for (const HimorSampleCache& part : parts) {
    num_pairs += part.pair_node.size();
  }
  next->pair_pos.reserve(num_pairs);
  next->pair_tag.reserve(num_pairs);
  next->pair_node.reserve(num_pairs);
  for (const HimorSampleCache& part : parts) {
    const uint64_t base = next->pair_node.size();
    for (const uint64_t end : part.pair_begin) {
      next->pair_begin.push_back(base + end);
    }
    next->pair_pos.insert(next->pair_pos.end(), part.pair_pos.begin(),
                          part.pair_pos.end());
    next->pair_tag.insert(next->pair_tag.end(), part.pair_tag.begin(),
                          part.pair_tag.end());
    next->pair_node.insert(next->pair_node.end(), part.pair_node.begin(),
                           part.pair_node.end());
  }
}

}  // namespace

HimorIndex::BucketTable HimorIndex::BuildBuckets(
    std::span<const std::vector<std::pair<CommunityId, NodeId>>> parts,
    size_t num_vertices, size_t num_nodes) {
  BucketTable table;
  table.item_begin.assign(num_vertices + 1, 0);

  // Counting sort of the tag pairs by community, straight from the parts in
  // order (a stable sort of their concatenation).
  std::vector<size_t> start(num_vertices + 1, 0);
  for (const auto& pairs : parts) {
    for (const auto& [community, node] : pairs) ++start[community + 1];
  }
  for (size_t c = 1; c <= num_vertices; ++c) start[c] += start[c - 1];
  std::vector<NodeId> sorted(start[num_vertices]);
  {
    std::vector<size_t> cursor(start.begin(), start.end() - 1);
    for (const auto& pairs : parts) {
      for (const auto& [community, node] : pairs) {
        sorted[cursor[community]++] = node;
      }
    }
  }

  // Per-community aggregation: node stamps (token = community + 1, unique
  // per segment) turn dedup into O(1) array probes.
  std::vector<uint32_t> stamp(num_nodes, 0);
  std::vector<size_t> slot(num_nodes, 0);
  for (size_t c = 0; c < num_vertices; ++c) {
    table.item_begin[c] = table.node.size();
    const uint32_t token = static_cast<uint32_t>(c) + 1;
    for (size_t i = start[c]; i < start[c + 1]; ++i) {
      const NodeId v = sorted[i];
      if (stamp[v] != token) {
        stamp[v] = token;
        slot[v] = table.node.size();
        table.node.push_back(v);
        table.count.push_back(1);
      } else {
        ++table.count[slot[v]];
      }
    }
  }
  table.item_begin[num_vertices] = table.node.size();
  return table;
}

// Stage 2 core, templated over the bucket-item source: `items_of(c, emit)`
// must call emit(node, count) once per aggregated bucket item of community
// c (non-leaf communities only; emission order within a bucket is free —
// `updated` is re-sorted and the accumulators commute). Cold builds and the
// incremental path's dense branch feed it a BucketTable; the sparse branch
// feeds it the fingerprint-keyed rows it maintains incrementally.
template <typename ItemsOf>
HimorIndex HimorIndex::BuildFromItems(
    const Dendrogram& dendrogram, uint32_t max_rank, ItemsOf&& items_of,
    const std::vector<uint32_t>* comp_size_of_node,
    CoverageSketchBuilder* sketch) {
  const size_t n = dendrogram.NumLeaves();
  const size_t num_vertices = dendrogram.NumVertices();
  // ---- Stage 2: bottom-up merge of tree-structured buckets. ----
  // Internal vertex ids increase bottom-up (children precede parents), so a
  // simple ascending sweep is a valid post-order replacement.
  std::vector<Run> runs(num_vertices);
  std::vector<uint32_t> acc(n, 0);        // cumulative count along each
                                          // node's processed chain
  std::vector<uint32_t> rank_of(n, 0);    // scratch, epoch-guarded
  std::vector<uint32_t> rank_epoch(n, 0);
  uint32_t epoch = 0;
  // "In the current community's bucket" stamps, consulted on the merge path.
  std::vector<uint32_t> bucket_stamp(n, 0);

  std::vector<std::vector<Entry>> per_node(n);
  for (NodeId v = 0; v < n; ++v) {
    per_node[v].reserve(dendrogram.Depth(dendrogram.LeafOf(v)));
  }

  Run scratch;
  Run updated;
  for (CommunityId c = 0; c < num_vertices; ++c) {
    if (dendrogram.IsLeaf(c)) continue;
    const uint32_t token = c + 1;

    // Nodes recorded at c get their accumulated totals bumped; they will be
    // re-inserted with fresh values, so child-run copies are excluded.
    updated.clear();
    items_of(c, [&](NodeId v, uint32_t count) {
      acc[v] += count;
      updated.emplace_back(acc[v], v);
      bucket_stamp[v] = token;
    });

    const auto kids = dendrogram.Children(c);
    // The bucket run is exactly the nodes first covered at c, so the sketch
    // union (children's signatures + this bucket) sees c's full covered set
    // without any extra traversal.
    if (sketch != nullptr) sketch->MergeUp(c, kids, updated);

    // Component-scoped builds materialize only pure communities: a subtree
    // larger than its members' connected component must span components
    // (it includes every node of that component plus outsiders), so its
    // ranks depend on shard composition and are never served. Membership is
    // tested via the first member — a community either lies inside one
    // component or contains whole components, so one probe decides purity.
    // Every ancestor of an impure community is impure too, so nothing reads
    // an impure community's run or ranks: its child runs are only freed.
    if (comp_size_of_node != nullptr) {
      const auto members = dendrogram.Members(c);
      if (dendrogram.LeafCount(c) > (*comp_size_of_node)[*members.begin()]) {
        for (CommunityId child : kids) Run().swap(runs[child]);
        continue;
      }
    }
    std::sort(updated.begin(), updated.end(), RunLess);

    // Merge child runs (2-way cascade; agglomerative trees are binary except
    // possibly at the root). Empty runs are skipped: a component-scoped
    // build hangs every isolated leaf off a flat root, and each of them would
    // otherwise re-copy the growing merged run.
    Run merged;
    bool first = true;
    for (CommunityId child : kids) {
      Run& child_run = runs[child];
      if (!child_run.empty()) {
        if (first) {
          merged.clear();
          MergeRuns(child_run, Run{}, &bucket_stamp, token, &merged);
          first = false;
        } else {
          scratch.clear();
          MergeRuns(merged, child_run, &bucket_stamp, token, &scratch);
          merged.swap(scratch);
        }
      }
      Run().swap(child_run);  // free child memory
    }
    scratch.clear();
    MergeRuns(merged, updated, /*bucket_stamp=*/nullptr, 0, &scratch);
    merged.swap(scratch);

    // Ranks in c: position of the first entry with the same count.
    ++epoch;
    uint32_t tie_rank = 0;
    for (size_t i = 0; i < merged.size(); ++i) {
      if (i == 0 || merged[i].first != merged[i - 1].first) {
        tie_rank = static_cast<uint32_t>(i);
      }
      rank_of[merged[i].second] = tie_rank;
      rank_epoch[merged[i].second] = epoch;
    }
    const uint32_t absent_rank = static_cast<uint32_t>(merged.size());
    for (NodeId v : dendrogram.Members(c)) {
      const uint32_t r = rank_epoch[v] == epoch ? rank_of[v] : absent_rank;
      // "Selected communities": entries a query with k <= max_rank could
      // ever need. An ancestor absent from v's list implies rank >=
      // max_rank.
      if (r < max_rank) per_node[v].push_back(Entry{c, r});
      // acc[v] is v's exact cumulative count at c; the ascending sweep
      // overwrites, so each node ends at its TOPMOST materialized
      // ancestor — the monotone upper bound sketch pruning compares
      // thresholds against.
      if (sketch != nullptr) sketch->SetTopCount(v, acc[v]);
    }
    if (sketch != nullptr) sketch->RecordCommunity(c, merged);
    runs[c] = std::move(merged);
  }

  // ---- CSR-pack the per-node entry lists. ----
  std::vector<size_t> offsets(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + per_node[v].size();
  }
  std::vector<Entry> entries(offsets[n]);
  for (NodeId v = 0; v < n; ++v) {
    std::copy(per_node[v].begin(), per_node[v].end(),
              entries.begin() + offsets[v]);
  }
  HimorIndex index;
  index.max_rank_ = max_rank;
  index.offsets_ = SharedArray<size_t>(std::move(offsets));
  index.entries_ = SharedArray<Entry>(std::move(entries));
  return index;
}

size_t HimorIndex::NumStageOneRanges(size_t n, uint32_t theta) {
  const size_t range_len = StageOneRangeLength(n, theta);
  return (n + range_len - 1) / range_len;
}

Result<HimorIndex> HimorIndex::Build(
    const DiffusionModel& model, const Dendrogram& dendrogram,
    const LcaIndex& lca, uint32_t theta, uint64_t seed, uint32_t max_rank,
    const Budget& budget, const std::vector<uint32_t>* comp_size_of_node,
    uint32_t sketch_bits, std::optional<CoverageSketchIndex>* sketch) {
  return BuildDelta(model, dendrogram, lca, theta, seed, max_rank, budget,
                    comp_size_of_node, /*dirty=*/nullptr, /*prev=*/nullptr,
                    /*next=*/nullptr, /*stats=*/nullptr, sketch_bits, sketch);
}

Result<HimorIndex> HimorIndex::BuildDelta(
    const DiffusionModel& model, const Dendrogram& dendrogram,
    const LcaIndex& lca, uint32_t theta, uint64_t seed, uint32_t max_rank,
    const Budget& budget, const std::vector<uint32_t>* comp_size_of_node,
    const std::vector<char>* dirty, HimorSampleCache* prev,
    HimorSampleCache* next, HimorDeltaStats* stats,
    uint32_t sketch_bits, std::optional<CoverageSketchIndex>* sketch,
    TaskScheduler* scheduler, std::span<const NodeId> node_keys) {
  COD_CHECK(theta > 0);
  COD_CHECK(max_rank > 0);
  const size_t n = model.graph().NumNodes();
  COD_CHECK_EQ(n, dendrogram.NumLeaves());
  COD_CHECK(node_keys.empty() || node_keys.size() == n);
  // Carry is recorded only into `next`, and reuse needs somewhere to put it.
  COD_CHECK(next == nullptr ? prev == nullptr : next != prev);
  if (comp_size_of_node != nullptr) {
    COD_CHECK_EQ(n, comp_size_of_node->size());
  }
  if (sketch != nullptr) sketch->reset();
  if (COD_FAILPOINT("himor/build")) {
    return Status::IoError("failpoint himor/build armed");
  }

  const size_t num_vertices = dendrogram.NumVertices();
  // A graph of at most one node has no community above its leaves, so
  // there is nothing to rank and nothing to sample.
  const size_t num_sources = num_vertices > n ? n : 0;
  const uint64_t num_samples = uint64_t{num_sources} * theta;

  // A previous-epoch cache is only consulted when it was produced by the
  // same (theta, seed, max_rank) schedule on a same-sized graph, together
  // with a dirty bitmap relating the two graphs. The rows check is
  // defensive: a cache whose bucket rows were already consumed must never
  // re-enter the reuse path. Anything else (including a node-count change,
  // which invalidates the whole id space) falls back to sampling
  // everything — which is exactly the cold build.
  const bool reusable =
      prev != nullptr && prev->valid && prev->theta == theta &&
      prev->seed == seed && prev->max_rank == max_rank &&
      prev->num_leaves == n && prev->rr.NumSamples() == num_samples &&
      prev->pair_begin.size() == num_samples + 1 && !prev->rows.empty() &&
      dirty != nullptr && dirty->size() == n;

  if (next != nullptr) {
    // `next` is valid only once the build fully succeeds.
    next->valid = false;
    next->theta = theta;
    next->seed = seed;
    next->max_rank = max_rank;
    next->num_leaves = n;
    next->rr.Clear();
    next->rows.clear();
    next->pair_begin.clear();
    next->pair_begin.reserve(num_samples + 1);
    next->pair_begin.push_back(0);
    next->pair_pos.clear();
    next->pair_tag.clear();
    next->pair_node.clear();

    // New dendrogram shape + member-set fingerprints: carried in `next` for
    // the following epoch, and matched against `prev`'s below.
    next->parent.resize(num_vertices);
    next->set_hash.resize(num_vertices);
    next->set_size.resize(num_vertices);
    for (CommunityId c = 0; c < num_vertices; ++c) {
      next->parent[c] = dendrogram.Parent(c);
      next->set_size[c] = dendrogram.LeafCount(c);
      if (dendrogram.IsLeaf(c)) {
        next->set_hash[c] = LeafFingerprint(dendrogram.LeafNode(c));
      } else {
        uint64_t h = 0;
        for (CommunityId child : dendrogram.Children(c)) {
          h += next->set_hash[child];
        }
        next->set_hash[c] = h;
      }
    }
  }

  const uint32_t max_depth = TreeHfsSampler::MaxDepth(dendrogram);
  HimorDeltaStats tally;
  tally.samples_total = num_samples;

  // Stage 2 over a freshly aggregated bucket table (cold builds, and
  // incremental builds whose delta volume makes re-aggregation the cheaper
  // move). With carry, the table also becomes the fingerprint-keyed rows
  // the next delta build starts from; the caller marks `next` valid.
  const auto finish_from_buckets = [&](const BucketTable& buckets) {
    if (next != nullptr) {
      next->rows.clear();
      for (CommunityId c = 0; c < num_vertices; ++c) {
        const size_t ib = buckets.item_begin[c];
        const size_t ie = buckets.item_begin[c + 1];
        if (ib == ie) continue;
        HimorSampleCache::BucketRow& row = next->rows[next->set_hash[c]];
        row.node.insert(row.node.end(), buckets.node.begin() + ib,
                        buckets.node.begin() + ie);
        row.count.insert(row.count.end(), buckets.count.begin() + ib,
                         buckets.count.begin() + ie);
      }
    }
    std::optional<CoverageSketchBuilder> sb = MaybeSketchBuilder(
        dendrogram, seed, theta, max_rank, sketch_bits, sketch, node_keys);
    HimorIndex index = BuildFromItems(
        dendrogram, max_rank,
        [&buckets](CommunityId c, auto&& emit) {
          for (size_t i = buckets.item_begin[c];
               i < buckets.item_begin[c + 1]; ++i) {
            emit(buckets.node[i], buckets.count[i]);
          }
        },
        comp_size_of_node, sb ? &*sb : nullptr);
    if (sb) *sketch = sb->Finish();
    if (stats != nullptr) *stats = tally;
    return index;
  };

  if (!reusable) {
    // Cold build: draw and walk every sample in fixed source ranges (on
    // `scheduler` when there is one), then aggregate buckets in one pass.
    // Each range fills its own pair vector and carry records; consumed in
    // range order they equal what one serial pass produces. Every range
    // polls the budget per source and stops once any range has failed;
    // failures are all-or-nothing — nothing partial is kept.
    const size_t range_len = StageOneRangeLength(num_sources, theta);
    const size_t num_ranges = NumStageOneRanges(num_sources, theta);
    std::vector<std::vector<std::pair<CommunityId, NodeId>>> pairs(num_ranges);
    // Ranges that run one after another in source order (one range, or no
    // scheduler) record their carry straight into `next`.
    std::vector<HimorSampleCache> carry(
        next != nullptr && scheduler != nullptr && num_ranges > 1 ? num_ranges
                                                                  : 0);
    std::atomic<StatusCode> failed{StatusCode::kOk};
    ForEachIndex(scheduler, num_ranges, [&](size_t r) {
      TreeHfsSampler walker(model, dendrogram, lca, max_depth);
      HimorSampleCache* sink = carry.empty() ? next : &carry[r];
      const size_t end = std::min(num_sources, (r + 1) * range_len);
      for (size_t source = r * range_len; source < end; ++source) {
        if (failed.load(std::memory_order_relaxed) != StatusCode::kOk) return;
        const StatusCode code = budget.ExhaustedCode();
        if (code != StatusCode::kOk) {
          StatusCode none = StatusCode::kOk;  // the first failure is reported
          failed.compare_exchange_strong(none, code);
          return;
        }
        walker.BeginSource(static_cast<NodeId>(source));
        const uint64_t key =
            NodeKey(node_keys, static_cast<NodeId>(source));
        for (uint32_t j = 0; j < theta; ++j) {
          Rng rng(RrSampleSeed(seed, key * theta + j));
          walker.SampleAndWalk(rng, &pairs[r], sink);
          if (sink != nullptr) {
            sink->rr.Append(walker.last_rr());
            sink->pair_begin.push_back(sink->pair_node.size());
          }
        }
      }
    });
    if (const StatusCode code = failed.load(); code != StatusCode::kOk) {
      return BudgetStatus(code);
    }
    tally.samples_resampled = num_samples;
    // Bucket aggregation plus stage 2, the RR slab copy and the pair-record
    // copy touch disjoint state, so the carry assembles beside stage 2.
    HimorIndex index;
    ForEachIndex(scheduler, carry.empty() ? 1 : 3, [&](size_t task) {
      if (task == 0) {
        index = finish_from_buckets(BuildBuckets(pairs, num_vertices, n));
      } else if (task == 1) {
        AppendRangeSlabs(carry, next);
      } else {
        AppendRangePairs(carry, next);
      }
    });
    if (next != nullptr) next->valid = true;
    return index;
  }

  // ---- Incremental path. ----
  TreeHfsSampler worker(model, dendrogram, lca, max_depth);
  // At low churn the new pair population is close to the old one; one
  // up-front reservation keeps the hot loop free of geometric regrowth.
  next->pair_pos.reserve(prev->pair_pos.size());
  next->pair_tag.reserve(prev->pair_tag.size());
  next->pair_node.reserve(prev->pair_node.size());

  // Per-source scratch for the old-chain -> new-chain position match.
  std::vector<CommunityId> old_chain;
  std::vector<uint32_t> match;
  std::vector<char> pos_valid;

  // Per-source memo of each node's new chain slot (SlotOf), filled lazily:
  // pairs at preserved positions read `match`, pairs at damaged positions
  // pay one LCA query per distinct node per source.
  std::vector<uint32_t> new_slot(n, 0);
  std::vector<NodeId> new_slot_stamp(n, kInvalidNode);
  // Per-sample old-slot -> new-slot map (stamped by sample index + 1) for
  // the monotone-remap rescue below; old slots are bounded by chain length
  // and chains are shorter than n. The same arrays double as the per-row
  // node index when the bucket deltas are applied after the loop (tokens
  // there start past num_samples).
  std::vector<uint32_t> slot_to(n, 0);
  std::vector<uint64_t> slot_stamp(n, 0);
  std::vector<uint32_t> sample_slots;  // distinct old slots of one sample
  // Per-sample node -> old tag fingerprint memo for the replay diff: the
  // re-walk visits the exact node set of the cached sample, so a node whose
  // tag fingerprint is unchanged owes no bucket delta.
  std::vector<uint64_t> node_old_hash(n, 0);
  std::vector<uint64_t> node_hash_stamp(n, 0);

  // Sparse bucket maintenance: a sample whose every tag sits at a
  // member-set-preserved chain position contributes the SAME
  // (fingerprint, node) multiset in both epochs — no bucket change at all.
  // Only resampled and replayed samples, plus the restructured-tag pairs of
  // rescued samples, push +-1 deltas here; they are aggregated and applied
  // to the carried rows once the loop is done.
  struct BucketDelta {
    uint64_t hash;
    NodeId node;
    int32_t d;
  };
  std::vector<BucketDelta> deltas;
  const auto sub_pair = [&](uint32_t old_tag, NodeId v) {
    deltas.push_back({prev->set_hash[old_chain[old_tag]], v, -1});
  };
  const auto add_pair = [&](uint32_t new_tag, NodeId v) {
    deltas.push_back({next->set_hash[worker.ChainAtLeafUp(new_tag)], v, +1});
  };

  // Cached RR bytes are carried over in maximal contiguous sample-index
  // runs: one AppendRange per run instead of one Append per sample keeps
  // the slab copy at memcpy speed. A run is flushed whenever a sample has
  // to be redrawn (its bytes differ) so the slab stays in sample order.
  uint64_t run_lo = 0, run_hi = 0;
  const auto flush_run = [&] {
    if (run_hi > run_lo) next->rr.AppendRange(prev->rr, run_lo, run_hi);
    run_lo = run_hi = 0;
  };
  const auto carry_rr = [&](uint64_t lo, uint64_t hi) {
    if (run_hi == lo && run_hi > run_lo) {
      run_hi = hi;
    } else {
      flush_run();
      run_lo = lo;
      run_hi = hi;
    }
  };
  // Same batching for the cached pair records of verbatim samples (the
  // common case at low churn): three bulk inserts plus a pair_begin rebase
  // per run, instead of three pushes per pair.
  uint64_t prun_lo = 0, prun_hi = 0;
  const auto flush_pairs = [&] {
    if (prun_hi > prun_lo) {
      const uint64_t kb = prev->pair_begin[prun_lo];
      const uint64_t ke = prev->pair_begin[prun_hi];
      const uint64_t base = next->pair_node.size();
      next->pair_pos.insert(next->pair_pos.end(),
                            prev->pair_pos.begin() + kb,
                            prev->pair_pos.begin() + ke);
      next->pair_tag.insert(next->pair_tag.end(),
                            prev->pair_tag.begin() + kb,
                            prev->pair_tag.begin() + ke);
      next->pair_node.insert(next->pair_node.end(),
                             prev->pair_node.begin() + kb,
                             prev->pair_node.begin() + ke);
      for (uint64_t s = prun_lo; s < prun_hi; ++s) {
        next->pair_begin.push_back(base + prev->pair_begin[s + 1] - kb);
      }
    }
    prun_lo = prun_hi = 0;
  };
  const auto carry_pairs = [&](uint64_t idx) {
    if (prun_hi == idx && prun_hi > prun_lo) {
      prun_hi = idx + 1;
    } else {
      flush_pairs();
      prun_lo = idx;
      prun_hi = idx + 1;
    }
  };

  for (NodeId source = 0; source < n; ++source) {
    const StatusCode budget_code = budget.ExhaustedCode();
    if (budget_code != StatusCode::kOk) {
      return BudgetStatus(budget_code);
    }
    worker.BeginSource(source);
    const uint32_t new_len = worker.source_level();

    // Old ancestor chain of `source`, leaf-up (deepest first).
    old_chain.clear();
    for (CommunityId c = prev->parent[source]; c != kInvalidCommunity;
         c = prev->parent[c]) {
      old_chain.push_back(c);
    }
    // Two-pointer match on (size, fingerprint): member counts strictly
    // increase along both chains, so each new position is considered for
    // at most one old position and vice versa.
    match.assign(old_chain.size(), kNoPos);
    uint32_t q = 0;
    for (size_t p = 0; p < old_chain.size(); ++p) {
      const uint32_t sz = prev->set_size[old_chain[p]];
      while (q < new_len && next->set_size[worker.ChainAtLeafUp(q)] < sz) {
        ++q;
      }
      if (q < new_len) {
        const CommunityId nc = worker.ChainAtLeafUp(q);
        if (next->set_size[nc] == sz &&
            next->set_hash[nc] == prev->set_hash[old_chain[p]]) {
          match[p] = q++;
        }
      }
    }
    // Position p is PRESERVED when both the community at p and the one
    // directly below it survive with their member sets intact and still
    // adjacent: then "deepest ancestor containing w is at p" transfers to
    // match[p] verbatim (w is in the new community at match[p], not in
    // the one below it, and everything deeper is a subset of that). For
    // p == 0 the community below is the singleton leaf, so the match must
    // land on the new leaf parent. Preservation of every position a
    // sample referenced makes the remap order-preserving, which is all
    // the walk's min/max clamps observe — hence tier 3's verbatim reuse.
    pos_valid.assign(old_chain.size(), 0);
    for (size_t p = 0; p < old_chain.size(); ++p) {
      if (match[p] == kNoPos) continue;
      const bool below_ok = p == 0
                                ? match[0] == 0
                                : (match[p - 1] != kNoPos &&
                                   match[p] == match[p - 1] + 1);
      if (below_ok) pos_valid[p] = 1;
    }
    // `first_bad` is the first chain position NOT preserved. Below it the
    // below-adjacency rule forces `match` to be the identity (match[0] == 0
    // and match[p] == match[p - 1] + 1 by induction), so a clean sample
    // whose deepest tag stays below first_bad is this epoch's sample
    // VERBATIM. Cached pairs are tag-sorted (the walk drains depths
    // deepest-first) and pos <= tag per pair, so the sample's last tag
    // bounds every slot it references — an O(1) crossing test.
    uint32_t first_bad = static_cast<uint32_t>(old_chain.size());
    for (uint32_t p = 0; p < first_bad; ++p) {
      if (!pos_valid[p]) {
        first_bad = p;
        break;
      }
    }

    for (uint32_t j = 0; j < theta; ++j) {
      const uint64_t idx = uint64_t{source} * theta + j;
      const RrSlabPool::View view = prev->rr.Sample(idx);
      bool clean = view.source == source;
      for (uint32_t i = 0; clean && i < view.node_count; ++i) {
        clean = (*dirty)[view.nodes[i]] == 0;
      }
      const uint64_t kb = prev->pair_begin[idx];
      const uint64_t ke = prev->pair_begin[idx + 1];
      if (!clean) {
        // Tier 1: a dirty vertex was visited — redraw from the sample's
        // own seed, exactly as a cold build, and swap the sample's bucket
        // contribution (unchanged (fingerprint, node) entries cancel when
        // the deltas are aggregated).
        flush_pairs();
        flush_run();
        const uint64_t pair_base = next->pair_node.size();
        Rng rng(RrSampleSeed(
            seed, uint64_t{NodeKey(node_keys, source)} * theta + j));
        worker.SampleAndWalk(rng, /*pairs=*/nullptr, next);
        next->rr.Append(worker.last_rr());
        for (uint64_t k = kb; k < ke; ++k) {
          sub_pair(prev->pair_tag[k], prev->pair_node[k]);
        }
        for (uint64_t k = pair_base; k < next->pair_node.size(); ++k) {
          add_pair(next->pair_tag[k], next->pair_node[k]);
        }
        next->pair_begin.push_back(next->pair_node.size());
        ++tally.samples_resampled;
        continue;
      }
      // The sampler consumes randomness per visited node as a function of
      // that node's adjacency only, so a clean visited set replays
      // bit-identically: the cached bytes ARE this epoch's sample.
      if (kb == ke || prev->pair_tag[ke - 1] < first_bad) {
        // Every referenced slot is identity-preserved: carry the pair
        // records and RR bytes verbatim, zero bucket change.
        carry_pairs(idx);
        carry_rr(idx, idx + 1);
        ++tally.samples_reused;
        continue;
      }
      flush_pairs();
      bool all_valid = true;
      for (uint64_t k = kb; all_valid && k < ke; ++k) {
        const uint32_t p = prev->pair_pos[k];
        const uint32_t t = prev->pair_tag[k];
        all_valid = p < pos_valid.size() && pos_valid[p] &&
                    t < pos_valid.size() && pos_valid[t];
      }
      if (all_valid) {
        // Tier 3: every referenced chain position is preserved (the sample
        // straddles the damaged stretch without touching it) — emit the
        // cached tags at their shifted positions. Preserved fingerprints
        // mean no bucket change.
        for (uint64_t k = kb; k < ke; ++k) {
          next->pair_pos.push_back(match[prev->pair_pos[k]]);
          next->pair_tag.push_back(match[prev->pair_tag[k]]);
          next->pair_node.push_back(prev->pair_node[k]);
        }
        ++tally.samples_reused;
      } else {
        // Some referenced position was damaged. Resolve every node's TRUE
        // new slot (preserved positions via `match`, damaged ones via one
        // memoized LCA query per node) and collect the induced old-slot ->
        // new-slot map. Tags are path bottlenecks — a pure min/max
        // function of the nodes' slots — so whenever that map is
        // single-valued and strictly monotone over the sample's slots, the
        // cached tags transfer through it verbatim and the walk is
        // skipped. Emission order survives too: pairs sort by tag, and a
        // monotone remap preserves that order.
        const uint64_t sample_stamp = idx + 1;
        bool remap_ok = true;
        sample_slots.clear();
        for (uint64_t k = kb; remap_ok && k < ke; ++k) {
          const uint32_t p = prev->pair_pos[k];
          const NodeId w = prev->pair_node[k];
          uint32_t np;
          if (p < pos_valid.size() && pos_valid[p]) {
            np = match[p];
          } else {
            if (new_slot_stamp[w] != source) {
              new_slot_stamp[w] = source;
              new_slot[w] = worker.SlotOf(w);
            }
            np = new_slot[w];
          }
          if (slot_stamp[p] != sample_stamp) {
            slot_stamp[p] = sample_stamp;
            slot_to[p] = np;
            sample_slots.push_back(p);
          } else if (slot_to[p] != np) {
            remap_ok = false;  // two nodes at one old slot diverged
          }
        }
        if (remap_ok) {
          // Every tag is some sample node's slot (the bottleneck is
          // attained on the path), so it must already be mapped.
          for (uint64_t k = kb; remap_ok && k < ke; ++k) {
            remap_ok = slot_stamp[prev->pair_tag[k]] == sample_stamp;
          }
        }
        if (remap_ok && sample_slots.size() > 1) {
          std::sort(sample_slots.begin(), sample_slots.end());
          for (size_t i = 1; remap_ok && i < sample_slots.size(); ++i) {
            remap_ok =
                slot_to[sample_slots[i - 1]] < slot_to[sample_slots[i]];
          }
        }
        if (remap_ok) {
          // Only pairs whose tag community's fingerprint genuinely moved
          // change buckets. A tag slot can fail pos_valid merely because
          // ADJACENCY below it broke; when the old community still sits
          // (by fingerprint) exactly at the new tag position, the pair's
          // (fingerprint, node) key is unchanged and no delta is owed.
          for (uint64_t k = kb; k < ke; ++k) {
            const uint32_t t_old = prev->pair_tag[k];
            const uint32_t t = slot_to[t_old];
            const NodeId v = prev->pair_node[k];
            next->pair_pos.push_back(slot_to[prev->pair_pos[k]]);
            next->pair_tag.push_back(t);
            next->pair_node.push_back(v);
            if (!(t_old < pos_valid.size() && pos_valid[t_old]) &&
                match[t_old] != t) {
              sub_pair(t_old, v);
              add_pair(t, v);
            }
          }
          ++tally.samples_reused;
        } else {
          // Tier 2: the sample genuinely restructured — re-walk it on the
          // cached RR bytes. Slots resolved above seed the walk, so it
          // runs without LCA queries; finish the memo first for nodes
          // whose pairs sat at preserved positions (the loop above may
          // have bailed before reaching them).
          for (uint64_t k = kb; k < ke; ++k) {
            const NodeId w = prev->pair_node[k];
            if (new_slot_stamp[w] != source) {
              new_slot_stamp[w] = source;
              const uint32_t p = prev->pair_pos[k];
              new_slot[w] = p < pos_valid.size() && pos_valid[p]
                                ? match[p]
                                : worker.SlotOf(w);
            }
          }
          const uint64_t pair_base = next->pair_node.size();
          worker.WalkClamped(
              view, [&](NodeId v) { return new_len - new_slot[v]; },
              /*pairs=*/nullptr, next);
          // Both walks emit every visited node exactly once, so diffing the
          // per-node tag fingerprints finds the (few) moved pairs without
          // flooding the delta list with cancelling entries.
          for (uint64_t k = kb; k < ke; ++k) {
            const NodeId v = prev->pair_node[k];
            node_hash_stamp[v] = sample_stamp;
            node_old_hash[v] = prev->set_hash[old_chain[prev->pair_tag[k]]];
          }
          for (uint64_t k = pair_base; k < next->pair_node.size(); ++k) {
            const NodeId v = next->pair_node[k];
            const uint64_t h =
                next->set_hash[worker.ChainAtLeafUp(next->pair_tag[k])];
            if (node_hash_stamp[v] == sample_stamp &&
                node_old_hash[v] == h) {
              continue;
            }
            if (node_hash_stamp[v] == sample_stamp) {
              deltas.push_back({node_old_hash[v], v, -1});
            }
            deltas.push_back({h, v, +1});
          }
          ++tally.samples_replayed;
        }
      }
      carry_rr(idx, idx + 1);
      next->pair_begin.push_back(next->pair_node.size());
    }
  }
  flush_pairs();
  flush_run();

  // ---- Produce this epoch's bucket rows. ----
  // A heavily restructured epoch (tags moved for a sizable fraction of all
  // pairs) re-aggregates from scratch: the counting sort costs a flat pass
  // over the pair arrays, while sorted delta application scales with the
  // delta volume and loses past roughly a fifth of the pairs. Both branches
  // produce the same row multisets, so the choice never shows in the index.
  if (deltas.size() * 5 > next->pair_node.size()) {
    prev->rows.clear();  // retired either way on success; free it early
    std::vector<std::pair<CommunityId, NodeId>> pairs;
    pairs.reserve(next->pair_node.size());
    for (NodeId source = 0; source < n; ++source) {
      worker.BeginSource(source);
      const uint64_t pb = next->pair_begin[uint64_t{source} * theta];
      const uint64_t pe = next->pair_begin[uint64_t{source} * theta + theta];
      for (uint64_t k = pb; k < pe; ++k) {
        pairs.emplace_back(worker.ChainAtLeafUp(next->pair_tag[k]),
                           next->pair_node[k]);
      }
    }
    HimorIndex index =
        finish_from_buckets(BuildBuckets({&pairs, 1}, num_vertices, n));
    next->valid = true;
    return index;
  }

  // Sparse case: carry the rows across and apply the delta. Stealing (not
  // copying) the row map is what makes benign epochs cheap; it happens only
  // here, past every failure point, so an aborted build leaves `prev`
  // fully reusable.
  next->rows = std::move(prev->rows);
  prev->rows.clear();  // moved-from: make it deterministically empty

  if (!deltas.empty()) {
    std::sort(deltas.begin(), deltas.end(),
              [](const BucketDelta& a, const BucketDelta& b) {
                if (a.hash != b.hash) return a.hash < b.hash;
                return a.node < b.node;
              });
    uint64_t token = num_samples;  // continues past the per-sample stamps
    size_t g = 0;
    while (g < deltas.size()) {
      const uint64_t h = deltas[g].hash;
      size_t ge = g;
      while (ge < deltas.size() && deltas[ge].hash == h) ++ge;
      HimorSampleCache::BucketRow& row = next->rows[h];
      ++token;
      for (size_t i = 0; i < row.node.size(); ++i) {
        slot_stamp[row.node[i]] = token;
        slot_to[row.node[i]] = static_cast<uint32_t>(i);
      }
      for (size_t i = g; i < ge;) {
        const NodeId v = deltas[i].node;
        int64_t d = 0;
        for (; i < ge && deltas[i].node == v; ++i) d += deltas[i].d;
        if (d == 0) continue;
        if (slot_stamp[v] == token) {
          const int64_t updated = int64_t{row.count[slot_to[v]]} + d;
          COD_CHECK(updated >= 0);
          row.count[slot_to[v]] = static_cast<uint32_t>(updated);
        } else {
          COD_CHECK(d > 0);  // subtracting a pair the row never held
          slot_stamp[v] = token;
          slot_to[v] = static_cast<uint32_t>(row.node.size());
          row.node.push_back(v);
          row.count.push_back(static_cast<uint32_t>(d));
        }
      }
      // Compact: zero-count entries would be semantically neutral
      // downstream, but dropping them keeps rows from growing across
      // epochs and lets an emptied row (a vanished community) be erased.
      size_t w = 0;
      for (size_t i = 0; i < row.node.size(); ++i) {
        if (row.count[i] == 0) continue;
        row.node[w] = row.node[i];
        row.count[w] = row.count[i];
        ++w;
      }
      if (w == 0) {
        next->rows.erase(h);
      } else {
        row.node.resize(w);
        row.count.resize(w);
      }
      g = ge;
    }
  }

  // Stage 2 always re-runs over the (carried + refreshed) bucket rows, so
  // the sketch co-build inherits the delta discipline for free: clean
  // components feed byte-identical rows, dirty components freshly
  // recomputed ones, and the resulting sketch equals a cold build's.
  std::optional<CoverageSketchBuilder> sb =
      MaybeSketchBuilder(dendrogram, seed, theta, max_rank, sketch_bits,
                         sketch, node_keys);
  HimorIndex index = BuildFromItems(
      dendrogram, max_rank,
      [&](CommunityId c, auto&& emit) {
        const auto it = next->rows.find(next->set_hash[c]);
        if (it == next->rows.end()) return;
        const HimorSampleCache::BucketRow& row = it->second;
        for (size_t i = 0; i < row.node.size(); ++i) {
          emit(row.node[i], row.count[i]);
        }
      },
      comp_size_of_node, sb ? &*sb : nullptr);
  if (sb) *sketch = sb->Finish();
  next->valid = true;
  if (stats != nullptr) *stats = tally;
  return index;
}

void HimorIndex::SerializeTo(BinaryBufferWriter& out) const {
  out.WritePod(max_rank_);
  out.WriteArray(offsets_);
  out.WriteArray(entries_);
}

Result<HimorIndex> HimorIndex::Deserialize(BinarySpanReader& in) {
  HimorIndex index;
  if (!in.ReadPod(&index.max_rank_) || !in.ReadArray(&index.offsets_) ||
      !in.ReadArray(&index.entries_)) {
    return in.status();
  }
  if (index.max_rank_ == 0) {
    in.Fail("corrupt HIMOR index (max_rank 0)");
    return in.status();
  }
  // Structural validation: offsets must be a monotone prefix-sum ending at
  // the entry count.
  if (index.offsets_.empty() || index.offsets_.front() != 0 ||
      index.offsets_.back() != index.entries_.size()) {
    in.Fail("inconsistent HIMOR offsets");
    return in.status();
  }
  for (size_t i = 1; i < index.offsets_.size(); ++i) {
    if (index.offsets_[i] < index.offsets_[i - 1]) {
      in.Fail("inconsistent HIMOR offsets");
      return in.status();
    }
  }
  return index;
}

const HimorIndex::Entry* HimorIndex::FindTopKAncestor(
    NodeId q, CommunityId c_ell, uint32_t k,
    const Dendrogram& dendrogram) const {
  COD_CHECK(k <= max_rank_);
  const auto entries = RanksOf(q);
  // Entries are deepest-first; scan from the root downward and return the
  // first (largest) qualifying community, stopping once below c_ell.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (!dendrogram.IsAncestorOrSelf(it->community, c_ell)) break;
    if (it->rank < k) return &*it;
  }
  return nullptr;
}

}  // namespace cod

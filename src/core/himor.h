// HIMOR index: precomputed Hierarchical Influence-rank Materialization Over
// the non-attributed community hierarchy (paper Section IV-B).
//
// For every node v and every community C on v's ancestor chain in the
// non-attributed dendrogram T, the index stores v's influence rank in C.
// LORE only alters the hierarchy *below* the reclustered community C_ell, so
// a CODL query can answer from the index whenever some ancestor of C_ell
// already has the query in its top-k, and only falls back to compressed
// evaluation inside C_ell otherwise (Algorithm 3).
//
// Construction (compressed, Theorem 6) extends compressed COD evaluation to
// the whole tree: one shared pool of Theta = theta * |V| RR graphs is
// traversed by hierarchical-first search with *tree-structured* buckets (one
// per community, holding each reached node's count at the deepest community
// containing a live source path); buckets are then merged bottom-up as
// sorted runs, producing every community's full ranking in
// O(Theta*omega + |R| log |V| + sum_v dep(v)).
//
// There is one builder, BuildDelta; Build is its cold form with no carry.
// Sample (source, j) is drawn from the counter-seeded schedule
// RrSampleSeed(seed, source * theta + j) — independent of epoch and of
// every other sample. That one schedule lets BuildDelta reuse any subset of
// samples byte-identically, and lets the coverage-sketch index
// (influence/coverage_sketch.h) prove query-time pruning bounds against the
// very pool a pinned evaluation will draw.
//
// Incremental construction (DESIGN.md Sec. 15): under a small edge delta,
// most RR graphs and most of their hierarchical-first tags are unchanged.
// BuildDelta reuses, per sample, as much of the previous epoch's work as a
// dirty-vertex bitmap and a member-set comparison of the two dendrograms
// prove safe. A delta build is bit-identical to a cold build on the same
// graph.

#ifndef COD_CORE_HIMOR_H_
#define COD_CORE_HIMOR_H_

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "common/deadline.h"
#include "common/status.h"
#include "hierarchy/dendrogram.h"
#include "hierarchy/lca.h"
#include "influence/coverage_sketch.h"
#include "influence/rr_graph.h"
#include "influence/rr_pool.h"

namespace cod {

class CoverageSketchBuilder;
class TaskScheduler;

// Cross-epoch carry state for BuildDelta: everything epoch N's build must
// remember so epoch N+1 can skip the untouched fraction. Owned by the
// serving layer (one double-buffered pair per service), opaque to queries.
//
//  * `rr` holds every RR graph of the epoch, sample (s, j) at slab index
//    s * theta + j. A sample whose visited set avoids the dirty bitmap
//    replays bit-identically (the sampler consumes randomness per VISITED
//    node, as a function of that node's adjacency only), so its bytes are
//    carried forward instead of resampled.
//  * The pair arrays record, per visited node of each sample, its
//    hierarchical-first tag: `pair_pos` is the chain position (distance
//    from the leaf, 0 = the source's leaf parent) of the deepest source
//    ancestor containing the node, `pair_tag` the position the node was
//    emitted at (the path-bottleneck clamp of pos), `pair_node` the node.
//    When the source's old and new ancestor chains agree (by member-set
//    size + fingerprint) at every position a sample referenced, the cached
//    pairs remap to the new chain without re-walking the RR graph.
//  * `parent` / `set_hash` / `set_size` describe the OLD dendrogram's
//    ancestor structure, so the matching needs no reference to the previous
//    epoch's engine core.
//  * `rows` carries the aggregated bucket contents, keyed by community
//    member-set fingerprint rather than community id so the key survives
//    dendrogram renumbering. A sample whose every tag sits at a member-set
//    preserved chain position contributes the identical (fingerprint, node)
//    multiset in both epochs, so BuildDelta moves the whole map forward
//    (stealing it from `prev`) and applies only the sparse sub/add delta of
//    the samples that actually changed. A cross-community fingerprint
//    collision would merge two buckets — the same ~2^-60 risk class as the
//    chain match (DESIGN.md Sec. 15). Cache-only carry state, never
//    serialized.
struct HimorSampleCache {
  struct BucketRow {
    std::vector<NodeId> node;
    std::vector<uint32_t> count;  // parallel to `node`; entries stay > 0
  };

  uint32_t theta = 0;
  uint64_t seed = 0;
  uint32_t max_rank = 0;
  size_t num_leaves = 0;
  std::vector<CommunityId> parent;  // per old dendrogram vertex
  std::vector<uint64_t> set_hash;   // commutative member-set fingerprint
  std::vector<uint32_t> set_size;   // leaf count
  RrSlabPool rr;
  std::vector<uint64_t> pair_begin;  // per sample, CSR into the pair arrays
  std::vector<uint32_t> pair_pos;
  std::vector<uint32_t> pair_tag;
  std::vector<NodeId> pair_node;
  std::unordered_map<uint64_t, BucketRow> rows;
  bool valid = false;
};

// Per-build reuse accounting (BuildDelta outputs; the serving layer turns
// these into cod_rebuild_delta_samples_* counters).
struct HimorDeltaStats {
  uint64_t samples_total = 0;
  uint64_t samples_resampled = 0;  // RR set touched a dirty vertex
  uint64_t samples_replayed = 0;   // RR bytes reused, HFS walk re-run
  uint64_t samples_reused = 0;     // RR bytes and cached tags both reused
};

class HimorIndex {
 public:
  struct Entry {
    CommunityId community;
    uint32_t rank;  // number of members with strictly larger influence
  };

  // The one builder (paper Sec. IV-B, Theorem 6). Builds the index over
  // `dendrogram` (which, with `model`'s graph and `lca`, must outlive the
  // call only — the index owns its data). `theta` RR graphs are sampled per
  // node, sample (s, j) from RrSampleSeed(seed, s * theta + j).
  //
  // `max_rank` implements the paper's "selected communities": only
  // (community, rank) pairs with rank < max_rank are materialized, since a
  // query with requirement k <= max_rank never needs the others (an absent
  // ancestor means rank >= max_rank > k - 1). This keeps the index size near
  // the input data size even on skewed hierarchies; pass
  // std::numeric_limits<uint32_t>::max() to materialize every ancestor.
  //
  // `comp_size_of_node` (v's connected-component size, from
  // graph::ConnectedComponents; nullptr = materialize everything, the mono
  // behavior) enables component-scoped materialization for sharded serving
  // (EngineOptions::component_scoped): only "pure" communities (LeafCount
  // <= the size of their members' connected component, i.e. subtrees that
  // never cross a component boundary) enter the per-node entry lists. The
  // impure merge vertices a dendrogram over a disconnected graph stacks on
  // top carry no influence signal and would differ per shard layout. With
  // the source-keyed schedule, every within-component rank is then a pure
  // function of (seed, theta, its own component's subgraph). On a connected
  // graph every community is pure and the entry set matches the mono build.
  //
  // Scheduler: a cold build (no usable `prev`) draws its samples in fixed
  // source ranges, a function of (n, theta) only. With a non-null
  // `scheduler` the ranges fan out on it as rebuild-priority tasks and the
  // calling thread runs ranges too (ForEachIndex); without one they run
  // inline. Every output — index, sketch and carry — is byte-identical
  // whatever the worker count. The incremental path always runs serially.
  //
  // Budget: an exhausted budget or an armed "himor/build" failpoint returns
  // kTimeout / kCancelled / kIoError instead of running unbounded. The
  // failpoint is checked once, before any sampling. The budget is polled
  // once per source node (the per-source RR batch is the check interval),
  // in every range, and one range's failure stops the others. On failure
  // nothing is returned — either the full deterministic index or an error,
  // never a partial index.
  //
  // With sketch_bits > 0 and `sketch` non-null, *sketch receives a
  // CoverageSketchIndex built from the very same RR samples and bucket
  // runs, at seed = `seed`. An armed "influence/sketch_build" failpoint (or
  // sketch_bits == 0) leaves *sketch empty while the index itself still
  // builds — sketch loss degrades pruning, never correctness.
  //
  // Node keys: on a compact shard `node_keys` (GlobalIds::global, empty =
  // identity) replaces each source's id in its sample seeds,
  // RrSampleSeed(seed, NodeKey(node_keys, s) * theta + j), and each node's
  // sketch rank, so a shard draws exactly the samples a whole-graph build
  // draws for the same nodes. A graph of at most one node has no community
  // above its leaves: it samples nothing and its index is empty.
  //
  // Incremental construction (the delta-rebuild serving mode): with a valid
  // `prev` plus the `dirty` bitmap of vertices incident to any edge changed
  // since prev's epoch, each sample takes the cheapest sound tier:
  //
  //   1. resample — some visited vertex is dirty; redraw from the sample's
  //      own seed and re-walk (identical to what the cold build does);
  //   2. replay  — the RR bytes are clean but the source's ancestor chain
  //      changed at a referenced position; reuse the bytes, re-run the
  //      hierarchical-first walk against the new dendrogram;
  //   3. reuse   — bytes clean and every chain position the sample's tags
  //      reference is member-set-preserved at a consecutively shifted new
  //      position; the cached (pos, node) pairs are emitted directly.
  //
  // With prev == nullptr (or an unusable cache) every sample is drawn
  // fresh: the cold build. The produced index is bit-identical to the cold
  // build on the same graph and seed (the delta-vs-cold equivalence suite
  // pins this; set fingerprints have a ~2^-60 collision risk, see DESIGN.md
  // Sec. 15).
  //
  // Carry: a non-null `next` (!= prev) receives the carry state for the
  // following epoch; it is valid only when the build returns Ok. With
  // next == nullptr no carry is recorded at all (no RR slab, pair arrays or
  // rows), and `prev` must be null too. A SUCCESSFUL build consumes
  // prev->rows (the bucket carry is moved, not copied — prev is retired by
  // the caller's double-buffer flip anyway); a failed build leaves `prev`
  // fully reusable. `stats` (nullable) receives the per-tier sample counts.
  static Result<HimorIndex> BuildDelta(
      const DiffusionModel& model, const Dendrogram& dendrogram,
      const LcaIndex& lca, uint32_t theta, uint64_t seed, uint32_t max_rank,
      const Budget& budget, const std::vector<uint32_t>* comp_size_of_node,
      const std::vector<char>* dirty, HimorSampleCache* prev,
      HimorSampleCache* next, HimorDeltaStats* stats,
      uint32_t sketch_bits = 0,
      std::optional<CoverageSketchIndex>* sketch = nullptr,
      TaskScheduler* scheduler = nullptr,
      std::span<const NodeId> node_keys = {});

  // The cold build without carry: BuildDelta with null dirty/prev/next.
  static Result<HimorIndex> Build(
      const DiffusionModel& model, const Dendrogram& dendrogram,
      const LcaIndex& lca, uint32_t theta, uint64_t seed,
      uint32_t max_rank = 16, const Budget& budget = {},
      const std::vector<uint32_t>* comp_size_of_node = nullptr,
      uint32_t sketch_bits = 0,
      std::optional<CoverageSketchIndex>* sketch = nullptr);

  // Number of source ranges a cold build over `n` nodes at `theta` draws
  // its samples in: a function of (n, theta) only, one for a small graph.
  static size_t NumStageOneRanges(size_t n, uint32_t theta);

  uint32_t max_rank() const { return max_rank_; }

  // v's stored (community, rank) pairs along its ancestor chain, deepest
  // first (only ancestors where v's rank < max_rank appear).
  std::span<const Entry> RanksOf(NodeId v) const {
    COD_DCHECK(v + 1 < offsets_.size());
    return {entries_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  // Algorithm 3, lines 1-2: the largest community that (a) contains
  // `c_ell` (ancestor-or-equal on q's chain) and (b) has q in its top-k.
  // Returns nullptr if none qualifies. Requires k <= max_rank().
  const Entry* FindTopKAncestor(NodeId q, CommunityId c_ell, uint32_t k,
                                const Dendrogram& dendrogram) const;

  size_t NumEntries() const { return entries_.size(); }
  size_t NumNodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t MemoryBytes() const {
    return entries_.size() * sizeof(Entry) + offsets_.size() * sizeof(size_t);
  }

  // Payload codec, embedded in the checksummed epoch snapshot container
  // (storage/epoch_snapshot.h): max_rank, then the offsets (u64) and the
  // entries as aligned arrays (common/binary_io.h), which Deserialize
  // adopts in place. A decoded index is only valid together with the
  // dendrogram it was built over, which the snapshot carries too
  // (EngineCore::FromPrebuilt checks every entry against it). Deserialize
  // validates structure: corrupt bytes produce a Status, never an index
  // with out-of-range offsets.
  void SerializeTo(BinaryBufferWriter& out) const;
  static Result<HimorIndex> Deserialize(BinarySpanReader& in);

 private:
  // Stage-1 output in community-major CSR form: bucket c's aggregated
  // (node, count) items live at [item_begin[c], item_begin[c + 1]).
  struct BucketTable {
    std::vector<size_t> item_begin;  // num_vertices + 1
    std::vector<NodeId> node;
    std::vector<uint32_t> count;
  };

  // Aggregates raw (community, node) tag pairs into the CSR bucket table
  // (counting sort by community, then per-segment dedup with node stamps).
  // The parts are read in order, as one concatenated pair list.
  static BucketTable BuildBuckets(
      std::span<const std::vector<std::pair<CommunityId, NodeId>>> parts,
      size_t num_vertices, size_t num_nodes);

  // Stage 2 (bottom-up bucket merging). When `comp_size_of_node` is
  // non-null, only pure communities (see BuildDelta) are materialized into
  // per-node entries. `items_of(c, emit)` supplies the aggregated bucket
  // items of non-leaf community c in any order: a BucketTable's, or the
  // incremental path's fingerprint-keyed rows. A non-null `sketch`
  // observes every community's bucket run, merged run, and (for
  // materialized communities) member counts — the coverage-sketch build
  // rides stage 2 instead of re-walking anything.
  template <typename ItemsOf>
  static HimorIndex BuildFromItems(
      const Dendrogram& dendrogram, uint32_t max_rank, ItemsOf&& items_of,
      const std::vector<uint32_t>* comp_size_of_node,
      CoverageSketchBuilder* sketch = nullptr);

  uint32_t max_rank_ = 0;
  SharedArray<size_t> offsets_;  // per node, into entries_
  SharedArray<Entry> entries_;
};

}  // namespace cod

#endif  // COD_CORE_HIMOR_H_

// EngineCore: the immutable, shareable heart of the COD serving stack.
//
// Everything a query READS lives here — graph, attribute table, diffusion
// model, non-attributed base dendrogram, its LCA index, and the optional
// HIMOR index — and every query method is const. Everything a query WRITES
// (RR-sampling scratch, chain/eval buffers, the RNG) lives in a
// QueryWorkspace the caller passes in, so N threads answer queries
// concurrently against one core with one workspace each:
//
//     shared_ptr<const EngineCore> core = ...;   // built once per epoch
//     QueryWorkspace ws(*core, seed);            // one per thread, reusable
//     CodResult r = core->QueryCodL(q, attr, k, ws);
//
// The only mutable member is the optional CODR hierarchy cache: a bounded
// (LRU-evicting) per-attribute dendrogram cache with SINGLE-FLIGHT misses —
// concurrent first-touch queries for the same attribute elect one builder
// and the rest wait on its result instead of each running a redundant
// GlobalRecluster. Deterministic clustering means every waiter reads the
// same dendrogram a private build would have produced.
//
// Index-absent (degraded) mode: a core normally requires its HIMOR index
// for CODL / indexed-CODU. When an epoch's budgeted index build fails, the
// serving stack can still publish the core after MarkIndexAbsent(): CODL
// then answers through the compressed-evaluation fallback over the LORE
// chain (the Algorithm-3 slow path, extended with the global ancestors —
// i.e. the CODL- computation) and indexed CODU falls back to sampled CODU;
// both results are tagged degraded. Queries on a core that simply never
// built an index still fail fast (programming error), so the degraded mode
// is explicit, never accidental.
//
// Construction-time mutation: TryBuildHimorDelta / TryBuildHimor /
// MarkIndexAbsent are setup steps. They must happen-before the core is
// shared across threads (publish the shared_ptr only after setup), exactly
// like filling a const object before handing out references.
//
// Ownership: the owning constructor shares the graph/attribute table (the
// serving path — epochs share the attribute table, the graph dies with the
// core); the reference constructor aliases caller-owned data that must
// outlive the core (tests, benches, one-shot tools).

#ifndef COD_CORE_ENGINE_CORE_H_
#define COD_CORE_ENGINE_CORE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cod_chain.h"
#include "core/global_recluster.h"
#include "core/himor.h"
#include "core/lore.h"
#include "core/query_stats.h"
#include "graph/attributes.h"
#include "hierarchy/agglomerative.h"
#include "hierarchy/lca.h"
#include "influence/cascade_model.h"

namespace cod {

class QueryWorkspace;

struct EngineOptions {
  uint32_t k = 5;          // default top-k requirement
  uint32_t theta = 10;     // RR graphs per source node
  // The g_l transform (see core/global_recluster.h): how the query
  // attribute reshapes edge weights before (re)clustering.
  TransformOptions transform;
  DiffusionKind diffusion = DiffusionKind::kIndependentCascade;
  // Largest k the HIMOR index can answer (ranks >= this are not stored;
  // see HimorIndex::BuildDelta). FromPrebuilt refuses an index built with
  // a smaller max_rank.
  uint32_t himor_max_rank = 16;
  // Reuse CODR hierarchies across queries with the same attribute (results
  // are identical; only timing changes — keep false for runtime benches).
  // The cache is mutex-guarded, so concurrent CODR queries are safe.
  bool cache_codr_hierarchies = false;
  // Cached dendrograms retained before LRU eviction kicks in (0 =
  // unbounded). A dendrogram costs O(n) nodes, so a high-cardinality
  // attribute sweep against an uncapped cache is a slow memory leak.
  size_t codr_cache_capacity = 64;
  // Component-scoped mode (the sharded serving tier, src/serving/): every
  // query is answered as if q's connected component were the whole graph.
  // Ancestor chains are truncated at the component subtree, LORE depth
  // weights are measured relative to it, and the HIMOR index is built with
  // component-pure materialization (HimorIndex::BuildDelta's
  // comp_size_of_node). The payoff: a query's answer is a pure
  // function of its component's subgraph — bit-identical no matter which
  // other components share the engine — which is what makes sharded
  // scatter/gather results independent of the shard count. On a connected
  // graph the truncation is a no-op (the component subtree IS the root).
  // Queries on singleton components short-circuit to a definitive
  // found=false. Off by default: mono serving keeps the historical
  // whole-graph chains (root included even across components).
  bool component_scoped = false;
  // Coverage-sketch index (influence/coverage_sketch.h): log2 of the
  // bottom-k signature capacity. 0 (default) disables the sketch entirely;
  // otherwise every HIMOR build co-builds a CoverageSketchIndex in the same
  // merge pass, enabling sketch_prune and sketch_rung below. Memory is
  // O(2^sketch_bits) u64 per materialized community plus the exact
  // threshold/top-count tables; 6-8 bits is plenty for pruning (the prune
  // bound uses only the EXACT tables, so sketch_bits sizes the approximate
  // rung's accuracy, not prune correctness).
  uint32_t sketch_bits = 0;
  // Answer-preserving pruning of exact HIMOR-schedule evaluations: levels
  // whose sketch thresholds prove rank >= k are skipped (sources unsampled,
  // occurrence lists unscanned) with bit-identical results — see
  // SketchPruneGuide in core/compressed_eval.h for the argument. Latency
  // knob only; excluded from the service fingerprint.
  bool sketch_prune = true;
  // Enables the CODSKETCH degradation rung (core/query_batch.h): a
  // zero-sampling, index-only approximate answer from the sketch tables,
  // always tagged degraded. Latency/availability knob only; excluded from
  // the service fingerprint.
  bool sketch_rung = true;
};

// The COD variants the serving stack can run (paper Sec. V-A), ordered by
// paper naming, not cost; see core/query_batch.h for the cost-ordered
// degradation ladder.
enum class CodVariant : uint8_t {
  kCodU,
  kCodR,
  kCodLMinus,
  kCodL,         // requires the core's HIMOR index
  kCodUIndexed,  // requires the core's HIMOR index
  // Approximate index-only answer from the coverage sketch (requires
  // sketch() and k <= sketch rank depth): the largest base-hierarchy
  // community whose sketch tables estimate q inside the top-k. Zero
  // sampling, O(dep(q)); ALWAYS tagged degraded — it is the bottom rung of
  // the degradation ladder, never an exact variant.
  kCodSketch
};

// Lower-case label value used for per-variant metrics (e.g.
// cod_query_latency_seconds{variant="codl"}).
const char* CodVariantName(CodVariant variant);

// One COD query, fully described: the canonical input of
// EngineCore::Query. The QueryCodX convenience overloads and the batch API
// (core/query_batch.h) all funnel into this.
struct QuerySpec {
  CodVariant variant = CodVariant::kCodL;
  NodeId node = kInvalidNode;
  // 0 means "use the engine default" (EngineOptions::k).
  uint32_t k = 0;
  // Query topic set; ignored by kCodU / kCodUIndexed. A single element uses
  // the single-attribute paths (including the CODR hierarchy cache).
  std::vector<AttributeId> attrs;
  // Per-query wall-clock budget in seconds, honored by the batch API only;
  // 0 means "use the batch default" (BatchOptions::default_budget_seconds).
  // Direct EngineCore::Query calls use the workspace budget instead.
  double budget_seconds = 0.0;
  // Intra-query parallel RR sampling: effective only when the workspace has
  // a sampling pool (QueryWorkspace::SetSamplingPool); on by default then.
  // Results are bit-identical either way — this is a latency knob only.
  bool parallel_sampling = true;
};

struct CodResult {
  bool found = false;
  std::vector<NodeId> members;  // the characteristic community C*(q)
  uint32_t rank = 0;            // q's estimated rank in C*(q) (0-based)
  size_t num_levels = 0;        // |H_l(q)| levels examined
  bool answered_from_index = false;  // CODL: resolved by HIMOR alone
  // Failure taxonomy (DESIGN.md): kOk is a COMPLETE answer (found may still
  // be false — "no characteristic community" is a definitive result);
  // kTimeout / kCancelled mean the workspace budget ran out first and
  // found/members/rank are unset. Direct EngineCore queries only ever
  // return the requested variant; the batch API's degradation ladder may
  // serve a cheaper one, recorded in variant_served with degraded = true.
  StatusCode code = StatusCode::kOk;
  bool degraded = false;
  CodVariant variant_served = CodVariant::kCodU;
  // Ladder rung the served answer came from (0 = the requested variant);
  // only the batch API's degradation ladder sets values > 0.
  uint8_t ladder_rung = 0;
  // Per-stage timings and sampling counts for THIS query (copied out of the
  // workspace accumulator by EngineCore::Query). Excluded from result
  // equality in tests — instrumentation, not an answer.
  QueryStats stats;
};

// A LORE-spliced chain plus provenance.
struct LoreChain {
  CodChain chain;
  CommunityId c_ell = kInvalidCommunity;
  size_t local_levels = 0;  // chain positions below (and incl.) C_ell
};

// Full instrumentation of one CODL query: which community LORE chose and
// why (the whole score profile), whether HIMOR answered, and the final
// result. For debugging, demos, and the hierarchy explorer.
struct QueryExplanation {
  LoreScores scores;
  uint32_t c_ell_size = 0;
  bool index_hit = false;
  CommunityId index_community = kInvalidCommunity;
  uint32_t index_rank = 0;
  CodResult result;

  // Human-readable multi-line report.
  std::string ToString(const Dendrogram& hierarchy) const;
};

// One hit of the reverse (promoter) search; see FindTopPromoters.
struct Promoter {
  NodeId node;
  CommunityId community;
  uint32_t size;
  uint32_t rank;
};

class EngineCore {
 public:
  // Owning constructor: the core keeps the graph and attribute table alive.
  EngineCore(std::shared_ptr<const Graph> graph,
             std::shared_ptr<const AttributeTable> attrs,
             const EngineOptions& options);
  // Aliasing constructor: `graph` and `attrs` must outlive the core.
  EngineCore(const Graph& graph, const AttributeTable& attrs,
             const EngineOptions& options);

  // Warm-restart factory (storage/epoch_snapshot.h): reassembles a core
  // from persisted parts, skipping the expensive AgglomerativeCluster pass —
  // the base hierarchy comes in prebuilt, and the HIMOR index (or the
  // explicit index-absent degraded marker) with it. The diffusion model and
  // LCA index are recomputed (both cheap and deterministic functions of the
  // graph / hierarchy), so a core restored from a snapshot answers queries
  // bit-identically to the one that wrote it. Fails with InvalidArgument
  // when the parts disagree (node counts, leaf counts, an index max_rank
  // below options.himor_max_rank, an index entry naming a community outside
  // the hierarchy) instead of CHECK-crashing: snapshot bytes are hostile
  // input.
  // `sketch` restores the coverage-sketch index persisted alongside the
  // HIMOR index (snapshot section kSketch); it requires `himor` to be
  // present and is validated against the graph/hierarchy shape. A missing
  // sketch is never an error — the core just serves without pruning or the
  // sketch rung (sketch loss degrades latency, not answers).
  // `global_ids` (null for a core over the whole graph) places a compact
  // shard's nodes in the whole graph; it must cover exactly the graph's
  // nodes, strictly ascending (ValidateGlobalIds). An empty graph is legal
  // (an empty shard: no node to query); a one-node graph only when the core
  // is component-scoped, which answers a singleton without the hierarchy.
  static Result<std::unique_ptr<EngineCore>> FromPrebuilt(
      std::shared_ptr<const Graph> graph,
      std::shared_ptr<const AttributeTable> attrs,
      const EngineOptions& options, Dendrogram base_hierarchy,
      std::optional<HimorIndex> himor,
      std::optional<CoverageSketchIndex> sketch, bool index_absent_degraded,
      std::shared_ptr<const GlobalIds> global_ids = nullptr);

  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  const Graph& graph() const { return *graph_; }
  const AttributeTable& attributes() const { return *attrs_; }
  const DiffusionModel& model() const { return model_; }
  const Dendrogram& base_hierarchy() const { return base_; }
  const LcaIndex& base_lca() const { return lca_; }
  const EngineOptions& options() const { return options_; }
  // Where this core's nodes sit in the whole graph when it serves a compact
  // shard (serving/partition.h); null for a core over the whole graph.
  // Queries speak local ids; the ids only key the node-keyed random
  // schedules (HIMOR stage 1 and its delta resample, the query-time RR
  // pools, sketch ranks), so a shard answers bit-identically to a
  // whole-graph component-scoped core.
  const std::shared_ptr<const GlobalIds>& global_ids() const {
    return global_ids_;
  }
  // global_ids()->global, or empty (the identity) without a map: the keys
  // NodeKey reads.
  std::span<const NodeId> node_keys() const {
    if (global_ids_ == nullptr) return {};
    return global_ids_->global;
  }

  // ---- Chain builders (exposed for benches and tests). ----
  CodChain BuildCoduChain(NodeId q) const;
  CodChain BuildCodrChain(NodeId q, AttributeId attr) const;
  LoreChain BuildCodlChain(NodeId q, AttributeId attr) const;
  LoreChain BuildCodlChain(NodeId q,
                           std::span<const AttributeId> attrs) const;

  // ---- The canonical query entry point. Dispatches on spec.variant,
  // resolves spec.k == 0 to the engine default, resets and fills the
  // workspace's QueryStats (copied onto the result), and records
  // per-variant latency / outcome / stage metrics in the process-wide
  // MetricsRegistry — the ONE place queries are tagged. spec.budget_seconds
  // is ignored here (that field belongs to the batch API); the effective
  // budget is ws.budget().
  //
  // Budget discipline: every variant honors ws.budget() — the LORE edge
  // scan, RR sampling, and the agglomerative (re)clustering passes all poll
  // it and unwind with result.code set to kTimeout / kCancelled.
  CodResult Query(const QuerySpec& spec, QueryWorkspace& ws) const;

  // ---- Query variants: thin wrappers over Query(). Each attributed
  // variant also accepts a topic SET (an edge counts as query-attributed
  // when both endpoints carry at least one of the attributes). All use `ws`
  // for scratch and randomness; the workspace must be bound to this core
  // (QueryWorkspace ctor / Rebind). ----
  CodResult QueryCodU(NodeId q, uint32_t k, QueryWorkspace& ws) const;
  CodResult QueryCodR(NodeId q, AttributeId attr, uint32_t k,
                      QueryWorkspace& ws) const;
  CodResult QueryCodR(NodeId q, std::span<const AttributeId> attrs,
                      uint32_t k, QueryWorkspace& ws) const;
  CodResult QueryCodLMinus(NodeId q, AttributeId attr, uint32_t k,
                           QueryWorkspace& ws) const;
  CodResult QueryCodLMinus(NodeId q, std::span<const AttributeId> attrs,
                           uint32_t k, QueryWorkspace& ws) const;
  // Index-only CODU: the largest base-hierarchy community where q is top-k,
  // answered entirely from HIMOR in O(dep(q)) — no sampling at query time.
  // Requires himor() and k <= options().himor_max_rank. This workspace-free
  // form bypasses Query() and records no metrics or stats; route through
  // Query({kCodUIndexed, ...}, ws) to get both.
  CodResult QueryCodUIndexed(NodeId q, uint32_t k) const;

  // Require himor() (TryBuildHimor during setup, or FromPrebuilt) — unless
  // the core was published index-absent (MarkIndexAbsent), in which case
  // CODL serves the CODL- computation tagged degraded.
  CodResult QueryCodL(NodeId q, AttributeId attr, uint32_t k,
                      QueryWorkspace& ws) const;
  CodResult QueryCodL(NodeId q, std::span<const AttributeId> attrs,
                      uint32_t k, QueryWorkspace& ws) const;

  QueryExplanation ExplainCodL(NodeId q, AttributeId attr, uint32_t k,
                               QueryWorkspace& ws) const;

  // Reverse (promoter) search: which attribute holders have the LARGEST
  // characteristic communities in the base hierarchy? Answered entirely
  // from HIMOR (O(sum depth) scan). Requires himor().
  std::vector<Promoter> FindTopPromoters(AttributeId attr, size_t count,
                                         uint32_t k) const;

  // Evaluates an externally built chain with the workspace's evaluator.
  CodResult EvaluateChain(const CodChain& chain, NodeId q, uint32_t k,
                          QueryWorkspace& ws) const;

  // ---- Setup-time mutators: must happen-before sharing the core. ----
  // Builds (or rebuilds) the HIMOR index over the base hierarchy, plus the
  // coverage sketch when options().sketch_bits > 0, on the counter-seeded
  // per-sample schedule (see HimorIndex::BuildDelta); honors
  // options_.component_scoped. With a valid `prev` cache plus the
  // dirty-vertex bitmap, only samples touching dirty vertices are redrawn;
  // with prev == nullptr this is the cold build. A non-null `next` receives
  // the carry state for the following epoch (on success the build consumes
  // prev's bucket-row carry, moved into next); with next == nullptr no
  // carry is recorded. A build that runs out of budget (or hits the
  // "himor/build" failpoint) returns the error and leaves any previously
  // built index untouched. A non-null `scheduler` runs a cold build's
  // stage-1 source ranges on it, the calling thread included; the bytes
  // built do not depend on it.
  Status TryBuildHimorDelta(uint64_t seed, const Budget& budget,
                            const std::vector<char>* dirty,
                            HimorSampleCache* prev,
                            HimorSampleCache* next, HimorDeltaStats* stats,
                            TaskScheduler* scheduler = nullptr);
  // The cold build without carry: TryBuildHimorDelta with null
  // dirty/prev/next/stats.
  Status TryBuildHimor(uint64_t seed, const Budget& budget = {});
  // Declares that this core intentionally serves WITHOUT a HIMOR index (the
  // budgeted build failed and the epoch is being published degraded). CODL
  // then answers via the CODL- computation (local recluster + spliced
  // global ancestors + compressed evaluation) and kCodUIndexed via sampled
  // CODU, both tagged degraded. Setup-time mutator, like TryBuildHimor.
  void MarkIndexAbsent();

  const HimorIndex* himor() const {
    return himor_.has_value() ? &*himor_ : nullptr;
  }
  // Coverage-sketch index co-built with the HIMOR index when
  // options().sketch_bits > 0 (null otherwise, including when the
  // "influence/sketch_build" failpoint dropped it — the index itself still
  // builds). Non-null implies himor() is non-null.
  const CoverageSketchIndex* sketch() const {
    return sketch_.has_value() ? &*sketch_ : nullptr;
  }
  // True when the HIMOR index exists; false only on cores published in the
  // explicit index-absent degraded mode (see MarkIndexAbsent).
  bool index_present() const { return himor_.has_value(); }
  bool index_absent_degraded() const { return index_absent_degraded_; }

  // Test/ops hook: cached CODR dendrograms currently resident.
  size_t CodrCacheSize() const;

 private:
  // Constructor behind FromPrebuilt: adopts the hierarchy instead of
  // clustering. The tag keeps it out of overload resolution.
  struct PrebuiltTag {};
  EngineCore(PrebuiltTag, std::shared_ptr<const Graph> graph,
             std::shared_ptr<const AttributeTable> attrs,
             const EngineOptions& options, Dendrogram base_hierarchy);

  // q's chain inside C_ell = `c_ell`, reclustered locally with attribute
  // weights (node ids mapped back to the graph); the slow path of both
  // CODL and CODL-. The clustering pass polls `budget` and unwinds with
  // kTimeout/kCancelled.
  Result<CodChain> BuildLocalChain(NodeId q, CommunityId c_ell,
                                   std::span<const AttributeId> attrs,
                                   const Budget& budget) const;
  // Algorithm 3, lines 1-2: when some ancestor of `c_ell` has q in its
  // top-k, fills *result with that community (answered from the index,
  // `num_levels` = the LORE chain length consulted) and returns the index
  // entry; returns nullptr on a miss. Requires himor().
  const HimorIndex::Entry* ProbeIndex(NodeId q, CommunityId c_ell, uint32_t k,
                                      size_t num_levels,
                                      CodResult* result) const;
  // The LORE splice of BuildCodlChain after the scores are known; shared by
  // the budgeted query paths, which compute scores themselves. The local
  // reclustering pass polls `budget` and unwinds with kTimeout/kCancelled.
  Result<LoreChain> BuildCodlChainFromScores(
      const LoreScores& scores, NodeId q, std::span<const AttributeId> attrs,
      const Budget& budget) const;

  // ---- Variant implementations behind Query()'s dispatch. These fill
  // ws.stats() stage-by-stage; Query() owns the metrics tagging. ----
  CodResult DoCodU(NodeId q, uint32_t k, QueryWorkspace& ws) const;
  CodResult DoCodR(NodeId q, std::span<const AttributeId> attrs, uint32_t k,
                   QueryWorkspace& ws) const;
  CodResult DoCodLMinus(NodeId q, std::span<const AttributeId> attrs,
                        uint32_t k, QueryWorkspace& ws) const;
  CodResult DoCodL(NodeId q, std::span<const AttributeId> attrs, uint32_t k,
                   QueryWorkspace& ws) const;
  CodResult DoCodUIndexed(NodeId q, uint32_t k) const;
  CodResult DoCodSketch(NodeId q, uint32_t k) const;

  // The CODR cache lookup-or-build: returns the attribute's dendrogram,
  // electing this thread as the single-flight builder on a cold miss (the
  // "engine_core/codr_cache" failpoint fires inside the builder, before the
  // GlobalRecluster). Waiters honor `budget`'s deadline while the builder
  // runs. `*served_from_cache` reports whether the dendrogram was obtained
  // without this thread building it.
  Result<std::shared_ptr<const Dendrogram>> CodrDendrogramFor(
      AttributeId attr, const Budget& budget, bool* served_from_cache) const;

  // Component-scoped helpers (no-ops unless options_.component_scoped).
  // ScopeTopFor: the topmost ancestor of q in `dendrogram` that still fits
  // inside q's connected component — the component subtree root (== the
  // dendrogram root on connected graphs). Returns kInvalidCommunity when
  // scoping is off, i.e. "chain runs to the root" for every caller.
  CommunityId ScopeTopFor(const Dendrogram& dendrogram, NodeId q) const;
  // True when q is alone in its component: no edges, no influence, no
  // community — Query answers kOk/found=false without touching evaluators.
  bool IsSingletonComponent(NodeId q) const {
    return options_.component_scoped && comp_size_of_node_[q] <= 1;
  }

  // Drops least-recently-used READY entries until the cache fits
  // options_.codr_cache_capacity; in-flight builds are never evicted.
  // Requires codr_mu_ held.
  void EvictCodrOverflowLocked() const;

  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const AttributeTable> attrs_;
  EngineOptions options_;
  DiffusionModel model_;
  Dendrogram base_;
  LcaIndex lca_;
  std::optional<HimorIndex> himor_;
  std::optional<CoverageSketchIndex> sketch_;
  bool index_absent_degraded_ = false;
  std::shared_ptr<const GlobalIds> global_ids_;
  // Per-node connected-component sizes, filled only when
  // options_.component_scoped (empty otherwise).
  std::vector<uint32_t> comp_size_of_node_;

  // CODR per-attribute hierarchy cache (options_.cache_codr_hierarchies):
  // bounded LRU, single-flight misses. `dendrogram == nullptr` marks an
  // in-flight build; waiters sleep on codr_cv_ (one cv for the whole cache —
  // builds are rare and the thundering herd is exactly the set of waiters
  // that need to wake). shared_ptr values let readers drop the lock before
  // walking a dendrogram, and keep an evicted-but-in-use dendrogram alive.
  struct CodrCacheEntry {
    std::shared_ptr<const Dendrogram> dendrogram;  // null while building
    uint64_t last_used = 0;                        // LRU tick
  };
  mutable std::mutex codr_mu_;
  mutable std::condition_variable codr_cv_;
  mutable std::unordered_map<AttributeId, CodrCacheEntry> codr_cache_;
  mutable uint64_t codr_lru_tick_ = 0;
};

}  // namespace cod

#endif  // COD_CORE_ENGINE_CORE_H_

// ShardedCodService: N component-scoped DynamicCodService shard engines
// behind a deterministic scatter/gather router — the sharded
// implementation of CodServiceInterface.
//
// Layout: the input graph is partitioned COMPONENT-ATOMICALLY
// (serving/partition.h) into num_shards subgraphs. Each shard holds only
// its own nodes, relabelled 0..k-1 in ascending global order (compact
// ids), with their edges and attribute rows, so it clusters, samples and
// stores k nodes, not the whole graph. Every shard engine runs with
// EngineOptions::component_scoped forced on, and keys every node-keyed
// random schedule by global id (EngineCore::global_ids), so a query's
// answer is a pure function of its component's subgraph — which is what
// makes the router's merged results bit-identical across 1, 2, or 4
// shards (and across worker counts): the layout decides WHERE a query
// runs, never WHAT it answers.
//
// The router speaks global ids: it renames QuerySpec::node and update
// endpoints into the owning shard's local ids, and answer members back
// (the map is monotone, so member order is kept).
//
// Scatter/gather (RunShardedQueryBatch, core/query_batch.h): a QueryBatch
// is routed per shard by the partition, fanned as interactive-priority
// chunks into ONE task group — no cross-shard barrier, so a shard stalled
// in a rebuild or a slow query never delays another shard's start — and
// gathered back into spec order. Query i keeps BatchQuerySeed(batch_seed,
// i) from its ORIGINAL batch position regardless of routing.
//
// Shard-aware degradation: a query whose deadline dies on its shard comes
// back as a degraded non-answer (kOk, found = false, degraded = true)
// rather than an error — the batch answers from the shards that made the
// deadline and tags the rest (BatchStats::shard_missed). The
// "serving/shard_deadline" failpoint fails a whole shard's slice
// deterministically for tests.
//
// Rebuilds, epochs, and durability are PER SHARD: each engine publishes
// its own epoch stream, retries its own failures, and snapshots into its
// own "shard-%04d" subdirectory with independent retention and corruption
// quarantine. Recover() warm-restores every shard that has a usable
// snapshot and cold-rebuilds (from the caller's graph) any shard whose
// snapshots are missing or exhausted by corruption — one shard's bad disk
// never costs the others their warm restart. A fingerprint mismatch
// (different engine parameters, seed, or shard layout) refuses recovery
// outright: those snapshots would answer differently. So does a shard
// snapshot whose stored id map is not the recomputed partition's slice
// (another partition, or a full-id shard of an older layout).

#ifndef COD_SERVING_SHARDED_SERVICE_H_
#define COD_SERVING_SHARDED_SERVICE_H_

#include <memory>
#include <vector>

#include "serving/dynamic_service.h"
#include "serving/partition.h"
#include "serving/service_interface.h"

namespace cod {

class ShardedCodService : public CodServiceInterface {
 public:
  // Partitions `initial_graph` and builds every shard's first epoch
  // synchronously (CHECK-fails on a first-build error, like the mono
  // service). With options.scheduler set, the shard builds fan out on it
  // (ForEachIndex: rebuild-priority helpers, and the calling thread builds
  // shards too), so an armed count-limited failpoint fires on a
  // scheduling-dependent shard; without, in shard order.
  // `options` must Validate(); engine.component_scoped is forced on for the
  // shard engines regardless of its incoming value. Each shard keeps its own
  // nodes' attribute rows, with every attribute name interned under the
  // same id.
  ShardedCodService(Graph initial_graph, AttributeTable attrs,
                    const ServiceOptions& options);

  // Warm restart from the per-shard snapshot layout under
  // options.snapshot_dir (base/shard-%04d). `cold_graph` / `cold_attrs`
  // are the fallback source of truth: any shard whose snapshots are
  // missing or all corrupt (kNotFound after quarantine) is cold-rebuilt
  // from its partition slice while the other shards warm-restore — per-
  // shard epochs mean a mixed restart is fully consistent. Other errors
  // (kFailedPrecondition fingerprint mismatch, I/O errors) fail the whole
  // recovery before any shard is cold-rebuilt; the first failing shard in
  // shard order names the error; a shard snapshot holding another node set
  // than the recomputed partition gives that shard (its id map differs) is
  // kFailedPrecondition too. Snapshot loads, then cold rebuilds, fan
  // out on options.scheduler like the constructor's builds. Every shard
  // loads before the refusal is decided, so a refused recovery writes no
  // snapshot but may already have quarantined corrupt files in any shard.
  // With a scheduler, a count-limited failpoint fires on whichever shard
  // gets there first; arm one only for an unscheduled Recover. An empty
  // snapshot_dir is kInvalidArgument. The
  // caller must pass the graph the service was originally built from (plus
  // the updates it wants replayed); the partition is recomputed from it
  // deterministically.
  static Result<std::unique_ptr<ShardedCodService>> Recover(
      const ServiceOptions& options, Graph cold_graph,
      AttributeTable cold_attrs);

  ~ShardedCodService() override = default;

  // ---- CodServiceInterface ----

  // Same-shard edges delegate to the owning engine. An edge whose
  // endpoints live on DIFFERENT shards is rejected (returns false and
  // counts cod_shard_cross_edge_rejected_total): the partition is fixed at
  // construction, and silently dropping the edge into one shard would
  // break the component-scoped answer contract. Re-shard by rebuilding the
  // service to admit such edges.
  bool AddEdge(NodeId u, NodeId v, double weight = 1.0) override;
  bool RemoveEdge(NodeId u, NodeId v) override;

  size_t pending_updates() const override;  // sum over shards
  uint64_t epoch() const override;          // MIN over shards (freshness floor)
  bool epoch_degraded() const override;     // any shard degraded
  size_t NumEdges() const override;         // sum over shards
  RebuildStats rebuild_stats() const override;  // field-wise sum
  bool RefreshDue() const override;             // any shard due

  // Refreshes EVERY shard, continuing past failures (a failed shard keeps
  // serving its last good epoch); returns the first error encountered.
  Status Refresh() override;
  // Schedules a rebuild on every shard that does not already have one in
  // flight; true if any was scheduled.
  bool RefreshAsync() override;
  void WaitForRebuild() override;

  // Routed to the shard that owns q's component.
  CodResult QueryCodL(NodeId q, AttributeId attr, uint32_t k,
                      Rng& rng) override;
  CodResult QueryCodU(NodeId q, uint32_t k, Rng& rng) override;

  // The scatter/gather path: snapshots one epoch per shard, routes specs
  // by the partition, and runs RunShardedQueryBatch (determinism and
  // degradation contract documented there and above).
  using CodServiceInterface::QueryBatch;
  std::vector<CodResult> QueryBatch(std::span<const QuerySpec> specs,
                                    TaskScheduler& scheduler,
                                    uint64_t batch_seed,
                                    const BatchOptions& options,
                                    BatchStats* stats) const override;

  // ---- Sharded-only surface (introspection / test hooks) ----
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  const GraphPartition& partition() const { return partition_; }
  uint32_t ShardOf(NodeId v) const { return partition_.shard_of_node[v]; }
  DynamicCodService& shard(uint32_t s) { return *shards_[s]; }
  const DynamicCodService& shard(uint32_t s) const { return *shards_[s]; }

  // The per-shard options `shard` runs with: component_scoped forced on,
  // snapshot_dir rebased to "<base>/shard-%04u". Exposed so recovery tests
  // can write/damage exactly what the service would read.
  static ServiceOptions ShardOptions(const ServiceOptions& base,
                                     uint32_t shard);
  // The "shard-%04u" subdirectory name for `shard` ("" when `base` is "").
  static std::string ShardSnapshotDir(const std::string& base,
                                      uint32_t shard);

 private:
  ShardedCodService(const ServiceOptions& options, GraphPartition partition,
                    std::vector<std::unique_ptr<DynamicCodService>> shards);

  // Shard `shard`'s cold-built engine: its compact graph, attribute rows and
  // id map cut from the whole graph by `partition`.
  static std::unique_ptr<DynamicCodService> BuildShard(
      const Graph& graph, const AttributeTable& attrs,
      const GraphPartition& partition, const ServiceOptions& options,
      uint32_t shard);
  // The id map a shard built from `partition` carries (and snapshots).
  static std::shared_ptr<const GlobalIds> ShardGlobalIds(
      const GraphPartition& partition, uint32_t shard);
  // Renames a shard's answer back into global ids.
  void MembersToGlobal(uint32_t shard, CodResult& result) const;

  ServiceOptions options_;
  GraphPartition partition_;
  std::vector<std::unique_ptr<DynamicCodService>> shards_;
};

}  // namespace cod

#endif  // COD_SERVING_SHARDED_SERVICE_H_

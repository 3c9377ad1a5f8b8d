#include "serving/sharded_service.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "common/metrics.h"

namespace cod {
namespace {

Counter& CrossEdgeRejected() {
  static Counter* counter = MetricsRegistry::Instance().GetCounter(
      "cod_shard_cross_edge_rejected_total");
  return *counter;
}

}  // namespace

std::string ShardedCodService::ShardSnapshotDir(const std::string& base,
                                                uint32_t shard) {
  if (base.empty()) return "";
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), "shard-%04u", shard);
  return base + "/" + suffix;
}

ServiceOptions ShardedCodService::ShardOptions(const ServiceOptions& base,
                                               uint32_t shard) {
  ServiceOptions opts = base;
  // Component scoping is what detaches a query's answer from the shard
  // layout; the fingerprint keeps the SHARDED layout (num_shards,
  // partitioner), so every shard's snapshots carry the same fingerprint
  // and a mono snapshot can never warm-restore into a shard.
  opts.engine.component_scoped = true;
  opts.snapshot_dir = ShardSnapshotDir(base.snapshot_dir, shard);
  return opts;
}

ShardedCodService::ShardedCodService(
    const ServiceOptions& options, GraphPartition partition,
    std::vector<std::unique_ptr<DynamicCodService>> shards)
    : options_(options),
      partition_(std::move(partition)),
      shards_(std::move(shards)) {
  COD_CHECK_EQ(shards_.size(), partition_.num_shards);
}

std::unique_ptr<DynamicCodService> ShardedCodService::BuildShard(
    const Graph& graph, const AttributeTable& attrs,
    const GraphPartition& partition, const ServiceOptions& options,
    uint32_t shard) {
  return std::make_unique<DynamicCodService>(
      BuildShardGraph(graph, partition, shard),
      std::make_shared<const AttributeTable>(
          SubsetAttributes(attrs, partition.global_of_local[shard])),
      ShardOptions(options, shard), ShardGlobalIds(partition, shard));
}

std::shared_ptr<const GlobalIds> ShardedCodService::ShardGlobalIds(
    const GraphPartition& partition, uint32_t shard) {
  return std::make_shared<const GlobalIds>(
      GlobalIds{partition.shard_of_node.size(),
                partition.global_of_local[shard]});
}

ShardedCodService::ShardedCodService(Graph initial_graph, AttributeTable attrs,
                                     const ServiceOptions& options)
    : ShardedCodService(options, GraphPartition{}, {}) {
  COD_CHECK(options_.Validate().ok());
  COD_CHECK_EQ(initial_graph.NumNodes(), attrs.NumNodes());
  partition_ = PartitionGraph(initial_graph, attrs, options_.num_shards,
                              options_.partitioner);
  shards_.resize(options_.num_shards);
  ForEachIndex(options_.scheduler, options_.num_shards, [&](size_t i) {
    const auto s = static_cast<uint32_t>(i);
    shards_[s] = BuildShard(initial_graph, attrs, partition_, options_, s);
  });
}

Result<std::unique_ptr<ShardedCodService>> ShardedCodService::Recover(
    const ServiceOptions& options, Graph cold_graph,
    AttributeTable cold_attrs) {
  COD_RETURN_IF_ERROR(options.Validate());
  if (options.snapshot_dir.empty()) {
    return Status::InvalidArgument("recovery needs a snapshot_dir");
  }
  COD_CHECK_EQ(cold_graph.NumNodes(), cold_attrs.NumNodes());
  GraphPartition partition = PartitionGraph(
      cold_graph, cold_attrs, options.num_shards, options.partitioner);
  std::vector<std::unique_ptr<DynamicCodService>> shards(options.num_shards);
  std::vector<Status> errors(options.num_shards);
  ForEachIndex(options.scheduler, options.num_shards, [&](size_t i) {
    const auto s = static_cast<uint32_t>(i);
    const ServiceOptions shard_options = ShardOptions(options, s);
    Result<std::unique_ptr<DynamicCodService>> recovered =
        DynamicCodService::Recover(shard_options);
    if (!recovered.ok()) {
      errors[s] = recovered.status();
      return;
    }
    // The snapshot must hold exactly this partition's slice for shard s:
    // a shard of another layout (or a whole-graph snapshot) would answer
    // for the wrong nodes.
    const std::shared_ptr<const GlobalIds>& ids =
        (*recovered)->engine().global_ids();
    if (ids == nullptr || ids->global_nodes != cold_graph.NumNodes() ||
        ids->global != partition.global_of_local[s]) {
      errors[s] = Status::FailedPrecondition(
          "snapshot in " + shard_options.snapshot_dir +
          " holds a different node set than the partition gives shard " +
          std::to_string(s));
      return;
    }
    shards[s] = std::move(recovered).value();
  });
  // Fingerprint or node-set mismatch, or an I/O failure: refuse the whole
  // recovery — the snapshots on disk do not belong to this configuration.
  // Every shard has loaded by now, so the first failing shard in shard
  // order names the error whatever the worker count, and nothing was
  // cold-built for it (the loads may have quarantined corrupt files in any
  // shard).
  for (const Status& error : errors) {
    if (!error.ok() && error.code() != StatusCode::kNotFound) return error;
  }
  // A shard with no usable snapshot (never written, or every file
  // quarantined as corrupt) cold-rebuilds from its partition slice. The
  // others keep their warm epochs — per-shard epoch streams make the mixed
  // restart consistent.
  ForEachIndex(options.scheduler, options.num_shards, [&](size_t i) {
    const auto s = static_cast<uint32_t>(i);
    if (shards[s] != nullptr) return;
    shards[s] = BuildShard(cold_graph, cold_attrs, partition, options, s);
  });
  return std::unique_ptr<ShardedCodService>(new ShardedCodService(
      options, std::move(partition), std::move(shards)));
}

bool ShardedCodService::AddEdge(NodeId u, NodeId v, double weight) {
  COD_CHECK(u < partition_.shard_of_node.size());
  COD_CHECK(v < partition_.shard_of_node.size());
  if (u == v) return false;
  if (ShardOf(u) != ShardOf(v)) {
    CrossEdgeRejected().Increment();
    return false;
  }
  return shards_[ShardOf(u)]->AddEdge(partition_.LocalOf(u),
                                      partition_.LocalOf(v), weight);
}

bool ShardedCodService::RemoveEdge(NodeId u, NodeId v) {
  COD_CHECK(u < partition_.shard_of_node.size());
  COD_CHECK(v < partition_.shard_of_node.size());
  // A cross-shard edge can never have been admitted, so there is nothing
  // to remove.
  if (ShardOf(u) != ShardOf(v)) return false;
  return shards_[ShardOf(u)]->RemoveEdge(partition_.LocalOf(u),
                                         partition_.LocalOf(v));
}

size_t ShardedCodService::pending_updates() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->pending_updates();
  return total;
}

uint64_t ShardedCodService::epoch() const {
  // The merged epoch is the freshness FLOOR across shards — but only across
  // shards that own nodes. When the graph has fewer components than shards,
  // the surplus shards are structurally empty: no update can ever route to
  // them, their epoch stays pinned at its initial value forever, and
  // including them would cap the reported epoch of the whole service at
  // that constant no matter how many rebuilds the real shards publish.
  uint64_t min_epoch = 0;
  bool any = false;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (partition_.shard_nodes[s] == 0) continue;
    const uint64_t e = shards_[s]->epoch();
    min_epoch = any ? std::min(min_epoch, e) : e;
    any = true;
  }
  // All shards empty only for a node-less partition; report shard 0 rather
  // than inventing an epoch.
  return any ? min_epoch : shards_.front()->epoch();
}

bool ShardedCodService::epoch_degraded() const {
  for (const auto& shard : shards_) {
    if (shard->epoch_degraded()) return true;
  }
  return false;
}

size_t ShardedCodService::NumEdges() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->NumEdges();
  return total;
}

RebuildStats ShardedCodService::rebuild_stats() const {
  RebuildStats total;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    // Structurally empty shards (see epoch()) never rebuild after their
    // construction-time epoch; folding that constant baseline into the
    // aggregates would skew per-shard staleness ratios derived from them.
    if (partition_.shard_nodes[i] == 0) continue;
    const RebuildStats s = shards_[i]->rebuild_stats();
    total.attempts += s.attempts;
    total.failures += s.failures;
    total.retries += s.retries;
    total.published += s.published;
    total.published_degraded += s.published_degraded;
    if (!s.last_error.ok()) total.last_error = s.last_error;
  }
  return total;
}

bool ShardedCodService::RefreshDue() const {
  for (const auto& shard : shards_) {
    if (shard->RefreshDue()) return true;
  }
  return false;
}

Status ShardedCodService::Refresh() {
  // Every shard gets its refresh even after one fails — a failed shard
  // keeps serving its last good epoch, and partial freshness beats none.
  // Serial on purpose: which shard trips an armed failpoint first must not
  // depend on scheduling.
  Status first_error;
  for (const auto& shard : shards_) {
    const Status s = shard->Refresh();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

bool ShardedCodService::RefreshAsync() {
  bool any = false;
  for (const auto& shard : shards_) any = shard->RefreshAsync() || any;
  return any;
}

void ShardedCodService::WaitForRebuild() {
  for (const auto& shard : shards_) shard->WaitForRebuild();
}

void ShardedCodService::MembersToGlobal(uint32_t shard,
                                        CodResult& result) const {
  const std::vector<NodeId>& global = partition_.global_of_local[shard];
  for (NodeId& v : result.members) v = global[v];
}

CodResult ShardedCodService::QueryCodL(NodeId q, AttributeId attr, uint32_t k,
                                       Rng& rng) {
  COD_CHECK(q < partition_.shard_of_node.size());
  CodResult result =
      shards_[ShardOf(q)]->QueryCodL(partition_.LocalOf(q), attr, k, rng);
  MembersToGlobal(ShardOf(q), result);
  return result;
}

CodResult ShardedCodService::QueryCodU(NodeId q, uint32_t k, Rng& rng) {
  COD_CHECK(q < partition_.shard_of_node.size());
  CodResult result =
      shards_[ShardOf(q)]->QueryCodU(partition_.LocalOf(q), k, rng);
  MembersToGlobal(ShardOf(q), result);
  return result;
}

std::vector<CodResult> ShardedCodService::QueryBatch(
    std::span<const QuerySpec> specs, TaskScheduler& scheduler,
    uint64_t batch_seed, const BatchOptions& options,
    BatchStats* stats) const {
  // One epoch snapshot per shard, all taken up front: the whole batch is
  // answered from one consistent layout-wide cut, and the shared_ptrs keep
  // every epoch alive however long the fan-out runs.
  std::vector<DynamicCodService::EpochSnapshot> epochs;
  epochs.reserve(shards_.size());
  std::vector<ShardBatchInput> inputs(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    epochs.push_back(shards_[s]->Snapshot());
    inputs[s].core = epochs.back().core.get();
  }
  // Shards speak compact ids: route each spec and rename its node.
  std::vector<QuerySpec> local(specs.begin(), specs.end());
  for (size_t i = 0; i < specs.size(); ++i) {
    COD_CHECK(specs[i].node < partition_.shard_of_node.size());
    inputs[ShardOf(specs[i].node)].indices.push_back(i);
    local[i].node = partition_.LocalOf(specs[i].node);
  }
  std::vector<CodResult> results = RunShardedQueryBatch(
      inputs, local, scheduler, batch_seed, options, stats);
  // The id map is monotone, so the members keep their order.
  for (size_t i = 0; i < specs.size(); ++i) {
    MembersToGlobal(ShardOf(specs[i].node), results[i]);
  }
  return results;
}

}  // namespace cod

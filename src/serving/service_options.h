// ServiceOptions: the single validated configuration object for every COD
// serving implementation (mono DynamicCodService and ShardedCodService),
// plus the answer-compatibility fingerprint that gates snapshot recovery.
//
// One struct, one Validate(), one Fingerprint(): benches, examples, and
// tests configure mono and sharded serving through exactly the same knobs,
// and a snapshot written by one layout can never warm-restore into a
// service whose answers would differ (the fingerprint covers everything
// that shapes answers, INCLUDING the sharding layout).

#ifndef COD_SERVING_SERVICE_OPTIONS_H_
#define COD_SERVING_SERVICE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/task_scheduler.h"
#include "core/engine_core.h"

namespace cod {

// How ShardedCodService assigns connected components to shards. Both
// strategies are COMPONENT-ATOMIC — a component is never split across
// shards — which is what keeps merged answers bit-identical across shard
// counts (see EngineOptions::component_scoped).
enum class PartitionStrategy : uint8_t {
  // Components sorted by (size desc, label asc), assigned greedily to the
  // currently lightest shard (ties toward the smallest shard index):
  // deterministic longest-processing-time balance on node count.
  kConnectedComponents = 0,
  // Components grouped by their dominant attribute (most frequent
  // AttributeId among member nodes, smallest id on ties) so queries about
  // one topic tend to hit one shard; groups are then balanced with the
  // same greedy rule. Falls back to pure size balance when the table has
  // no attributes.
  kAttributeLocality = 1,
};

// Everything a serving implementation needs, mono fields and sharding
// fields together. Field semantics are documented here once; the service
// classes reference this struct instead of redefining nested option types.
struct ServiceOptions {
  EngineOptions engine;

  // Rebuild when pending updates exceed this fraction of the snapshot's
  // edges (0 = rebuild on every update; large = manual Refresh only).
  double rebuild_threshold = 0.05;
  // Drives HIMOR sampling at every rebuild (rebuild ticket t samples with
  // seed + t). Shards deliberately share this seed: component-scoped HIMOR
  // builds derive per-source streams from it, so the same node samples the
  // same stream no matter which shard owns it.
  uint64_t seed = 1;

  // Build threshold-crossing rebuilds as rebuild-priority tasks on
  // `scheduler` instead of the querying thread; queries keep serving the
  // stale epoch meanwhile. Without it the service never rebuilds on its
  // own — the owner polls RefreshDue() and calls Refresh().
  bool async_rebuild = false;
  // The service's only thread pool, optional unless async_rebuild is set.
  // When present it runs: async rebuilds (rebuild priority) and their retry
  // timers (maintenance); snapshot writes (maintenance); every cold HIMOR
  // build's stage-1 source ranges (rebuild priority); and a sharded
  // service's per-shard construction and Recover() (rebuild priority, one
  // item per shard). The last two fan out through ForEachIndex, so the
  // calling thread builds ranges and shards too. Without a scheduler they
  // run on the calling thread alone. Built bytes never depend on it.
  TaskScheduler* scheduler = nullptr;

  // Failed ASYNC rebuilds retry up to this many times (so up to
  // 1 + max_rebuild_retries attempts per ticket), waiting
  // rebuild_backoff_initial_ms, then doubling up to rebuild_backoff_max_ms,
  // between attempts. The wait is a scheduler timer, not a sleep — no
  // worker is held during backoff. Synchronous Refresh() never retries —
  // the caller sees the Status and decides.
  uint32_t max_rebuild_retries = 3;
  uint32_t rebuild_backoff_initial_ms = 10;
  uint32_t rebuild_backoff_max_ms = 1000;

  // Wall-clock budget for each rebuild's HIMOR construction (0 =
  // unlimited). Bounds how long a rebuild can monopolize a pool worker; an
  // over-budget index build publishes degraded (publish_without_index)
  // rather than failing the rebuild.
  double rebuild_budget_seconds = 30.0;

  // Durable epoch snapshots (storage/snapshot_store.h). When non-empty,
  // every published epoch is serialized crash-safely to this directory and
  // pruned to `snapshots_keep` files; recovery warm-restarts from the
  // newest valid snapshot. A ShardedCodService treats this as the BASE
  // directory and gives shard i the subdirectory "shard-%04d" with its own
  // independent retention and corruption quarantine, so one shard's
  // corrupt files never cost another shard its warm restart.
  std::string snapshot_dir;
  size_t snapshots_keep = 2;

  // Incremental epoch rebuilds. Both modes run one epoch-build path on the
  // counter-seeded per-sample schedule RrSampleSeed(seed', source * theta +
  // j); the flag selects only two things. The schedule seed: seed' = seed
  // every epoch when true, Rng(seed + rebuild ticket).Next() when false.
  // The carry: when true, a rebuild after update batches reuses the
  // previous epoch's RR samples, dendrogram merges, and hierarchical-first
  // tags wherever the dirty-vertex bitmap proves them untouched (see
  // HimorIndex::BuildDelta). Delta-rebuilt epochs are bit-identical to
  // cold rebuilds on the same graph, but the seed differs from the
  // non-delta mode's per-ticket seeds, so this flag joins the fingerprint.
  bool delta_rebuild = false;
  // Fall back to a full (cold) rebuild when the fraction of cached RR
  // samples invalidated by the batch exceeds this bound. A sample dies if
  // its RR set touches ANY dirty vertex, so the service counts casualties
  // exactly with one early-exit pass over the cached slabs (~1% of a
  // rebuild). The default sits at the measured break-even on cora-sim:
  // past ~15% invalidation the reuse bookkeeping costs more than it
  // saves. Latency-only knob: both paths produce identical answers, so it
  // stays out of the options fingerprint.
  double delta_max_dirty_fraction = 0.15;

  // When the budgeted HIMOR build fails but the epoch's graph and
  // hierarchy built fine, publish the epoch anyway WITHOUT the index
  // (degraded): fresh answers via the compressed-evaluation fallback beat
  // fast answers over a stale graph. Set false for the strict behavior (an
  // index failure fails the whole rebuild).
  bool publish_without_index = true;

  // ---- Sharding (ShardedCodService; ignored by a directly constructed
  // DynamicCodService, which is always one engine). ----

  // Number of shard engines. 1 = mono serving (MakeCodService returns a
  // plain DynamicCodService). >= 2 forces engine.component_scoped = true
  // on every shard so merged answers are independent of the layout.
  uint32_t num_shards = 1;
  PartitionStrategy partitioner = PartitionStrategy::kConnectedComponents;

  // Rejects nonsense before any engine is built: num_shards == 0,
  // async_rebuild without a scheduler, snapshots_keep == 0, a backoff
  // window that shrinks (initial > max), k / theta / himor_max_rank == 0,
  // engine.sketch_bits > 16, or a negative rebuild_threshold /
  // rebuild_budget_seconds.
  Status Validate() const;

  // Order-independent 64-bit digest of every field that shapes ANSWERS:
  // seed, engine.{k, theta, himor_max_rank, diffusion, transform.beta,
  // transform.transform, component_scoped, sketch_bits}, delta_rebuild,
  // num_shards, partitioner. engine.sketch_bits joins because it shapes the
  // persisted kSketch snapshot section and the sketch rung's answers;
  // engine.sketch_prune / engine.sketch_rung stay out (pruning is
  // answer-preserving and the rung only selects a degraded tier — pure
  // latency knobs a restart may flip).
  // Written into each epoch snapshot (EpochSnapshotMeta::options_fingerprint)
  // and checked on recovery, so a snapshot from a different layout or
  // parameterization is refused with kFailedPrecondition instead of being
  // restored into a service that would silently answer differently.
  // Latency/durability knobs (thresholds, budgets, retention, scheduler)
  // are deliberately excluded — changing them must not cost a warm restart.
  uint64_t Fingerprint() const;
};

}  // namespace cod

#endif  // COD_SERVING_SERVICE_OPTIONS_H_

// Epoch-based COD serving over a changing graph — the MONO implementation
// of CodServiceInterface (one engine, whole graph). The sharded
// implementation (serving/sharded_service.h) composes N of these behind
// the scatter/gather router.
//
// The paper (Sec. IV-B discussion, conclusion) leaves truly incremental
// maintenance of the hierarchy and HIMOR under updates as an open problem —
// the compressed influence computation over the hierarchy does not update
// efficiently. This service takes the standard engineering route instead
// (compare LSM compaction): queries are answered from the last built
// *epoch* (graph snapshot + hierarchy + index) while edge updates
// accumulate; when the accumulated drift exceeds `rebuild_threshold`
// (fraction of the snapshot's edge count), a rebuild is SCHEDULED — as a
// rebuild-priority task on `scheduler` under async_rebuild, or left to the
// owner (RefreshDue() / Refresh()) otherwise. Query paths never rebuild
// inline: QueryCodL/U only
// snapshot-and-serve, so a threshold-crossing query costs the same as any
// other. Between rebuilds, answers are stale by at most the pending-update
// set, which is always inspectable.
//
// Concurrency model (RCU-style epoch publication): each epoch is an
// immutable EngineCore published through an atomic shared_ptr. Readers call
// Snapshot() — a single atomic load — and query the returned core with
// their own QueryWorkspace; they never block, and a snapshot stays valid
// (and answer-stable) for as long as the caller holds it, across any number
// of later rebuilds. Writers (AddEdge / RemoveEdge) mutate only the pending
// edit overlay under a mutex.
//
// Edge state: the service keeps no copy of the graph. The live edge set is
// the BASE — the published epoch's Graph, shared with its EngineCore — with
// the OVERLAY applied: an ordered map holding every edit since that graph
// was built (a weight, or "removed"). A build captures the base pointer and
// a copy of the overlay and merges the two in (u, v) order, which is the
// order GraphBuilder keeps without sorting. A successful publish swaps the
// base to the new graph and drops the overlay entries it already holds;
// edits made after the capture stay. A failed build changes nothing.
//
// Epoch determinism: every build ticket t (0-based) samples with RNG seed
// `Rng(options.seed + t).Next()`, so a service replaying the same
// update/refresh/failure sequence publishes bit-identical epochs regardless
// of whether rebuilds ran inline or on the scheduler. (A FAILED build consumes
// its ticket, so after failures the published epoch number no longer equals
// the ticket number — determinism is per replayed sequence, not per epoch
// number.)
//
// Incremental rebuilds (ServiceOptions::delta_rebuild): every rebuild runs
// the counter-seeded per-sample schedule instead (RrSampleSeed(seed,
// source * theta + j) — the same seeds every epoch), which makes an epoch's
// bytes a pure function of its GRAPH, independent of the ticket or of which
// update batches led there. That is the property that lets a delta rebuild
// reuse the previous epoch's RR samples and dendrogram merges wherever the
// dirty-vertex bitmap proves them untouched: a delta-rebuilt epoch is
// bit-identical to a cold rebuild on the same final edge set. The service
// decides delta vs full per batch (dirty fraction vs delta_max_dirty_
// fraction; any delta failure falls back to full) and counts decisions in
// cod_rebuild_delta_{attempts,fallbacks}_total.
//
// Failure containment and degraded publication: a rebuild can fail — a
// failpoint ("dynamic_service/rebuild", "himor/build"; see
// common/failpoint.h) simulates an infrastructure error, or the HIMOR build
// runs out of its `rebuild_budget_seconds`. A failed rebuild NEVER touches
// the published epoch: queries keep serving the last good epoch, the
// captured pending-update count is restored so the drift threshold can
// re-trigger, and the error is recorded in rebuild_stats(). With
// `publish_without_index` (the default), an index-only failure is not a
// rebuild failure at all: the epoch publishes anyway in the index-absent
// DEGRADED mode — fresh graph, hierarchy, and correct CODL answers via the
// compressed-evaluation (CODL-) fallback, just no index acceleration. The
// index is an accelerator; losing it degrades latency, never availability
// or freshness.
//
// Non-blocking retries: a failed ASYNC rebuild is NOT retried by sleeping
// in a scheduler worker. The attempt records a monotonic `retry_after`
// deadline and returns its worker immediately; the scheduler's integrated
// timer facility (TaskScheduler::ScheduleAt — no dedicated per-service
// thread any more) or the next MaybeRefresh from a query, whichever
// observes the deadline first, re-submits the attempt once it passes. While
// a retry is scheduled the rebuild counts as in flight — RefreshAsync
// dedupes and WaitForRebuild waits, exactly as during one long build — but
// no thread is occupied.

#ifndef COD_SERVING_DYNAMIC_SERVICE_H_
#define COD_SERVING_DYNAMIC_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "common/metrics.h"
#include "common/task_scheduler.h"
#include "core/engine_core.h"
#include "core/query_batch.h"
#include "serving/service_interface.h"

namespace cod {

class SnapshotStore;

class DynamicCodService : public CodServiceInterface {
 public:
  // A published epoch: queries against `core` are answered as of that
  // epoch's graph snapshot. Holding the shared_ptr keeps the epoch alive
  // after later rebuilds retire it. `degraded` marks an index-absent epoch
  // (see ServiceOptions::publish_without_index).
  struct EpochSnapshot {
    std::shared_ptr<const EngineCore> core;
    uint64_t epoch = 0;
    bool degraded = false;
  };

  // Takes ownership of the initial graph; `attrs` must cover the same node
  // set and is fixed for the service's lifetime (node set is fixed too).
  // The first epoch is built synchronously, so the service is immediately
  // queryable; its build CHECK-fails on error (there is no good epoch to
  // fall back to), so arm rebuild failpoints only AFTER construction.
  // Options must Validate(); sharding fields are carried only for the
  // snapshot fingerprint — this class is always exactly one engine.
  DynamicCodService(Graph initial_graph, AttributeTable attrs,
                    const ServiceOptions& options);
  // Shared-attrs form for embedders that hold the table elsewhere. A
  // non-null `global_ids` makes this a compact shard (serving/partition.h):
  // every epoch's core carries the map (EngineCore::global_ids), and so
  // does every snapshot. Updates and queries still speak local ids.
  DynamicCodService(Graph initial_graph,
                    std::shared_ptr<const AttributeTable> attrs,
                    const ServiceOptions& options,
                    std::shared_ptr<const GlobalIds> global_ids = nullptr);

  // Warm restart: reconstructs a service from the newest valid snapshot in
  // options.snapshot_dir, skipping the expensive clustering/index build —
  // the restored epoch keeps its epoch number and rebuild ticket, so the
  // service answers bit-identically to the one that wrote the snapshot and
  // later rebuilds continue the same deterministic seed stream. Corrupt
  // snapshots are quarantined (".corrupt") and older ones tried; returns
  // kNotFound when no usable snapshot exists (cold-construct instead) and
  // kFailedPrecondition when the newest valid snapshot was written under a
  // different options fingerprint (seed, engine parameters, or sharding
  // layout) — restoring it would silently change answers. Options that fail
  // Validate() or name no snapshot_dir return kInvalidArgument. A snapshot
  // with an id map restores as that compact shard (the caller checks the
  // map against its partition; see ShardedCodService::Recover).
  static Result<std::unique_ptr<DynamicCodService>> Recover(
      const ServiceOptions& options);

  // Cancels any scheduled retry (restoring its pending count, like a
  // retry-cap give-up) including its scheduler timer, then waits out every
  // task this service still has in flight on the scheduler.
  ~DynamicCodService() override;

  // ---- CodServiceInterface ----
  bool AddEdge(NodeId u, NodeId v, double weight = 1.0) override;
  bool RemoveEdge(NodeId u, NodeId v) override;
  size_t pending_updates() const override;
  uint64_t epoch() const override { return published_.load()->epoch; }
  bool epoch_degraded() const override { return published_.load()->degraded; }
  size_t NumEdges() const override;
  RebuildStats rebuild_stats() const override;
  bool RefreshDue() const override;

  // Synchronously rebuilds the snapshot, hierarchy, and index from the
  // current edge set and publishes the new epoch before returning (a
  // scheduled retry is absorbed — its captured updates fold into this
  // build — and an executing background attempt is waited out first). On
  // failure the old epoch stays published, the captured pending updates are
  // restored, and the build error is returned (no retries — call again to
  // retry). An index-only failure publishes degraded and returns Ok when
  // publish_without_index is set.
  Status Refresh() override;

  // Schedules a rebuild on `scheduler` and returns immediately; false if
  // one is already in flight — executing OR waiting on a retry deadline —
  // (callers keep serving the stale epoch either way). Requires
  // ServiceOptions::async_rebuild. Failed builds are re-scheduled with
  // capped exponential backoff; if every attempt fails, the old epoch
  // keeps serving and rebuild_stats().last_error records why.
  bool RefreshAsync() override;

  // Blocks until no background rebuild is in flight, waiting through any
  // scheduled retries (test/shutdown hook).
  void WaitForRebuild() override;

  // Serves from the current epoch — snapshot-and-serve only, never
  // rebuilding inline. Under async_rebuild a threshold crossing schedules
  // the rebuild on the scheduler (and kicks a due retry); in sync mode the
  // caller owns rebuilds via RefreshDue()/Refresh(). Scratch comes from a
  // lazily built thread-local QueryWorkspace rebound to the snapshot, so
  // repeated single queries do not reallocate.
  CodResult QueryCodL(NodeId q, AttributeId attr, uint32_t k,
                      Rng& rng) override;
  CodResult QueryCodU(NodeId q, uint32_t k, Rng& rng) override;

  // Fans a workload across `scheduler` against ONE snapshot of the current
  // epoch; deterministic given (snapshot, specs, batch_seed) — see
  // core/query_batch.h. Never triggers or waits for rebuilds.
  using CodServiceInterface::QueryBatch;
  std::vector<CodResult> QueryBatch(std::span<const QuerySpec> specs,
                                    TaskScheduler& scheduler,
                                    uint64_t batch_seed,
                                    const BatchOptions& options,
                                    BatchStats* stats) const override;

  // ---- Mono-only surface ----

  // True while a failed async rebuild is waiting out its backoff. No
  // worker is occupied during this window; the retry fires from the
  // scheduler timer or the next query's MaybeRefresh once `retry_after`
  // passes.
  bool RetryScheduled() const;

  // The current epoch, via one atomic load — never blocks, including during
  // a background rebuild.
  EpochSnapshot Snapshot() const;

  // The engine core of the current epoch (stale by up to
  // pending_updates()). The reference is only guaranteed until the next
  // rebuild publishes — concurrent callers must use Snapshot() instead.
  const EngineCore& engine() const { return *published_.load()->core; }

 private:
  struct Epoch {
    uint64_t epoch = 0;
    bool degraded = false;
    std::shared_ptr<const EngineCore> core;
  };
  // Edits since the base graph, keyed by EdgeKey (so ordered by (u, v)):
  // the edge's weight, or nullopt once it is removed.
  using Overlay = std::map<uint64_t, std::optional<double>>;

  // What a build starts from: the base graph and the overlay as of the
  // capture. The live edge set then was the base with the overlay applied.
  struct EdgeCapture {
    std::shared_ptr<const Graph> base;
    Overlay overlay;
  };

  // A successfully built epoch core and its graph; degraded = published
  // index-absent.
  struct EpochBuild {
    std::shared_ptr<const EngineCore> core;
    std::shared_ptr<const Graph> graph;
    bool degraded = false;
  };

  // A failed async attempt waiting out its backoff. Owns the captured edge
  // state and ticket so the re-submitted attempt is byte-identical to
  // the failed one (same seed stream). Guarded by mu_; mutually exclusive
  // with attempt_running_ (an attempt either executes or waits, never
  // both).
  struct PendingRetry {
    EdgeCapture edges;
    uint64_t build_index = 0;
    size_t captured_pending = 0;
    uint32_t attempt = 0;          // attempt number the retry will run
    uint32_t next_backoff_ms = 0;  // backoff if THAT attempt also fails
    std::chrono::steady_clock::time_point retry_after;
    uint64_t timer_id = 0;  // scheduler timer armed for retry_after
  };

  // Schedules work if drift crossed the threshold (async mode) and kicks a
  // due retry; never rebuilds inline.
  void MaybeRefresh();
  bool DriftOverThresholdLocked() const;
  // True while a rebuild ticket is unresolved: an attempt is executing or
  // a retry is scheduled.
  bool RebuildInFlightLocked() const {
    return attempt_running_ || retry_.has_value();
  }
  // Builds an epoch core from captured edges: merged graph ->
  // AgglomerativeClusterDelta -> FromPrebuilt -> TryBuildHimorDelta. Runs
  // on the single-flight build ticket with no locks held; non-const because
  // delta mode advances the ticket-owned reuse caches below. Delta mode
  // replays clean dendrogram components and reuses clean RR samples against
  // dirty_since_cache_ (see HimorIndex::BuildDelta), and builds cold — same
  // counter-seeded schedule, no reuse, bit-identical answers — when there
  // is no base cache, the invalidated-sample fraction exceeds
  // delta_max_dirty_fraction, the "core/delta_rebuild" failpoint is armed,
  // or a reuse attempt fails with a non-budget error. The full-rebuild mode
  // is that cold build with a per-ticket seed and no carry. Fails on the
  // "dynamic_service/rebuild" failpoint or — unless publish_without_index
  // turns it into a degraded success — an over-budget / failpointed HIMOR
  // build.
  Result<EpochBuild> BuildEpochCore(const EdgeCapture& edges,
                                    uint64_t build_index);
  // The current base and a copy of the overlay (mu_ held).
  EdgeCapture CaptureEdgesLocked() const { return {base_, overlay_}; }
  // After `graph`, built from `captured`, is published (mu_ held): makes it
  // the base and drops the overlay entries still as they were captured.
  void AdoptBaseLocked(std::shared_ptr<const Graph> graph,
                       const Overlay& captured);
  // Folds dirty_pending_ into dirty_since_cache_ and clears it. Called at
  // build capture (mu_ held, this thread owns the ticket); the fold is a
  // union, so a ticket that fails and is re-captured stays correct.
  void FoldDirtyLocked();
  // One async attempt: build, publish on success, otherwise schedule the
  // retry deadline (or give up past the cap) — and return to the pool
  // either way.
  void RunRebuildAttempt(EdgeCapture edges, uint64_t build_index,
                         size_t captured_pending, uint32_t attempt,
                         uint32_t backoff_ms);
  // Moves the scheduled retry to the scheduler as an executing attempt
  // (cancelling its timer if still armed). Requires mu_ held and retry_
  // set.
  void SubmitRetryLocked();
  // Scheduler-timer callback (maintenance priority): submits the retry if
  // it is still scheduled and due; otherwise a no-op (absorbed by Refresh,
  // already kicked by a query, or superseded).
  void OnRetryTimer();
  void PublishEpoch(std::shared_ptr<const EngineCore> core, bool degraded,
                    uint64_t build_index);
  // Canonical key of edge {u, v}: min in the high half, max in the low.
  static uint64_t EdgeKey(NodeId u, NodeId v);

  // Constructor behind Recover(): adopts an already-decoded epoch instead
  // of building one. `graph` (the graph `core` holds) becomes the base
  // with an empty overlay; `epoch` / `build_index` restore publication
  // continuity.
  struct RecoveredTag {};
  DynamicCodService(RecoveredTag, std::shared_ptr<const AttributeTable> attrs,
                    const ServiceOptions& options,
                    std::shared_ptr<const Graph> graph,
                    std::shared_ptr<const EngineCore> core,
                    std::unique_ptr<SnapshotStore> store, uint64_t epoch,
                    uint64_t build_index, bool degraded);
  // Scrape-time gauge registration, shared by both constructors; call only
  // once an epoch is published.
  void RegisterGauges();
  // Queues the snapshot write for a freshly published epoch (maintenance
  // priority when a scheduler exists, inline otherwise); no-op without a
  // snapshot_dir.
  void ScheduleSnapshot(uint64_t epoch, uint64_t build_index, bool degraded,
                        std::shared_ptr<const EngineCore> core);
  // Takes the core by shared_ptr so the snapshot store can keep it pinned
  // as the source of its section-reuse cache (delta snapshots).
  void WriteSnapshotNow(uint64_t epoch, uint64_t build_index, bool degraded,
                        std::shared_ptr<const EngineCore> core);

  std::shared_ptr<const AttributeTable> attrs_;  // shared by every epoch
  ServiceOptions options_;
  size_t num_nodes_;
  // A compact shard's id map, shared by every epoch; null for a whole-graph
  // service.
  std::shared_ptr<const GlobalIds> global_ids_;

  mutable std::mutex mu_;  // guards the pending state below
  // The live edge set is base_ with overlay_ applied (see the file
  // comment); num_edges_ counts it. base_ is never null.
  std::shared_ptr<const Graph> base_;
  Overlay overlay_;
  size_t num_edges_ = 0;
  size_t pending_updates_ = 0;
  size_t snapshot_edges_ = 0;
  uint64_t builds_started_ = 0;
  bool attempt_running_ = false;
  std::optional<PendingRetry> retry_;
  bool shutting_down_ = false;
  RebuildStats stats_;
  std::condition_variable rebuild_done_;

  // RCU-style publication point; readers atomically load, writers
  // atomically store a fresh Epoch. Never null after construction.
  std::atomic<std::shared_ptr<const Epoch>> published_;

  // steady_clock time of the last PublishEpoch, as nanoseconds since the
  // clock's epoch; feeds the epoch-age callback gauge.
  std::atomic<int64_t> last_publish_ns_{0};

  // Scrape-time gauges (epoch number / age, pending updates, index
  // presence), registered at the end of construction and RAII-unregistered
  // before the state they read is destroyed. Two live services emit one
  // sample each under the same name — like two replicas scraping alike.
  std::optional<ScopedCallbackGauge> epoch_gauge_;
  std::optional<ScopedCallbackGauge> epoch_age_gauge_;
  std::optional<ScopedCallbackGauge> pending_gauge_;
  std::optional<ScopedCallbackGauge> index_present_gauge_;

  // Every task this service puts on the scheduler (rebuild attempts,
  // retry-timer callbacks, and snapshot writes) joins this group, so the
  // destructor can wait out stragglers that capture `this`. Set whenever a
  // scheduler is configured.
  std::optional<TaskGroup> sched_group_;

  // Durable snapshots (null when ServiceOptions::snapshot_dir is empty).
  // snapshot_mu_ serializes writes and guards last_snapshot_epoch_ — the
  // newest epoch durably on disk (or restored from disk), so a stale
  // queued write for an already-superseded epoch is skipped, and a
  // recovered epoch is never pointlessly re-written.
  std::unique_ptr<SnapshotStore> snapshot_store_;
  std::mutex snapshot_mu_;
  uint64_t last_snapshot_epoch_ = 0;

  // ---- Incremental-rebuild state (ServiceOptions::delta_rebuild; the
  // vectors stay empty and the caches invalid when the flag is off).
  // dirty_pending_ is guarded by mu_: AddEdge / RemoveEdge mark BOTH
  // endpoints of every APPLIED mutation. Everything below it is owned by
  // the single-flight build ticket (attempt_running_ serializes attempts)
  // and needs no lock: dirty_since_cache_ holds the union of dirty bits
  // relative to the last cache-advancing build — cleared only then; failed
  // and degraded builds leave it in place — and the double-buffered
  // sample / merge-replay caches flip on each successful non-degraded
  // build. delta_cur_ is the live slot; -1 means no base yet (cold
  // construction or warm restart), so the next build runs cold.
  std::vector<char> dirty_pending_;
  std::vector<char> dirty_since_cache_;
  HimorSampleCache sample_cache_[2];
  ClusterReplay cluster_replay_[2];
  int delta_cur_ = -1;
};

}  // namespace cod

#endif  // COD_SERVING_DYNAMIC_SERVICE_H_

#include "serving/dynamic_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "core/query_workspace.h"
#include "storage/snapshot_store.h"

namespace cod {
namespace {

// Registry handles for the rebuild counters, resolved once. IMPORTANT:
// resolve BEFORE taking mu_ — first use takes the registry lock, and the
// scrape path orders registry lock -> mu_ (callback gauges), so resolving
// under mu_ would invert it.
struct RebuildSites {
  Counter* attempts;
  Counter* failures;
  Counter* retries;
  Counter* published;
  Counter* published_degraded;
  // Delta-mode decision and reuse counters: attempts counts every rebuild
  // that ran under delta_rebuild; fallbacks counts the ones that had a base
  // cache but built cold anyway (dirty fraction over threshold, the
  // "core/delta_rebuild" failpoint, or a failed reuse attempt). The three
  // sample counters partition every RR sample of every delta-mode build by
  // how it was obtained (see HimorDeltaStats).
  Counter* delta_attempts;
  Counter* delta_fallbacks;
  Counter* delta_samples_reused;
  Counter* delta_samples_replayed;
  Counter* delta_samples_resampled;
};

const RebuildSites& RebuildMetrics() {
  static const RebuildSites sites = [] {
    MetricsRegistry& reg = MetricsRegistry::Instance();
    return RebuildSites{
        reg.GetCounter("cod_rebuild_attempts_total"),
        reg.GetCounter("cod_rebuild_failures_total"),
        reg.GetCounter("cod_rebuild_retries_total"),
        reg.GetCounter("cod_epochs_published_total"),
        reg.GetCounter("cod_epochs_degraded_total"),
        reg.GetCounter("cod_rebuild_delta_attempts_total"),
        reg.GetCounter("cod_rebuild_delta_fallbacks_total"),
        reg.GetCounter("cod_rebuild_delta_samples_reused_total"),
        reg.GetCounter("cod_rebuild_delta_samples_replayed_total"),
        reg.GetCounter("cod_rebuild_delta_samples_resampled_total")};
  }();
  return sites;
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Reusable per-thread workspace for the single-query convenience API:
// constructing a QueryWorkspace allocates graph-sized evaluator scratch,
// far too expensive to pay per query (the old behavior). Rebinding every
// call is cheap — it re-reads the model pointer and theta, keeping the
// buffers — and makes the cache immune to epoch/service ABA (a new core
// allocated at a freed core's address would pass a pointer-equality check
// with stale parameters). The workspace holds no reference to any core
// after a query returns, so thread-exit destruction is always safe.
QueryWorkspace& TlsWorkspaceFor(const EngineCore& core) {
  thread_local std::unique_ptr<QueryWorkspace> ws;
  if (ws == nullptr) {
    ws = std::make_unique<QueryWorkspace>(core, /*seed=*/0);
  } else {
    ws->Rebind(core);
  }
  return *ws;
}

}  // namespace

uint64_t DynamicCodService::EdgeKey(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return static_cast<uint64_t>(u) << 32 | v;
}

DynamicCodService::DynamicCodService(Graph initial_graph, AttributeTable attrs,
                                     const ServiceOptions& options)
    : DynamicCodService(
          std::move(initial_graph),
          std::make_shared<const AttributeTable>(std::move(attrs)), options) {}

DynamicCodService::DynamicCodService(
    Graph initial_graph, std::shared_ptr<const AttributeTable> attrs,
    const ServiceOptions& options, std::shared_ptr<const GlobalIds> global_ids)
    : attrs_(std::move(attrs)),
      options_(options),
      num_nodes_(initial_graph.NumNodes()),
      global_ids_(std::move(global_ids)) {
  COD_CHECK(options_.Validate().ok());
  COD_CHECK_EQ(num_nodes_, attrs_->NumNodes());
  if (options_.scheduler != nullptr) sched_group_.emplace(*options_.scheduler);
  if (!options_.snapshot_dir.empty()) {
    snapshot_store_ = std::make_unique<SnapshotStore>(
        SnapshotStore::Options{options_.snapshot_dir,
                               options_.snapshots_keep});
  }
  num_edges_ = initial_graph.NumEdges();
  base_ = std::make_shared<const Graph>(std::move(initial_graph));
  if (options_.delta_rebuild) {
    dirty_pending_.assign(num_nodes_, 0);
    dirty_since_cache_.assign(num_nodes_, 0);
  }
  // The first epoch is always built synchronously; with no previous epoch
  // to fall back to, a failure here is fatal (arm rebuild failpoints only
  // after construction).
  COD_CHECK(Refresh().ok());
  RegisterGauges();
}

DynamicCodService::DynamicCodService(
    RecoveredTag, std::shared_ptr<const AttributeTable> attrs,
    const ServiceOptions& options, std::shared_ptr<const Graph> graph,
    std::shared_ptr<const EngineCore> core,
    std::unique_ptr<SnapshotStore> store, uint64_t epoch,
    uint64_t build_index, bool degraded)
    : attrs_(std::move(attrs)),
      options_(options),
      num_nodes_(graph->NumNodes()),
      global_ids_(core->global_ids()),
      base_(std::move(graph)),
      num_edges_(base_->NumEdges()),
      snapshot_edges_(num_edges_),
      snapshot_store_(std::move(store)),
      last_snapshot_epoch_(epoch) {
  COD_CHECK(options_.Validate().ok());
  COD_CHECK_EQ(num_nodes_, attrs_->NumNodes());
  COD_CHECK(&core->graph() == base_.get());
  if (options_.scheduler != nullptr) sched_group_.emplace(*options_.scheduler);
  if (options_.delta_rebuild) {
    // The reuse caches are not persisted (delta_cur_ stays -1), so the
    // first rebuild after a warm restart runs cold — bit-identity holds
    // regardless, because the delta schedule is epoch-independent.
    dirty_pending_.assign(num_nodes_, 0);
    dirty_since_cache_.assign(num_nodes_, 0);
  }
  // Rebuild tickets continue AFTER the snapshot's: replaying the same
  // update sequence against the recovered service draws the same per-ticket
  // seed streams the original would have.
  builds_started_ = build_index + 1;
  auto first = std::make_shared<Epoch>();
  first->epoch = epoch;
  first->degraded = degraded;
  first->core = std::move(core);
  published_.store(std::move(first));
  last_publish_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  RegisterGauges();
}

void DynamicCodService::RegisterGauges() {
  // Register the scrape-time gauges only once the first epoch is live, so a
  // scrape can never observe a half-constructed service.
  epoch_gauge_.emplace("cod_service_epoch", [this] {
    return static_cast<double>(published_.load()->epoch);
  });
  epoch_age_gauge_.emplace("cod_service_epoch_age_seconds", [this] {
    return static_cast<double>(
               SteadyNowNs() -
               last_publish_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  });
  pending_gauge_.emplace("cod_service_pending_updates", [this] {
    return static_cast<double>(pending_updates());
  });
  index_present_gauge_.emplace("cod_service_index_present", [this] {
    return published_.load()->core->index_present() ? 1.0 : 0.0;
  });
}

Result<std::unique_ptr<DynamicCodService>> DynamicCodService::Recover(
    const ServiceOptions& options) {
  COD_RETURN_IF_ERROR(options.Validate());
  if (options.snapshot_dir.empty()) {
    return Status::InvalidArgument("recovery needs a snapshot_dir");
  }
  auto store = std::make_unique<SnapshotStore>(
      SnapshotStore::Options{options.snapshot_dir, options.snapshots_keep});
  Result<SnapshotStore::LoadedSnapshot> loaded = store->LoadNewest();
  if (!loaded.ok()) return loaded.status();
  DecodedEpochSnapshot& snap = loaded->snapshot;
  const EngineOptions& eng = options.engine;
  // The options fingerprint is the primary compatibility gate (it also
  // covers the sharding layout and the attribute transform); the
  // field-by-field check below stays as defense in depth for the fields
  // the container stores explicitly.
  if (snap.meta.options_fingerprint != options.Fingerprint()) {
    return Status::FailedPrecondition(
        "snapshot " + loaded->path +
        " was written under a different options fingerprint (engine "
        "parameters, seed, or sharding layout); restoring it would change "
        "answers");
  }
  if (snap.meta.seed != options.seed || snap.meta.engine_k != eng.k ||
      snap.meta.engine_theta != eng.theta ||
      snap.meta.himor_max_rank != eng.himor_max_rank ||
      snap.meta.diffusion != static_cast<uint8_t>(eng.diffusion)) {
    return Status::FailedPrecondition(
        "snapshot " + loaded->path +
        " was written under different service options (seed or engine "
        "parameters); restoring it would change answers");
  }
  auto graph = std::make_shared<const Graph>(std::move(snap.graph));
  auto attrs =
      std::make_shared<const AttributeTable>(std::move(snap.attributes));
  std::shared_ptr<const GlobalIds> global_ids;
  if (snap.global_ids.has_value()) {
    global_ids = std::make_shared<const GlobalIds>(std::move(*snap.global_ids));
  }
  Result<std::unique_ptr<EngineCore>> core = EngineCore::FromPrebuilt(
      graph, attrs, eng, std::move(*snap.hierarchy), std::move(snap.himor),
      std::move(snap.sketch), snap.meta.degraded, std::move(global_ids));
  if (!core.ok()) return core.status();
  return std::unique_ptr<DynamicCodService>(new DynamicCodService(
      RecoveredTag{}, std::move(attrs), options, std::move(graph),
      std::shared_ptr<const EngineCore>(std::move(core).value()),
      std::move(store), snap.meta.epoch, snap.meta.build_index,
      snap.meta.degraded));
}

DynamicCodService::~DynamicCodService() {
  uint64_t timer_to_cancel = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
    if (retry_.has_value()) {
      // Give up the scheduled retry: the last good epoch stands and the
      // captured pending count is restored, matching a retry-cap give-up.
      pending_updates_ += retry_->captured_pending;
      timer_to_cancel = retry_->timer_id;
      retry_.reset();
    }
    // An EXECUTING attempt cannot be cancelled — wait it out (it observes
    // shutting_down_ on failure and will not schedule a new retry).
    rebuild_done_.wait(lock, [this] { return !attempt_running_; });
  }
  if (timer_to_cancel != 0) {
    options_.scheduler->CancelTimer(timer_to_cancel);
  }
  // Wait out every task still in flight that captures `this` — e.g. a
  // queued OnRetryTimer callback whose retry was just cancelled above.
  if (sched_group_.has_value()) sched_group_->Wait();
}

bool DynamicCodService::AddEdge(NodeId u, NodeId v, double weight) {
  COD_CHECK(u < num_nodes_);
  COD_CHECK(v < num_nodes_);
  if (u == v) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = overlay_.try_emplace(EdgeKey(u, v));
  const bool present = inserted ? base_->FindEdge(u, v) != kInvalidEdge
                                : it->second.has_value();
  if (!present) ++num_edges_;
  it->second = weight;
  ++pending_updates_;
  if (!dirty_pending_.empty()) {
    // Both endpoints: adding, removing, or reweighting (u, v) changes the
    // incident edge sets — and hence the RR sampling streams — of u AND v.
    dirty_pending_[u] = 1;
    dirty_pending_[v] = 1;
  }
  return true;
}

bool DynamicCodService::RemoveEdge(NodeId u, NodeId v) {
  COD_CHECK(u < num_nodes_);
  COD_CHECK(v < num_nodes_);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t key = EdgeKey(u, v);
  const auto it = overlay_.find(key);
  if (it != overlay_.end()) {
    if (!it->second.has_value()) return false;
    it->second.reset();
  } else {
    if (base_->FindEdge(u, v) == kInvalidEdge) return false;
    overlay_.emplace(key, std::nullopt);
  }
  --num_edges_;
  ++pending_updates_;
  if (!dirty_pending_.empty()) {
    dirty_pending_[u] = 1;
    dirty_pending_[v] = 1;
  }
  return true;
}

void DynamicCodService::FoldDirtyLocked() {
  for (size_t v = 0; v < dirty_pending_.size(); ++v) {
    if (dirty_pending_[v] != 0) {
      dirty_since_cache_[v] = 1;
      dirty_pending_[v] = 0;
    }
  }
}

size_t DynamicCodService::pending_updates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_updates_;
}

size_t DynamicCodService::NumEdges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_edges_;
}

RebuildStats DynamicCodService::rebuild_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool DynamicCodService::DriftOverThresholdLocked() const {
  const double drift =
      snapshot_edges_ == 0
          ? (pending_updates_ > 0 ? 1.0 : 0.0)
          : static_cast<double>(pending_updates_) /
                static_cast<double>(snapshot_edges_);
  return pending_updates_ > 0 && drift > options_.rebuild_threshold;
}

bool DynamicCodService::RefreshDue() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DriftOverThresholdLocked();
}

bool DynamicCodService::RetryScheduled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retry_.has_value();
}

Result<DynamicCodService::EpochBuild> DynamicCodService::BuildEpochCore(
    const EdgeCapture& edges, uint64_t build_index) {
  if (COD_FAILPOINT("dynamic_service/rebuild")) {
    return Status::IoError("failpoint dynamic_service/rebuild armed");
  }
  // Merge the base's canonical edges with the overlay, both in (u, v)
  // order: the builder receives strictly increasing edges and keeps them
  // as they come.
  GraphBuilder builder(num_nodes_);
  const Graph& base = *edges.base;
  auto next = edges.overlay.begin();
  const auto add_overlay = [&builder](const Overlay::value_type& entry) {
    if (entry.second.has_value()) {
      builder.AddEdge(static_cast<NodeId>(entry.first >> 32),
                      static_cast<NodeId>(entry.first), *entry.second);
    }
  };
  for (EdgeId e = 0; e < base.NumEdges(); ++e) {
    const auto [u, v] = base.Endpoints(e);
    const uint64_t key = EdgeKey(u, v);
    for (; next != edges.overlay.end() && next->first < key; ++next) {
      add_overlay(*next);
    }
    if (next != edges.overlay.end() && next->first == key) {
      add_overlay(*next++);
    } else {
      builder.AddEdge(u, v, base.Weight(e));
    }
  }
  for (; next != edges.overlay.end(); ++next) add_overlay(*next);
  auto graph = std::make_shared<const Graph>(std::move(builder).Build());

  // Both modes run the same counter-seeded builders and differ in two
  // things only. The schedule seed: delta mode keeps options_.seed
  // constant, so cached RR bytes equal what resampling would produce this
  // epoch; the full-rebuild mode draws a per-ticket seed (failed tickets are
  // consumed). And the carry: only delta mode keeps the double-buffered
  // replay / sample caches.
  const bool delta = options_.delta_rebuild;
  const uint64_t seed =
      delta ? options_.seed : Rng(options_.seed + build_index).Next();
  const RebuildSites& rm = RebuildMetrics();
  if (delta) rm.delta_attempts->Increment();
  const int cur = delta_cur_;
  const int nxt = cur < 0 ? 0 : 1 - cur;

  // Decide reuse vs cold. A cold build runs the exact same counter-seeded
  // schedule with no previous cache, so both paths answer bit-identically —
  // the choice is latency-only. Fallbacks count only decisions where a base
  // existed but was not used; the very first build (no base at all) is just
  // a cold build.
  bool use_prev = delta && cur >= 0 && sample_cache_[cur].valid &&
                  cluster_replay_[cur].valid;
  if (use_prev) {
    if (COD_FAILPOINT("core/delta_rebuild")) {
      use_prev = false;
      rm.delta_fallbacks->Increment();
    } else {
      // A sample is invalidated when its RR set touches ANY dirty vertex,
      // so vertex dirtiness amplifies by the (heavy-tailed) RR membership
      // distribution and no closed-form estimate tracks it. Count the
      // invalidated samples exactly instead: one early-exit pass over the
      // cached RR slabs costs ~1% of a rebuild and makes the fallback a
      // deterministic function of published state, so both replicas of an
      // epoch make the same choice.
      const RrSlabPool& rr = sample_cache_[cur].rr;
      const size_t num_samples = rr.NumSamples();
      size_t dirty_samples = 0;
      for (size_t i = 0; i < num_samples; ++i) {
        const RrSlabPool::View view = rr.Sample(i);
        for (uint32_t k = 0; k < view.node_count; ++k) {
          if (dirty_since_cache_[view.nodes[k]] != 0) {
            ++dirty_samples;
            break;
          }
        }
      }
      if (static_cast<double>(dirty_samples) >
          options_.delta_max_dirty_fraction *
              static_cast<double>(num_samples)) {
        use_prev = false;
        rm.delta_fallbacks->Increment();
      }
    }
  }

  const Budget budget{options_.rebuild_budget_seconds > 0.0
                          ? Deadline::After(options_.rebuild_budget_seconds)
                          : Deadline::Infinite()};
  for (;;) {
    const std::vector<char>* dirty = use_prev ? &dirty_since_cache_ : nullptr;
    // Clustering runs unbudgeted; the rebuild budget bounds the HIMOR build,
    // which dominates.
    Result<Dendrogram> hierarchy = AgglomerativeClusterDelta(
        *graph, AgglomerativeOptions{}, Budget{}, dirty,
        use_prev ? &cluster_replay_[cur] : nullptr,
        delta ? &cluster_replay_[nxt] : nullptr);
    COD_CHECK(hierarchy.ok());  // an unlimited budget never aborts
    Result<std::unique_ptr<EngineCore>> made = EngineCore::FromPrebuilt(
        graph, attrs_, options_.engine, std::move(hierarchy).value(),
        /*himor=*/std::nullopt, /*sketch=*/std::nullopt,
        /*index_absent_degraded=*/false, global_ids_);
    if (!made.ok()) return made.status();
    std::shared_ptr<EngineCore> core(std::move(made).value());

    HimorDeltaStats dstats;
    const Status himor = core->TryBuildHimorDelta(
        seed, budget, dirty, use_prev ? &sample_cache_[cur] : nullptr,
        delta ? &sample_cache_[nxt] : nullptr, &dstats, options_.scheduler);
    if (himor.ok()) {
      if (delta) {
        rm.delta_samples_reused->Increment(dstats.samples_reused);
        rm.delta_samples_replayed->Increment(dstats.samples_replayed);
        rm.delta_samples_resampled->Increment(dstats.samples_resampled);
        delta_cur_ = nxt;
        std::fill(dirty_since_cache_.begin(), dirty_since_cache_.end(), 0);
      }
      return EpochBuild{std::shared_ptr<const EngineCore>(std::move(core)),
                        graph, /*degraded=*/false};
    }
    const bool budget_failure = himor.code() == StatusCode::kTimeout ||
                                himor.code() == StatusCode::kCancelled;
    if (use_prev && !budget_failure) {
      // Defensive half of the delta contract: a reuse attempt that fails
      // for any non-budget reason retries once as a full cold build before
      // the normal failure handling applies.
      use_prev = false;
      rm.delta_fallbacks->Increment();
      continue;
    }
    if (!options_.publish_without_index) return himor;
    // Degraded publication: the graph and hierarchy built fine, only the
    // index ran over budget (or hit "himor/build"). Fresh answers without
    // index acceleration beat fast answers over a stale graph — publish
    // index-absent and let a later rebuild restore the index. The caches
    // do NOT advance: the next rebuild deltas from the last fully indexed
    // epoch, with dirty_since_cache_ still covering everything since then.
    core->MarkIndexAbsent();
    return EpochBuild{std::shared_ptr<const EngineCore>(std::move(core)),
                      graph, /*degraded=*/true};
  }
}

void DynamicCodService::AdoptBaseLocked(std::shared_ptr<const Graph> graph,
                                        const Overlay& captured) {
  base_ = std::move(graph);
  for (const auto& [key, state] : captured) {
    const auto it = overlay_.find(key);
    if (it != overlay_.end() && it->second == state) overlay_.erase(it);
  }
}

void DynamicCodService::PublishEpoch(std::shared_ptr<const EngineCore> core,
                                     bool degraded, uint64_t build_index) {
  const std::shared_ptr<const Epoch> prev = published_.load();
  auto next = std::make_shared<Epoch>();
  next->epoch = (prev == nullptr ? 0 : prev->epoch) + 1;
  next->degraded = degraded;
  next->core = core;
  const uint64_t epoch = next->epoch;
  published_.store(std::move(next));
  last_publish_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  // Queries are already being served from the new epoch; durability runs
  // behind publication, never in front of it.
  ScheduleSnapshot(epoch, build_index, degraded, std::move(core));
}

void DynamicCodService::ScheduleSnapshot(uint64_t epoch, uint64_t build_index,
                                         bool degraded,
                                         std::shared_ptr<const EngineCore>
                                             core) {
  if (snapshot_store_ == nullptr) return;
  if (options_.scheduler != nullptr) {
    // Maintenance priority: a snapshot must never delay interactive queries
    // or the next rebuild. The task joins sched_group_, so the destructor
    // waits it out; the captured core shared_ptr keeps the epoch alive even
    // if a newer epoch retires it meanwhile.
    options_.scheduler->Submit(
        TaskPriority::kMaintenance, *sched_group_,
        [this, epoch, build_index, degraded, core = std::move(core)]() mutable {
          WriteSnapshotNow(epoch, build_index, degraded, std::move(core));
        });
    return;
  }
  WriteSnapshotNow(epoch, build_index, degraded, std::move(core));
}

void DynamicCodService::WriteSnapshotNow(
    uint64_t epoch, uint64_t build_index, bool degraded,
    std::shared_ptr<const EngineCore> core) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  // A queued write for an epoch the disk already covers (a newer write ran
  // first, or the epoch was itself restored from disk) is a no-op. A FAILED
  // write is not retried until the next publish — the snapshot is a restart
  // accelerator, and cod_snapshot_write_failures_total records the gap.
  if (epoch <= last_snapshot_epoch_) return;
  EpochSnapshotMeta meta;
  meta.epoch = epoch;
  meta.build_index = build_index;
  meta.seed = options_.seed;
  meta.degraded = degraded;
  meta.options_fingerprint = options_.Fingerprint();
  if (snapshot_store_->Write(meta, std::move(core)).ok()) {
    last_snapshot_epoch_ = epoch;
  }
}

Status DynamicCodService::Refresh() {
  const RebuildSites& rm = RebuildMetrics();  // resolve before taking mu_
  EdgeCapture edges;
  uint64_t build_index = 0;
  size_t captured_pending = 0;
  std::unique_lock<std::mutex> lock(mu_);
  // A SCHEDULED retry is superseded by this explicit refresh: the edge set
  // we capture below already contains everything the retry would have
  // built, so absorb its pending count and cancel it (timer included). An
  // EXECUTING attempt is waited out as before (it either publishes or
  // schedules a retry we then absorb).
  size_t absorbed = 0;
  for (;;) {
    if (retry_.has_value()) {
      absorbed += retry_->captured_pending;
      const uint64_t timer_id = retry_->timer_id;
      retry_.reset();
      if (timer_id != 0) options_.scheduler->CancelTimer(timer_id);
      break;
    }
    if (!attempt_running_) break;
    rebuild_done_.wait(lock);
  }
  attempt_running_ = true;
  edges = CaptureEdgesLocked();
  build_index = builds_started_++;
  captured_pending = pending_updates_ + absorbed;
  snapshot_edges_ = num_edges_;
  pending_updates_ = 0;
  FoldDirtyLocked();
  ++stats_.attempts;
  rm.attempts->Increment();
  lock.unlock();

  Result<EpochBuild> built = BuildEpochCore(edges, build_index);
  if (built.ok()) {
    PublishEpoch(built->core, built->degraded, build_index);
  }

  // Notify under the lock: a waiter may destroy the service (and this cv)
  // as soon as it observes the flag cleared.
  lock.lock();
  if (built.ok()) {
    AdoptBaseLocked(built->graph, edges.overlay);
    ++stats_.published;
    rm.published->Increment();
    if (built->degraded) {
      ++stats_.published_degraded;
      rm.published_degraded->Increment();
    }
  } else {
    ++stats_.failures;
    rm.failures->Increment();
    stats_.last_error = built.status();
    // Restore the absorbed pending count so the drift threshold (or the
    // caller) can trigger another attempt; updates that arrived during the
    // failed build are already counted on top.
    pending_updates_ += captured_pending;
  }
  attempt_running_ = false;
  rebuild_done_.notify_all();
  lock.unlock();
  return built.status();
}

bool DynamicCodService::RefreshAsync() {
  COD_CHECK(options_.async_rebuild);
  EdgeCapture edges;
  uint64_t build_index = 0;
  size_t captured_pending = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (RebuildInFlightLocked()) return false;
    attempt_running_ = true;
    edges = CaptureEdgesLocked();
    build_index = builds_started_++;
    // The epoch being built absorbs everything pending as of this capture;
    // updates arriving during the build count against the NEXT epoch. A
    // failed build restores the captured count so drift can re-trigger.
    captured_pending = pending_updates_;
    snapshot_edges_ = num_edges_;
    pending_updates_ = 0;
    FoldDirtyLocked();
  }
  options_.scheduler->Submit(
      TaskPriority::kRebuild, *sched_group_,
      [this, edges = std::move(edges), build_index, captured_pending]() mutable {
        RunRebuildAttempt(std::move(edges), build_index, captured_pending,
                          /*attempt=*/0, options_.rebuild_backoff_initial_ms);
      });
  return true;
}

void DynamicCodService::RunRebuildAttempt(EdgeCapture edges,
                                          uint64_t build_index,
                                          size_t captured_pending,
                                          uint32_t attempt,
                                          uint32_t backoff_ms) {
  const RebuildSites& rm = RebuildMetrics();  // resolve before taking mu_
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.attempts;
    rm.attempts->Increment();
  }
  Result<EpochBuild> built = BuildEpochCore(edges, build_index);
  if (built.ok()) {
    PublishEpoch(built->core, built->degraded, build_index);
    // Notify under the lock — see Refresh().
    std::lock_guard<std::mutex> lock(mu_);
    AdoptBaseLocked(built->graph, edges.overlay);
    ++stats_.published;
    rm.published->Increment();
    if (built->degraded) {
      ++stats_.published_degraded;
      rm.published_degraded->Increment();
    }
    attempt_running_ = false;
    rebuild_done_.notify_all();
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.failures;
  rm.failures->Increment();
  stats_.last_error = built.status();
  if (attempt >= options_.max_rebuild_retries || shutting_down_) {
    // Give up: the last good epoch keeps serving; restoring the captured
    // pending count lets the drift threshold schedule a fresh ticket.
    pending_updates_ += captured_pending;
    attempt_running_ = false;
    rebuild_done_.notify_all();
    return;
  }
  ++stats_.retries;
  rm.retries->Increment();
  // Schedule the retry instead of sleeping through the backoff: this worker
  // returns to the scheduler NOW. The ticket stays in flight (retry_ set)
  // so RefreshAsync dedupes and waiters wait, but no thread is occupied
  // until the scheduler timer — or the next query's MaybeRefresh — observes
  // retry_after.
  PendingRetry r;
  r.edges = std::move(edges);
  r.build_index = build_index;
  r.captured_pending = captured_pending;
  r.attempt = attempt + 1;
  r.next_backoff_ms = std::min(options_.rebuild_backoff_max_ms,
                               backoff_ms * 2);
  r.retry_after = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(backoff_ms);
  // Arm the scheduler timer before publishing retry_: the callback re-reads
  // state under mu_ and no-ops if the retry was absorbed or already kicked.
  r.timer_id = options_.scheduler->ScheduleAt(
      r.retry_after, TaskPriority::kMaintenance, *sched_group_,
      [this] { OnRetryTimer(); });
  retry_ = std::move(r);
  attempt_running_ = false;
  // Wake rebuild_done_ waiters so a blocked Refresh() can absorb the retry
  // instead of waiting out the backoff.
  rebuild_done_.notify_all();
}

void DynamicCodService::SubmitRetryLocked() {
  PendingRetry r = std::move(*retry_);
  retry_.reset();
  attempt_running_ = true;
  // If the timer has not fired yet, cancel it (no-op when it already fired
  // — its queued callback will find retry_ empty and return). Taking the
  // scheduler's timer lock under mu_ is safe: timer callbacks run as
  // ordinary tasks and never hold scheduler locks while taking mu_.
  options_.scheduler->CancelTimer(r.timer_id);
  options_.scheduler->Submit(
      TaskPriority::kRebuild, *sched_group_,
      [this, r = std::move(r)]() mutable {
        RunRebuildAttempt(std::move(r.edges), r.build_index,
                          r.captured_pending, r.attempt, r.next_backoff_ms);
      });
}

void DynamicCodService::OnRetryTimer() {
  std::lock_guard<std::mutex> lock(mu_);
  // The retry may be gone (absorbed by Refresh, kicked by MaybeRefresh,
  // shutdown) or replaced by a LATER one with its own timer; only a due
  // retry gets submitted here.
  if (shutting_down_ || !retry_.has_value()) return;
  if (std::chrono::steady_clock::now() < retry_->retry_after) return;
  SubmitRetryLocked();
}

void DynamicCodService::WaitForRebuild() {
  std::unique_lock<std::mutex> lock(mu_);
  rebuild_done_.wait(lock, [this] { return !RebuildInFlightLocked(); });
}

DynamicCodService::EpochSnapshot DynamicCodService::Snapshot() const {
  const std::shared_ptr<const Epoch> epoch = published_.load();
  return EpochSnapshot{epoch->core, epoch->epoch, epoch->degraded};
}

void DynamicCodService::MaybeRefresh() {
  bool over_threshold = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Kick a due retry: queries usually arrive far more often than the
    // timer wakes, so this is the low-latency path back from backoff.
    if (retry_.has_value() &&
        std::chrono::steady_clock::now() >= retry_->retry_after) {
      SubmitRetryLocked();
    }
    over_threshold = DriftOverThresholdLocked();
  }
  if (!over_threshold) return;
  if (options_.async_rebuild) {
    RefreshAsync();  // keep serving the stale epoch; swap when ready
  }
  // Sync mode: queries NEVER rebuild inline — bounded latency beats bounded
  // staleness. The owner polls RefreshDue() and calls Refresh().
}

CodResult DynamicCodService::QueryCodL(NodeId q, AttributeId attr, uint32_t k,
                                       Rng& rng) {
  MaybeRefresh();  // may SCHEDULE a rebuild; never runs one inline
  const EpochSnapshot snap = Snapshot();
  QueryWorkspace& ws = TlsWorkspaceFor(*snap.core);
  ws.rng() = rng;
  const CodResult result = snap.core->QueryCodL(q, attr, k, ws);
  rng = ws.rng();
  return result;
}

CodResult DynamicCodService::QueryCodU(NodeId q, uint32_t k, Rng& rng) {
  MaybeRefresh();  // may SCHEDULE a rebuild; never runs one inline
  const EpochSnapshot snap = Snapshot();
  QueryWorkspace& ws = TlsWorkspaceFor(*snap.core);
  ws.rng() = rng;
  const CodResult result = snap.core->QueryCodU(q, k, ws);
  rng = ws.rng();
  return result;
}

std::vector<CodResult> DynamicCodService::QueryBatch(
    std::span<const QuerySpec> specs, TaskScheduler& scheduler,
    uint64_t batch_seed, const BatchOptions& options,
    BatchStats* stats) const {
  const EpochSnapshot snap = Snapshot();  // keeps the epoch alive throughout
  return RunQueryBatch(*snap.core, specs, scheduler, batch_seed, options,
                       stats);
}

}  // namespace cod

#include "layers.h"

#include <cstdio>

#include "common/metrics.h"
#include "common/random.h"
#include "common/task_scheduler.h"
#include "core/engine_core.h"
#include "eval/datasets.h"
#include "eval/query_gen.h"
#include "graph/graph.h"
#include "hierarchy/agglomerative.h"
#include "serving/partition.h"
#include "storage/epoch_snapshot.h"
#include "trace.h"

namespace perfbench {
namespace {

cod::Graph BuildGraph(size_t num_nodes, std::span<const Edge> edges) {
  cod::GraphBuilder builder(num_nodes);
  for (const Edge& e : edges) builder.AddEdge(e.u, e.v, e.weight);
  return std::move(builder).Build();
}

cod::AttributeTable CopyAttributes(const cod::AttributeTable& attrs) {
  cod::AttributeTableBuilder builder;
  for (cod::AttributeId a = 0; a < attrs.NumAttributes(); ++a) {
    builder.Intern(attrs.Name(a));  // keep attribute ids stable
  }
  for (NodeId v = 0; v < attrs.NumNodes(); ++v) {
    for (const cod::AttributeId a : attrs.AttributesOf(v)) builder.Add(v, a);
  }
  return std::move(builder).Build(attrs.NumNodes());
}

}  // namespace

World MakeWorld(const std::vector<std::pair<std::string, size_t>>& parts) {
  World world;
  cod::AttributeTableBuilder attrs;
  for (const auto& [name, copies] : parts) {
    cod::Result<cod::AttributedGraph> data = cod::MakeDataset(name);
    if (!data.ok()) {
      std::fprintf(stderr, "dataset %s: %s\n", name.c_str(),
                   data.status().ToString().c_str());
      std::exit(2);
    }
    const cod::Graph& g = data->graph;
    for (size_t c = 0; c < copies; ++c) {
      const NodeId base = static_cast<NodeId>(world.num_nodes);
      for (cod::EdgeId e = 0; e < g.NumEdges(); ++e) {
        const auto [u, v] = g.Endpoints(e);
        world.edges.push_back({base + u, base + v, g.Weight(e)});
      }
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        for (const cod::AttributeId a : data->attributes.AttributesOf(v)) {
          attrs.Add(base + v, data->attributes.Name(a));
        }
      }
      world.num_nodes += g.NumNodes();
    }
  }
  world.attrs = std::move(attrs).Build(world.num_nodes);
  return world;
}

std::vector<QueryPoint> DrawQueries(const World& world, size_t count,
                                    uint64_t seed) {
  cod::Rng rng(seed);
  std::vector<QueryPoint> out;
  for (const cod::Query& q : cod::GenerateQueries(world.attrs, count, rng)) {
    out.push_back({q.node, q.attribute});
  }
  return out;
}

std::unique_ptr<cod::TaskScheduler> MakeScheduler(size_t workers) {
  return std::make_unique<cod::TaskScheduler>(workers);
}

std::vector<cod::CodResult> Service::Query(
    std::span<const cod::QuerySpec> specs, cod::TaskScheduler& scheduler,
    uint64_t batch_seed, cod::BatchStats* stats) const {
  Span span("serving.query_batch");
  return impl_->QueryBatch(specs, scheduler, batch_seed, cod::BatchOptions{},
                           stats);
}

bool Service::AddEdge(NodeId u, NodeId v, double weight) {
  Span span("serving.add_edge");
  return impl_->AddEdge(u, v, weight);
}

bool Service::RemoveEdge(NodeId u, NodeId v) {
  Span span("serving.remove_edge");
  return impl_->RemoveEdge(u, v);
}

bool Service::RefreshAsync() {
  Span span("serving.refresh_async");
  return impl_->RefreshAsync();
}

void Service::WaitForRebuild() {
  Span span("serving.wait_for_rebuild");
  impl_->WaitForRebuild();
}

uint64_t Service::epoch() const { return impl_->epoch(); }
bool Service::epoch_degraded() const { return impl_->epoch_degraded(); }

ServiceInput CopyInput(const World& world, std::span<const Edge> edges) {
  return {BuildGraph(world.num_nodes, edges), CopyAttributes(world.attrs)};
}

std::unique_ptr<Service> MakeService(ServiceInput input,
                                     const cod::ServiceOptions& options) {
  Span span("serving.make_service");
  return std::make_unique<Service>(cod::MakeCodService(
      std::move(input.graph), std::move(input.attrs), options));
}

std::unique_ptr<Service> RecoverService(ServiceInput input,
                                        const cod::ServiceOptions& options) {
  Span span("serving.recover_service");
  auto recovered = cod::RecoverCodService(options, std::move(input.graph),
                                          std::move(input.attrs));
  if (!recovered.ok()) {
    std::fprintf(stderr, "recover: %s\n",
                 recovered.status().ToString().c_str());
    return nullptr;
  }
  return std::make_unique<Service>(std::move(recovered).value());
}

std::vector<uint32_t> PartitionNodes(const World& world,
                                     std::span<const Edge> edges,
                                     uint32_t num_shards,
                                     cod::PartitionStrategy strategy) {
  const cod::Graph graph = BuildGraph(world.num_nodes, edges);
  Span span("serving.partition");
  return cod::PartitionGraph(graph, world.attrs, num_shards, strategy)
      .shard_of_node;
}

ColdBuildResult RunColdBuild(const World& world, std::span<const Edge> edges,
                             const cod::ServiceOptions& options,
                             const std::string& snapshot_path) {
  ColdBuildResult out;
  auto attrs = std::make_shared<const cod::AttributeTable>(
      CopyAttributes(world.attrs));

  std::shared_ptr<const cod::Graph> graph;
  {
    Span span("graph.build");
    graph = std::make_shared<const cod::Graph>(
        BuildGraph(world.num_nodes, edges));
  }

  cod::Dendrogram hierarchy;
  {
    Span span("hierarchy.cluster");
    hierarchy = cod::AgglomerativeCluster(*graph);
  }

  std::shared_ptr<const cod::EngineCore> core;
  {
    Span span("core.himor_build");
    auto made = cod::EngineCore::FromPrebuilt(
        graph, attrs, options.engine, std::move(hierarchy),
        /*himor=*/std::nullopt, /*sketch=*/std::nullopt,
        /*index_absent_degraded=*/false);
    if (!made.ok()) return out;
    std::unique_ptr<cod::EngineCore> built = std::move(made).value();
    cod::HimorSampleCache cache;
    cod::HimorDeltaStats stats;
    const cod::Status s = built->TryBuildHimorDelta(
        options.seed, cod::Budget{}, /*dirty=*/nullptr, /*prev=*/nullptr,
        &cache, &stats);
    if (!s.ok()) return out;
    out.rr_samples = stats.samples_total;
    core = std::move(built);
  }

  cod::EpochSnapshotMeta meta;
  meta.epoch = 1;
  meta.seed = options.seed;
  meta.options_fingerprint = options.Fingerprint();
  std::string bytes;
  {
    Span span("storage.encode");
    bytes = cod::EncodeEpochSnapshot(meta, *core);
  }
  out.snapshot_mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);

  {
    Span span("storage.write");
    if (!cod::WriteEpochSnapshotFile(snapshot_path, bytes).ok()) return out;
  }

  {
    Span span("storage.decode");
    if (!cod::DecodeEpochSnapshot(bytes, snapshot_path).ok()) return out;
  }
  out.ok = true;
  return out;
}

RegistryScrape ScrapeRegistry() {
  cod::MetricsRegistry& reg = cod::MetricsRegistry::Instance();
  RegistryScrape s;
  for (size_t p = 0; p < cod::kNumTaskPriorities; ++p) {
    s.sched_submitted +=
        reg.GetCounter(std::string("cod_sched_submitted_total{priority=\"") +
                       cod::TaskPriorityName(static_cast<cod::TaskPriority>(p)) +
                       "\"}")
            ->Value();
  }
  s.sched_stolen = reg.GetCounter("cod_sched_stolen_total")->Value();
  const cod::Histogram* delay =
      reg.GetHistogram("cod_sched_queue_delay_seconds");
  s.queue_delay_bounds = delay->bounds();
  s.queue_delay_buckets = delay->BucketCounts();
  s.delta_attempts = reg.GetCounter("cod_rebuild_delta_attempts_total")->Value();
  s.delta_fallbacks =
      reg.GetCounter("cod_rebuild_delta_fallbacks_total")->Value();
  s.samples_reused =
      reg.GetCounter("cod_rebuild_delta_samples_reused_total")->Value();
  s.samples_replayed =
      reg.GetCounter("cod_rebuild_delta_samples_replayed_total")->Value();
  s.samples_resampled =
      reg.GetCounter("cod_rebuild_delta_samples_resampled_total")->Value();
  return s;
}

std::string RegistryJson() { return cod::MetricsRegistry::Instance().JsonDump(); }

}  // namespace perfbench

// Every call the benchmark makes into the library's src/ modules lives in
// layers.cc, behind the functions below, so a change to the library's API
// edits this one file. Each call that the traced run attributes to a layer
// opens a Span (trace.h) named "<layer>.<operation>".
//
// The benchmark drives serving only through CodServiceInterface and its
// factories (MakeCodService, RecoverCodService). The build-side and storage
// timings call the public entry points of graph/, hierarchy/, core/ and
// storage/ on the workload's own graph, outside the serving path.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "serving/service_interface.h"

namespace perfbench {

using cod::NodeId;

struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  double weight = 1.0;
};

// A generated input: disjoint copies of built-in synthetic datasets, node
// ids offset per copy. Kept as an edge list plus attribute table so every
// service construction gets fresh copies of the same input.
struct World {
  size_t num_nodes = 0;
  std::vector<Edge> edges;
  cod::AttributeTable attrs;
};

// Builds the world from (dataset name, copies) pairs with eval/datasets.
// Never timed.
World MakeWorld(const std::vector<std::pair<std::string, size_t>>& parts);

// `count` (node, attribute) query pairs drawn with eval/query_gen from the
// world's attribute table; the same seed gives the same pairs.
struct QueryPoint {
  NodeId node = 0;
  cod::AttributeId attr = 0;
};
std::vector<QueryPoint> DrawQueries(const World& world, size_t count,
                                    uint64_t seed);

std::unique_ptr<cod::TaskScheduler> MakeScheduler(size_t workers);

// A serving instance. Every method forwards to CodServiceInterface inside
// a span named "serving.<method>".
class Service {
 public:
  explicit Service(std::unique_ptr<cod::CodServiceInterface> impl)
      : impl_(std::move(impl)) {}

  std::vector<cod::CodResult> Query(std::span<const cod::QuerySpec> specs,
                                    cod::TaskScheduler& scheduler,
                                    uint64_t batch_seed,
                                    cod::BatchStats* stats) const;
  bool AddEdge(NodeId u, NodeId v, double weight);
  bool RemoveEdge(NodeId u, NodeId v);
  bool RefreshAsync();
  void WaitForRebuild();
  uint64_t epoch() const;
  bool epoch_degraded() const;

 private:
  std::unique_ptr<cod::CodServiceInterface> impl_;
};

// Fresh copies of a world's graph (over `edges`) and attribute table: the
// inputs MakeCodService and RecoverCodService consume. Made outside any
// timed region.
struct ServiceInput {
  cod::Graph graph;
  cod::AttributeTable attrs;
};
ServiceInput CopyInput(const World& world, std::span<const Edge> edges);

// MakeCodService, inside a "serving.make_service" span.
std::unique_ptr<Service> MakeService(ServiceInput input,
                                     const cod::ServiceOptions& options);

// RecoverCodService from options.snapshot_dir, with `input` as the cold
// fallback, inside a "serving.recover_service" span. Null on failure (the
// status is written to stderr).
std::unique_ptr<Service> RecoverService(ServiceInput input,
                                        const cod::ServiceOptions& options);

// Node -> shard assignment the sharded service computes (PartitionGraph).
std::vector<uint32_t> PartitionNodes(const World& world,
                                     std::span<const Edge> edges,
                                     uint32_t num_shards,
                                     cod::PartitionStrategy strategy);

// One cold epoch build outside the service, stage by stage, on the given
// edge set with the service's engine options and seed, then one snapshot
// encode / durable write / decode of the built epoch. The stages are the
// ones a cold rebuild runs: CSR graph build, agglomerative clustering, and
// one EngineCore HIMOR build (counter-seeded, RR sampling and sketch
// included). Each stage runs inside its own span ("graph.build",
// "hierarchy.cluster", "core.himor_build", "storage.encode",
// "storage.write" including fsync, "storage.decode"), from which the
// caller reads the stage times.
struct ColdBuildResult {
  uint64_t rr_samples = 0;
  double snapshot_mb = 0.0;
  bool ok = false;
};
ColdBuildResult RunColdBuild(const World& world, std::span<const Edge> edges,
                             const cod::ServiceOptions& options,
                             const std::string& snapshot_path);

// Values read from the process-wide MetricsRegistry.
struct RegistryScrape {
  uint64_t sched_submitted = 0;  // all priorities
  uint64_t sched_stolen = 0;
  std::vector<double> queue_delay_bounds;     // seconds, upper bounds
  std::vector<uint64_t> queue_delay_buckets;  // bounds.size() + 1 buckets
  uint64_t delta_attempts = 0;
  uint64_t delta_fallbacks = 0;
  uint64_t samples_reused = 0;
  uint64_t samples_replayed = 0;
  uint64_t samples_resampled = 0;
};
RegistryScrape ScrapeRegistry();
// The whole registry as JSON, for the trace file.
std::string RegistryJson();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

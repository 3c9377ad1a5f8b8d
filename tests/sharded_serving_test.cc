// Sharded serving tier (src/serving/): component-atomic partitioning, the
// deterministic scatter/gather router, shard-aware degradation, and the
// per-shard snapshot layout behind ShardedCodService::Recover.
//
// The flagship assertions are the ISSUE's acceptance criteria:
//   * merged QueryBatch answers are BIT-IDENTICAL across 1/2/4 shards and
//     across worker counts (on a synthetic multi-component world and on
//     cora-sim, the CI-pinned dataset);
//   * a failpoint-stalled rebuild on shard 0 never blocks shard 1's
//     queries;
//   * a shard-wide deadline miss ("serving/shard_deadline") degrades that
//     shard's slice deterministically instead of erroring the batch;
//   * Recover() cold-rebuilds a shard whose snapshots are missing or
//     corrupt while warm-restoring the others;
//   * shard construction and Recover() give the same bytes, answers and
//     statuses with no scheduler, one worker or four.
//
// CI runs this binary once per shard count (COD_SHARD_COUNT=1/2/4); when
// the variable is set the cross-layout suites compare that layout against
// the 1-shard baseline, otherwise they sweep all three in-process.

#include "serving/sharded_service.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/task_scheduler.h"
#include "core/query_workspace.h"
#include "eval/datasets.h"
#include "eval/query_gen.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "serving/partition.h"
#include "serving/service_interface.h"
#include "tests/test_util.h"

namespace cod {
namespace {

namespace fs = std::filesystem;

struct World {
  Graph graph;
  AttributeTable attrs;
};

// `parts` disjoint HPP blocks glued into one graph: every part is (at
// least) one connected component of its own, so a component-atomic
// partition has real spreading to do.
World MakeMultiWorld(uint64_t seed, size_t parts) {
  constexpr size_t kNodesPerPart = 60;
  constexpr size_t kEdgesPerPart = 220;
  Rng rng(seed);
  GraphBuilder gb(parts * kNodesPerPart);
  std::vector<uint32_t> block(parts * kNodesPerPart, 0);
  uint32_t next_block = 0;
  for (size_t p = 0; p < parts; ++p) {
    HppParams params;
    params.num_nodes = kNodesPerPart;
    params.num_edges = kEdgesPerPart;
    params.levels = 2;
    params.fanout = 3;
    GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
    const NodeId base = static_cast<NodeId>(p * kNodesPerPart);
    for (EdgeId e = 0; e < gen.graph.NumEdges(); ++e) {
      const auto [u, v] = gen.graph.Endpoints(e);
      gb.AddEdge(base + u, base + v, gen.graph.Weight(e));
    }
    for (size_t v = 0; v < kNodesPerPart; ++v) {
      block[base + v] = next_block + gen.block[v];
    }
    next_block += gen.num_blocks;
  }
  World w;
  w.graph = std::move(gb).Build();
  w.attrs = AssignCorrelatedAttributes(block, 5, 0.8, 0.1, rng);
  return w;
}

ServiceOptions BaseOptions(uint32_t num_shards) {
  ServiceOptions options;
  options.rebuild_threshold = 0.5;
  options.seed = 7;
  options.num_shards = num_shards;
  // The 1-shard baseline must answer from the same component-scoped world
  // the shard engines are forced into, or the comparison is meaningless.
  options.engine.component_scoped = true;
  return options;
}

// A mixed CODL/CODU workload over the attributed nodes.
std::vector<QuerySpec> MakeSpecs(const AttributeTable& attrs, size_t count,
                                 uint64_t seed) {
  Rng rng(seed);
  const std::vector<Query> queries = GenerateQueries(attrs, count, rng);
  std::vector<QuerySpec> specs;
  specs.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QuerySpec spec;
    spec.node = queries[i].node;
    if (i % 3 == 2) {
      spec.variant = CodVariant::kCodU;
    } else {
      spec.variant = CodVariant::kCodL;
      spec.attrs = {queries[i].attribute};
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

void ExpectSameResults(const std::vector<CodResult>& a,
                       const std::vector<CodResult>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(testing::SameResult(a[i], b[i]))
        << label << ": query " << i << " diverged";
  }
}

// Shard counts the cross-layout suites sweep. CI's matrix sets
// COD_SHARD_COUNT so each job pins one layout against the baseline.
std::vector<uint32_t> ShardCountsUnderTest() {
  if (const char* env = std::getenv("COD_SHARD_COUNT")) {
    const uint32_t n = static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
    if (n > 1) return {1, n};
    return {1};
  }
  return {1, 2, 4};
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sharded_serving-" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Partitioning.
// ---------------------------------------------------------------------------

TEST(PartitionTest, NeverSplitsAComponent) {
  World w = MakeMultiWorld(1, 4);
  const Components comps = ConnectedComponents(w.graph);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kConnectedComponents,
        PartitionStrategy::kAttributeLocality}) {
    const GraphPartition part =
        PartitionGraph(w.graph, w.attrs, 3, strategy);
    ASSERT_EQ(part.shard_of_node.size(), w.graph.NumNodes());
    ASSERT_EQ(part.num_shards, 3u);
    // Same component => same shard (checking labels covers every edge).
    std::vector<uint32_t> shard_of_comp(comps.count, kInvalidNode);
    for (NodeId v = 0; v < w.graph.NumNodes(); ++v) {
      uint32_t& expected = shard_of_comp[comps.label[v]];
      if (expected == kInvalidNode) expected = part.shard_of_node[v];
      EXPECT_EQ(part.shard_of_node[v], expected)
          << "component " << comps.label[v] << " split at node " << v;
    }
  }
}

TEST(PartitionTest, ShardGraphsTileTheEdgeSet) {
  World w = MakeMultiWorld(2, 3);
  const GraphPartition part = PartitionGraph(
      w.graph, w.attrs, 2, PartitionStrategy::kConnectedComponents);
  ASSERT_EQ(part.local_of_node.size(), w.graph.NumNodes());
  ASSERT_EQ(part.global_of_local.size(), 2u);
  // The two id maps are inverse, and each shard's is strictly ascending.
  for (NodeId v = 0; v < w.graph.NumNodes(); ++v) {
    const uint32_t s = part.shard_of_node[v];
    ASSERT_LT(part.local_of_node[v], part.global_of_local[s].size());
    EXPECT_EQ(part.global_of_local[s][part.local_of_node[v]], v);
  }
  // Every input edge, as (u, v, weight) in global ids.
  std::vector<std::tuple<NodeId, NodeId, double>> want;
  for (EdgeId e = 0; e < w.graph.NumEdges(); ++e) {
    const auto [u, v] = w.graph.Endpoints(e);
    want.emplace_back(u, v, w.graph.Weight(e));
  }
  std::vector<std::tuple<NodeId, NodeId, double>> got;
  for (uint32_t s = 0; s < 2; ++s) {
    const std::vector<NodeId>& global = part.global_of_local[s];
    ASSERT_EQ(global.size(), part.shard_nodes[s]);
    for (size_t i = 1; i < global.size(); ++i) {
      EXPECT_LT(global[i - 1], global[i]) << "shard " << s;
    }
    for (size_t i = 0; i < global.size(); ++i) {
      EXPECT_EQ(part.shard_of_node[global[i]], s);
      EXPECT_EQ(part.local_of_node[global[i]], i);
    }
    const Graph shard = BuildShardGraph(w.graph, part, s);
    EXPECT_EQ(shard.NumNodes(), part.shard_nodes[s]);  // compact ids
    EXPECT_GT(shard.NumEdges(), 0u);
    for (EdgeId e = 0; e < shard.NumEdges(); ++e) {
      const auto [u, v] = shard.Endpoints(e);
      got.emplace_back(global[u], global[v], shard.Weight(e));
    }
  }
  // The translated shard edges are exactly the input's, each once.
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

TEST(PartitionTest, SingleComponentLeavesExtraShardsEmpty) {
  // One clique = one component: with 4 shards, three must be empty, and
  // the service must still serve every query.
  Graph g = testing::MakeClique(8);
  AttributeTableBuilder ab;
  for (NodeId v = 0; v < 8; ++v) ab.Add(v, "X");
  AttributeTable attrs = std::move(ab).Build(8);
  const GraphPartition part = PartitionGraph(
      g, attrs, 4, PartitionStrategy::kConnectedComponents);
  const uint32_t home = part.shard_of_node[0];
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(part.shard_of_node[v], home);

  ShardedCodService service(std::move(g), std::move(attrs), BaseOptions(4));
  EXPECT_EQ(service.num_shards(), 4u);
  Rng rng(3);
  EXPECT_TRUE(service.QueryCodL(0, 0, 3, rng).found);
}

TEST(PartitionTest, OneNodeShardServesAndRecovers) {
  // An 8-clique plus one isolated node over 2 shards: shard 1 holds just
  // the singleton, a one-node graph with no community above its leaf.
  const auto make = [] {
    World w;
    GraphBuilder gb(9);
    for (NodeId u = 0; u < 8; ++u) {
      for (NodeId v = u + 1; v < 8; ++v) gb.AddEdge(u, v);
    }
    w.graph = std::move(gb).Build();
    AttributeTableBuilder ab;
    for (NodeId v = 0; v < 9; ++v) ab.Add(v, "X");
    w.attrs = std::move(ab).Build(9);
    return w;
  };
  ServiceOptions options = BaseOptions(2);
  options.snapshot_dir = FreshDir("one-node-shard");
  std::vector<CodResult> before;
  const std::vector<QuerySpec> specs = [] {
    std::vector<QuerySpec> out(4);
    out[0].node = 0;
    out[0].attrs = {0};
    out[1].node = 8;
    out[1].attrs = {0};
    out[2].variant = CodVariant::kCodU;
    out[2].node = 8;
    out[3].variant = CodVariant::kCodU;
    out[3].node = 3;
    return out;
  }();
  TaskScheduler scheduler(2);
  {
    World w = make();
    ShardedCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
    ASSERT_EQ(service.partition().shard_nodes[1], 1u);
    EXPECT_EQ(service.shard(1).engine().graph().NumNodes(), 1u);
    before = service.QueryBatch(specs, scheduler, /*batch_seed=*/9);
    EXPECT_TRUE(before[0].found);
    EXPECT_FALSE(before[1].found);  // a singleton has no community
    EXPECT_EQ(before[1].code, StatusCode::kOk);
    EXPECT_FALSE(before[2].found);
    Rng rng(1);
    EXPECT_FALSE(service.QueryCodU(8, 3, rng).found);
  }
  World cold = make();
  Result<std::unique_ptr<ShardedCodService>> recovered =
      ShardedCodService::Recover(options, std::move(cold.graph),
                                 std::move(cold.attrs));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameResults((*recovered)->QueryBatch(specs, scheduler, 9), before,
                    "one-node shard after recovery");
}

// ---------------------------------------------------------------------------
// Determinism across layouts and worker counts (the flagship contract).
// ---------------------------------------------------------------------------

TEST(ShardedDeterminismTest, BatchBitIdenticalAcrossShardAndWorkerCounts) {
  World base = MakeMultiWorld(10, 4);
  const std::vector<QuerySpec> specs = MakeSpecs(base.attrs, 40, 99);
  constexpr uint64_t kBatchSeed = 1234;

  std::vector<CodResult> reference;
  for (const uint32_t num_shards : ShardCountsUnderTest()) {
    World w = MakeMultiWorld(10, 4);  // same seed => same world
    const std::unique_ptr<CodServiceInterface> service = MakeCodService(
        std::move(w.graph), std::move(w.attrs), BaseOptions(num_shards));
    for (const uint32_t workers : {1u, 4u}) {
      TaskScheduler scheduler(workers);
      BatchStats stats;
      const std::vector<CodResult> got = service->QueryBatch(
          specs, scheduler, kBatchSeed, BatchOptions{}, &stats);
      EXPECT_EQ(stats.Served(), specs.size());
      EXPECT_EQ(stats.shard_missed, 0u);
      if (reference.empty()) {
        reference = got;
        ASSERT_EQ(reference.size(), specs.size());
        continue;
      }
      ExpectSameResults(got, reference,
                        "shards=" + std::to_string(num_shards) +
                            " workers=" + std::to_string(workers));
    }
  }
  // The workload must actually find communities for the comparison to
  // mean anything.
  size_t found = 0;
  for (const CodResult& r : reference) found += r.found;
  EXPECT_GT(found, specs.size() / 2);
}

TEST(ShardedDeterminismTest, BatchBitIdenticalOnCoraSim) {
  const std::vector<QuerySpec>* specs_ptr = nullptr;
  std::vector<QuerySpec> specs;
  std::vector<CodResult> reference;
  for (const uint32_t num_shards : ShardCountsUnderTest()) {
    Result<AttributedGraph> data = MakeDataset("cora-sim");
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    if (specs_ptr == nullptr) {
      specs = MakeSpecs(data->attributes, 32, 5);
      specs_ptr = &specs;
    }
    const std::unique_ptr<CodServiceInterface> service =
        MakeCodService(std::move(data->graph), std::move(data->attributes),
                       BaseOptions(num_shards));
    TaskScheduler scheduler(4);
    const std::vector<CodResult> got =
        service->QueryBatch(*specs_ptr, scheduler, /*batch_seed=*/77);
    if (reference.empty()) {
      reference = got;
      continue;
    }
    ExpectSameResults(got, reference,
                      "cora-sim shards=" + std::to_string(num_shards));
  }
}

TEST(ShardedDeterminismTest, AttributeLocalityLayoutAnswersIdentically) {
  // The partitioner decides WHERE a query runs, never WHAT it answers:
  // both strategies must merge to the same vector.
  const std::vector<QuerySpec> specs =
      MakeSpecs(MakeMultiWorld(11, 3).attrs, 24, 42);
  std::vector<CodResult> reference;
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kConnectedComponents,
        PartitionStrategy::kAttributeLocality}) {
    World w = MakeMultiWorld(11, 3);
    ServiceOptions options = BaseOptions(2);
    options.partitioner = strategy;
    const std::unique_ptr<CodServiceInterface> service =
        MakeCodService(std::move(w.graph), std::move(w.attrs), options);
    TaskScheduler scheduler(3);
    const std::vector<CodResult> got =
        service->QueryBatch(specs, scheduler, /*batch_seed=*/7);
    if (reference.empty()) {
      reference = got;
      continue;
    }
    ExpectSameResults(got, reference, "attribute-locality layout");
  }
}

// ---------------------------------------------------------------------------
// Compact shards against the whole-graph engine, node by node and through
// the router's update path.
// ---------------------------------------------------------------------------

// One update the router and the mono service both receive: an added (or
// reweighted) edge, or a removal.
struct EdgeUpdate {
  bool add;
  NodeId u;
  NodeId v;
  double weight;
};

// Updates that keep every edge inside one component (so no router can
// reject them): even steps close a wedge a-b-c with edge (a, c) or
// reweight it when present, odd steps remove an edge.
std::vector<EdgeUpdate> MakeUpdates(const Graph& g, size_t count,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeUpdate> updates;
  while (updates.size() < count) {
    const auto b = static_cast<NodeId>(rng.UniformInt(g.NumNodes()));
    const auto nbrs = g.Neighbors(b);
    if (nbrs.size() < 2) continue;
    const NodeId a = nbrs[rng.UniformInt(nbrs.size())].to;
    const NodeId c = nbrs[rng.UniformInt(nbrs.size())].to;
    if (a == c) continue;
    if (updates.size() % 2 == 0) {
      updates.push_back({true, a, c, 2.0});
    } else {
      updates.push_back({false, a, b, 0.0});
    }
  }
  return updates;
}

void ApplyUpdates(CodServiceInterface& service,
                  const std::vector<EdgeUpdate>& updates) {
  for (const EdgeUpdate& up : updates) {
    if (up.add) {
      EXPECT_TRUE(service.AddEdge(up.u, up.v, up.weight));
    } else {
      service.RemoveEdge(up.u, up.v);  // may already be gone
    }
  }
}

// Every exact variant over the attributed nodes.
std::vector<QuerySpec> MakeAllVariantSpecs(const AttributeTable& attrs,
                                           size_t count, uint64_t seed) {
  constexpr CodVariant kVariants[] = {
      CodVariant::kCodL, CodVariant::kCodU, CodVariant::kCodLMinus,
      CodVariant::kCodUIndexed, CodVariant::kCodR};
  std::vector<QuerySpec> specs = MakeSpecs(attrs, count, seed);
  for (size_t i = 0; i < specs.size(); ++i) {
    const AttributeId attr = attrs.AttributesOf(specs[i].node)[0];
    specs[i].variant = kVariants[i % 5];
    specs[i].attrs = {attr};
  }
  return specs;
}

ServiceOptions EquivalenceOptions(uint32_t num_shards, bool delta) {
  ServiceOptions options = BaseOptions(num_shards);
  options.engine.sketch_bits = 6;
  options.delta_rebuild = delta;
  // Every refresh with a carry takes the incremental path.
  options.delta_max_dirty_fraction = 1.0;
  return options;
}

// Community `c` of `core` as a sorted set of global ids.
std::vector<NodeId> GlobalMembers(const EngineCore& core, CommunityId c) {
  std::vector<NodeId> out;
  for (const NodeId v : core.base_hierarchy().Members(c)) {
    out.push_back(NodeKey(core.node_keys(), v));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// A query of `variant` at node v of `core`, from a workspace reseeded by
// the node's global id, with the members renamed into global ids.
CodResult QueryAt(const EngineCore& core, QueryWorkspace& ws, NodeId v,
                  CodVariant variant) {
  const NodeId g = NodeKey(core.node_keys(), v);
  const auto attrs = core.attributes().AttributesOf(v);
  QuerySpec spec;
  spec.variant = variant;
  spec.node = v;
  spec.k = 4;
  if (!attrs.empty()) spec.attrs = {attrs[0]};
  ws.ReseedRng(1000 + g);
  CodResult result = core.Query(spec, ws);
  for (NodeId& m : result.members) m = NodeKey(core.node_keys(), m);
  return result;
}

// Compares what shard core `shard` keeps for its nodes and communities
// with what `mono` keeps for the same global nodes and member sets: HIMOR
// entries (members + rank), sketch top counts, each materialized
// community's sketch row, and CODU / CODL / CODL- answers. Returns the
// number of materialized communities compared.
size_t ExpectShardMatchesMono(const EngineCore& shard, const EngineCore& mono,
                              const std::string& label) {
  EXPECT_NE(shard.global_ids(), nullptr) << label;
  if (shard.himor() == nullptr || mono.himor() == nullptr ||
      shard.sketch() == nullptr || mono.sketch() == nullptr) {
    ADD_FAILURE() << label << ": index or sketch missing";
    return 0;
  }
  const CoverageSketchIndex& ssk = *shard.sketch();
  const CoverageSketchIndex& msk = *mono.sketch();
  QueryWorkspace shard_ws(shard, 0);
  QueryWorkspace mono_ws(mono, 0);
  for (NodeId v = 0; v < shard.graph().NumNodes(); ++v) {
    const NodeId g = NodeKey(shard.node_keys(), v);
    const std::string at = label + " node " + std::to_string(g);
    const auto got = shard.himor()->RanksOf(v);
    const auto want = mono.himor()->RanksOf(g);
    EXPECT_EQ(got.size(), want.size()) << at;
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].rank, want[i].rank) << at << " entry " << i;
      EXPECT_EQ(GlobalMembers(shard, got[i].community),
                GlobalMembers(mono, want[i].community))
          << at << " entry " << i;
    }
    EXPECT_EQ(ssk.TopCountOf(v), msk.TopCountOf(g)) << at;
    for (const CodVariant variant :
         {CodVariant::kCodU, CodVariant::kCodL, CodVariant::kCodLMinus}) {
      EXPECT_TRUE(testing::SameResult(QueryAt(shard, shard_ws, v, variant),
                                      QueryAt(mono, mono_ws, g, variant)))
          << at << " variant " << CodVariantName(variant);
    }
  }
  std::map<std::vector<NodeId>, CommunityId> mono_by_members;
  for (CommunityId c = 0; c < msk.NumCommunities(); ++c) {
    if (!msk.ThresholdsOf(c).empty()) {
      mono_by_members[GlobalMembers(mono, c)] = c;
    }
  }
  size_t compared = 0;
  for (CommunityId c = 0; c < ssk.NumCommunities(); ++c) {
    if (ssk.ThresholdsOf(c).empty()) continue;
    const auto it = mono_by_members.find(GlobalMembers(shard, c));
    if (it == mono_by_members.end()) {
      ADD_FAILURE() << label << ": community " << c << " has no mono twin";
      continue;
    }
    const CommunityId m = it->second;
    const auto same = [](auto a, auto b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    EXPECT_TRUE(same(ssk.SignatureOf(c), msk.SignatureOf(m)))
        << label << " community " << c;
    EXPECT_TRUE(same(ssk.ThresholdsOf(c), msk.ThresholdsOf(m)))
        << label << " community " << c;
    EXPECT_EQ(ssk.SupportOf(c), msk.SupportOf(m)) << label;
    ++compared;
  }
  return compared;
}

size_t MaterializedCommunities(const EngineCore& core) {
  size_t count = 0;
  for (CommunityId c = 0; c < core.sketch()->NumCommunities(); ++c) {
    count += !core.sketch()->ThresholdsOf(c).empty();
  }
  return count;
}

// ROADMAP item 6's done-when as a test: a compact shard keeps, for every
// node it owns, the very index entries and sketch rows the whole-graph
// component-scoped engine keeps, after the cold build and after a delta
// rebuild.
TEST(ShardEquivalenceTest, CompactShardsMatchMonoNodeByNode) {
  const World probe = MakeMultiWorld(80, 6);
  const std::vector<EdgeUpdate> updates = MakeUpdates(probe.graph, 12, 81);
  for (const uint32_t num_shards : {2u, 4u}) {
    World mono_world = MakeMultiWorld(80, 6);
    World shard_world = MakeMultiWorld(80, 6);
    DynamicCodService mono(std::move(mono_world.graph),
                           std::move(mono_world.attrs),
                           EquivalenceOptions(1, /*delta=*/true));
    ShardedCodService sharded(std::move(shard_world.graph),
                              std::move(shard_world.attrs),
                              EquivalenceOptions(num_shards, /*delta=*/true));
    for (const char* stage : {"cold", "delta"}) {
      if (std::string(stage) == "delta") {
        ApplyUpdates(mono, updates);
        ApplyUpdates(sharded, updates);
        Counter* reused = MetricsRegistry::Instance().GetCounter(
            "cod_rebuild_delta_samples_reused_total");
        const uint64_t before = reused->Value();
        ASSERT_TRUE(sharded.Refresh().ok());
        // The shards' refresh took the incremental path (only it reuses
        // samples), which redraws the samples the updates dirtied.
        EXPECT_GT(reused->Value(), before);
        ASSERT_TRUE(mono.Refresh().ok());
      }
      size_t compared = 0;
      for (uint32_t s = 0; s < num_shards; ++s) {
        const EngineCore& core = sharded.shard(s).engine();
        EXPECT_EQ(core.graph().NumNodes(), sharded.partition().shard_nodes[s]);
        compared += ExpectShardMatchesMono(
            core, mono.engine(),
            std::string(stage) + " shards=" + std::to_string(num_shards) +
                " shard " + std::to_string(s));
      }
      // Every materialized community lives on exactly one shard.
      EXPECT_EQ(compared, MaterializedCommunities(mono.engine()))
          << stage << " shards=" << num_shards;
      EXPECT_GT(compared, 0u);
    }
  }
}

// Updates enter the router in global ids and reach the owning shard in its
// local ids; after a refresh the merged answers equal a mono
// component-scoped service that received the same updates, with delta
// rebuilds on and off.
TEST(ShardEquivalenceTest, UpdatesThroughTheRouterMatchMono) {
  const World probe = MakeMultiWorld(90, 6);
  const std::vector<EdgeUpdate> updates = MakeUpdates(probe.graph, 16, 91);
  const std::vector<QuerySpec> specs =
      MakeAllVariantSpecs(probe.attrs, 60, 92);
  for (const bool delta : {false, true}) {
    std::vector<CodResult> reference;
    for (const uint32_t num_shards : {1u, 2u, 4u}) {
      World w = MakeMultiWorld(90, 6);
      const std::unique_ptr<CodServiceInterface> service =
          MakeCodService(std::move(w.graph), std::move(w.attrs),
                         EquivalenceOptions(num_shards, delta));
      ApplyUpdates(*service, updates);
      ASSERT_TRUE(service->Refresh().ok());
      TaskScheduler scheduler(2);
      const std::vector<CodResult> got =
          service->QueryBatch(specs, scheduler, /*batch_seed=*/93);
      if (num_shards == 1) {
        reference = got;
        size_t found = 0;
        for (const CodResult& r : got) found += r.found;
        EXPECT_GT(found, specs.size() / 3);
        continue;
      }
      ExpectSameResults(got, reference,
                        std::string(delta ? "delta" : "cold") +
                            " shards=" + std::to_string(num_shards));
    }
  }
}

// ---------------------------------------------------------------------------
// Shard isolation: one shard's rebuild trouble is not another's latency.
// ---------------------------------------------------------------------------

TEST(ShardIsolationTest, StalledRebuildOnOneShardNeverBlocksAnother) {
  World w = MakeMultiWorld(20, 2);
  ServiceOptions options = BaseOptions(2);
  options.rebuild_threshold = 0.01;
  options.async_rebuild = true;
  options.max_rebuild_retries = 3;
  options.rebuild_backoff_initial_ms = 20;
  options.rebuild_backoff_max_ms = 40;
  TaskScheduler scheduler(2);
  options.scheduler = &scheduler;
  ShardedCodService service(std::move(w.graph), std::move(w.attrs), options);

  // Pick one node per shard for targeted updates / probes.
  NodeId on_shard0 = kInvalidNode, on_shard1 = kInvalidNode;
  for (NodeId v = 0; v < service.partition().shard_of_node.size(); ++v) {
    if (service.ShardOf(v) == 0 && on_shard0 == kInvalidNode) on_shard0 = v;
    if (service.ShardOf(v) == 1 && on_shard1 == kInvalidNode) on_shard1 = v;
  }
  ASSERT_NE(on_shard0, kInvalidNode);
  ASSERT_NE(on_shard1, kInvalidNode);

  const World probe_world = MakeMultiWorld(20, 2);
  const std::vector<QuerySpec> all_specs = MakeSpecs(probe_world.attrs, 24, 8);
  std::vector<QuerySpec> shard1_specs;
  for (const QuerySpec& s : all_specs) {
    if (service.ShardOf(s.node) == 1) shard1_specs.push_back(s);
  }
  ASSERT_FALSE(shard1_specs.empty());

  {
    // Every rebuild attempt on ANY engine now fails; only shard 0 will
    // attempt one, and it stays stalled in its retry/backoff loop for the
    // whole scope.
    ScopedFailpoint stall("dynamic_service/rebuild", /*count=*/-1);
    // Drift shard 0 over its threshold and kick ITS engine only into the
    // (doomed) async rebuild; shard 1 has no drift and schedules nothing.
    for (int i = 0; i < 8; ++i) {
      service.AddEdge(on_shard0, static_cast<NodeId>(on_shard0 + 1 + i));
      service.RemoveEdge(on_shard0, static_cast<NodeId>(on_shard0 + 1 + i));
    }
    ASSERT_TRUE(service.shard(0).RefreshDue());
    ASSERT_TRUE(service.shard(0).RefreshAsync());

    // Shard 1 must answer at full service while shard 0 is down: same
    // epoch, no degradation, batch completes without waiting on shard 0's
    // retries (a stall would hang this call past the retry budget — the
    // real latency assertion is that this returns at all, which TSAN's
    // scheduling jitter cannot fake).
    BatchStats stats;
    const std::vector<CodResult> got = service.QueryBatch(
        shard1_specs, scheduler, /*batch_seed=*/3, BatchOptions{}, &stats);
    EXPECT_EQ(stats.Served(), shard1_specs.size());
    EXPECT_EQ(stats.shard_missed, 0u);
    EXPECT_EQ(stats.degraded, 0u);
    EXPECT_EQ(service.shard(1).epoch(), 1u);
    // Shard 1's only build is its initial epoch — it never joined the
    // doomed rebuild.
    EXPECT_EQ(service.shard(1).rebuild_stats().attempts, 1u);
    EXPECT_EQ(service.shard(0).epoch(), 1u);
    service.WaitForRebuild();  // drain the doomed retries before disarming
    EXPECT_GT(Failpoints::Instance().TriggerCount("dynamic_service/rebuild"),
              0u);
    EXPECT_GT(service.rebuild_stats().failures, 0u);
  }

  // Disarmed: the stalled shard recovers on the next refresh; shard 1's
  // epoch stream never moved.
  ASSERT_TRUE(service.shard(0).Refresh().ok());
  EXPECT_GE(service.shard(0).epoch(), 2u);
  EXPECT_EQ(service.shard(1).epoch(), 1u);
  EXPECT_EQ(service.epoch(), 1u);  // MIN over shards: the freshness floor
}

// ---------------------------------------------------------------------------
// Shard-aware degradation: a missed deadline is an answer, not an error.
// ---------------------------------------------------------------------------

TEST(ShardDegradationTest, DeadlineMissedShardDegradesDeterministically) {
  World w = MakeMultiWorld(30, 3);
  ShardedCodService service(std::move(w.graph), std::move(w.attrs),
                            BaseOptions(2));
  const World probe_world = MakeMultiWorld(30, 3);
  const std::vector<QuerySpec> specs = MakeSpecs(probe_world.attrs, 30, 17);
  size_t on_shard0 = 0;
  for (const QuerySpec& s : specs) on_shard0 += service.ShardOf(s.node) == 0;
  ASSERT_GT(on_shard0, 0u);
  ASSERT_LT(on_shard0, specs.size());
  TaskScheduler scheduler(3);

  const std::vector<CodResult> healthy =
      service.QueryBatch(specs, scheduler, /*batch_seed=*/55);

  auto run_degraded = [&](BatchStats* stats) {
    // Polled once per shard in ascending order before submission: count=1
    // deterministically fails exactly shard 0.
    ScopedFailpoint miss("serving/shard_deadline", /*count=*/1);
    return service.QueryBatch(specs, scheduler, /*batch_seed=*/55,
                              BatchOptions{}, stats);
  };
  BatchStats stats;
  const std::vector<CodResult> first = run_degraded(&stats);
  EXPECT_EQ(stats.shard_missed, on_shard0);
  // Outcomes partition: the missed shard's queries live ONLY in
  // shard_missed; the rest are real answers. Nothing errored.
  EXPECT_EQ(stats.Served(), specs.size() - on_shard0);
  EXPECT_EQ(stats.Served() + stats.shard_missed + stats.timeout +
                stats.cancelled,
            specs.size());
  EXPECT_EQ(stats.timeout, 0u);
  EXPECT_EQ(stats.cancelled, 0u);

  for (size_t i = 0; i < specs.size(); ++i) {
    if (service.ShardOf(specs[i].node) == 0) {
      // The missed shard's slice: degraded non-answers.
      EXPECT_EQ(first[i].code, StatusCode::kOk);
      EXPECT_FALSE(first[i].found);
      EXPECT_TRUE(first[i].degraded);
    } else {
      // The healthy shards' answers are untouched by the miss.
      EXPECT_TRUE(testing::SameResult(first[i], healthy[i]))
          << "healthy-shard query " << i << " changed under a shard miss";
    }
  }

  // Re-arming reproduces the exact same degraded batch.
  BatchStats stats2;
  const std::vector<CodResult> second = run_degraded(&stats2);
  EXPECT_EQ(stats2.shard_missed, stats.shard_missed);
  ExpectSameResults(second, first, "repeated shard-deadline miss");
}

// ---------------------------------------------------------------------------
// Cross-shard updates.
// ---------------------------------------------------------------------------

TEST(ShardedUpdateTest, CrossShardEdgeIsRejectedAndCounted) {
  World w = MakeMultiWorld(40, 2);
  ShardedCodService service(std::move(w.graph), std::move(w.attrs),
                            BaseOptions(2));
  NodeId a = kInvalidNode, b = kInvalidNode;
  for (NodeId v = 0; v < service.partition().shard_of_node.size(); ++v) {
    if (service.ShardOf(v) == 0 && a == kInvalidNode) a = v;
    if (service.ShardOf(v) == 1 && b == kInvalidNode) b = v;
  }
  ASSERT_NE(a, kInvalidNode);
  ASSERT_NE(b, kInvalidNode);

  Counter* rejected = MetricsRegistry::Instance().GetCounter(
      "cod_shard_cross_edge_rejected_total");
  const uint64_t before = rejected->Value();
  EXPECT_FALSE(service.AddEdge(a, b));
  EXPECT_EQ(rejected->Value(), before + 1);
  EXPECT_FALSE(service.RemoveEdge(a, b));  // can never have been admitted
  EXPECT_EQ(service.pending_updates(), 0u);

  // Same-shard updates still flow to the owning engine.
  const NodeId a2 = [&] {
    for (NodeId v = a + 1; v < service.partition().shard_of_node.size(); ++v) {
      if (service.ShardOf(v) == 0) return v;
    }
    return kInvalidNode;
  }();
  ASSERT_NE(a2, kInvalidNode);
  EXPECT_TRUE(service.AddEdge(a, a2, 2.0) || service.RemoveEdge(a, a2));
  EXPECT_EQ(service.pending_updates(), 1u);
}

// ---------------------------------------------------------------------------
// Per-shard durability: Recover() under a partially damaged layout.
// ---------------------------------------------------------------------------

// Builds a 2-shard service over `dir`, runs one refresh on each shard's
// world, and returns a probe answered before shutdown for comparison.
struct CrashedService {
  ServiceOptions options;
  std::vector<QuerySpec> specs;
  std::vector<CodResult> pre_crash;
  uint64_t final_epoch = 0;
};

CrashedService BuildAndCrash(const std::string& dir) {
  CrashedService out;
  World w = MakeMultiWorld(50, 2);
  out.options = BaseOptions(2);
  out.options.snapshot_dir = dir;
  ShardedCodService service(std::move(w.graph), std::move(w.attrs),
                            out.options);
  const World probe_world = MakeMultiWorld(50, 2);
  out.specs = MakeSpecs(probe_world.attrs, 20, 23);
  TaskScheduler scheduler(2);
  out.pre_crash = service.QueryBatch(out.specs, scheduler, /*batch_seed=*/5);
  out.final_epoch = service.epoch();
  return out;  // service destroyed here: the "crash"
}

TEST(ShardedRecoveryTest, MissingShardSnapshotsColdRebuildThatShardOnly) {
  const std::string dir = FreshDir("missing-shard");
  const CrashedService crashed = BuildAndCrash(dir);
  ASSERT_TRUE(fs::exists(ShardedCodService::ShardSnapshotDir(dir, 0)));
  ASSERT_TRUE(fs::exists(ShardedCodService::ShardSnapshotDir(dir, 1)));
  // Shard 0 loses its entire snapshot directory.
  fs::remove_all(ShardedCodService::ShardSnapshotDir(dir, 0));

  World cold = MakeMultiWorld(50, 2);
  Result<std::unique_ptr<CodServiceInterface>> recovered = RecoverCodService(
      crashed.options, std::move(cold.graph), std::move(cold.attrs));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->epoch(), crashed.final_epoch);

  // Cold-rebuilt shard 0 and warm-restored shard 1 answer exactly what the
  // pre-crash service answered: component scoping + the shared seed make
  // the cold epoch bit-compatible with the snapshotted one.
  TaskScheduler scheduler(2);
  const std::vector<CodResult> post = (*recovered)->QueryBatch(
      crashed.specs, scheduler, /*batch_seed=*/5);
  ExpectSameResults(post, crashed.pre_crash, "after losing shard 0 snapshots");
}

TEST(ShardedRecoveryTest, CorruptShardSnapshotsQuarantineAndColdRebuild) {
  const std::string dir = FreshDir("corrupt-shard");
  const CrashedService crashed = BuildAndCrash(dir);
  // Flip a payload byte in EVERY snapshot of shard 0: quarantine exhausts
  // the store (kNotFound) and the shard cold-rebuilds.
  const std::string shard0 = ShardedCodService::ShardSnapshotDir(dir, 0);
  size_t damaged = 0;
  for (const auto& entry : fs::directory_iterator(shard0)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 4u);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ++damaged;
  }
  ASSERT_GT(damaged, 0u);

  World cold = MakeMultiWorld(50, 2);
  Result<std::unique_ptr<CodServiceInterface>> recovered = RecoverCodService(
      crashed.options, std::move(cold.graph), std::move(cold.attrs));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // The damaged files were quarantined in place, not deleted.
  size_t corrupt_files = 0;
  for (const auto& entry : fs::directory_iterator(shard0)) {
    corrupt_files += entry.path().string().ends_with(".corrupt");
  }
  EXPECT_EQ(corrupt_files, damaged);

  TaskScheduler scheduler(2);
  const std::vector<CodResult> post = (*recovered)->QueryBatch(
      crashed.specs, scheduler, /*batch_seed=*/5);
  ExpectSameResults(post, crashed.pre_crash, "after corrupting shard 0");
}

TEST(ShardedRecoveryTest, FingerprintMismatchRefusesRecovery) {
  const std::string dir = FreshDir("fingerprint");
  const CrashedService crashed = BuildAndCrash(dir);

  // Same directory, different engine parameters: these snapshots would
  // answer differently, so recovery must refuse outright.
  ServiceOptions tampered = crashed.options;
  tampered.engine.k += 1;
  World cold = MakeMultiWorld(50, 2);
  Result<std::unique_ptr<CodServiceInterface>> recovered = RecoverCodService(
      tampered, std::move(cold.graph), std::move(cold.attrs));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedRecoveryTest, MonoSnapshotsNeverRestoreIntoShards) {
  const std::string dir = FreshDir("mono-vs-sharded");
  ServiceOptions mono = BaseOptions(1);
  mono.snapshot_dir = ShardedCodService::ShardSnapshotDir(dir, 0);
  {
    World w = MakeMultiWorld(60, 2);
    const std::unique_ptr<CodServiceInterface> service =
        MakeCodService(std::move(w.graph), std::move(w.attrs), mono);
    ASSERT_GT(service->epoch(), 0u);
  }
  // A sharded recovery pointed at a layout containing mono snapshots must
  // refuse: num_shards is part of the fingerprint.
  ServiceOptions sharded = BaseOptions(2);
  sharded.snapshot_dir = dir;
  World cold = MakeMultiWorld(60, 2);
  Result<std::unique_ptr<CodServiceInterface>> recovered = RecoverCodService(
      sharded, std::move(cold.graph), std::move(cold.attrs));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedRecoveryTest, SnapshotsOfAnotherNodeSetAreRefused) {
  // Shards number their nodes compactly, so a shard snapshot only fits the
  // partition slice it was written for. Three layouts that the options
  // fingerprint cannot tell apart must each be refused.
  const auto expect_refused = [](const ServiceOptions& options, World cold,
                                 const std::string& label) {
    Result<std::unique_ptr<ShardedCodService>> recovered =
        ShardedCodService::Recover(options, std::move(cold.graph),
                                   std::move(cold.attrs));
    ASSERT_FALSE(recovered.ok()) << label;
    EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition)
        << label << ": " << recovered.status().ToString();
  };
  {
    // The shard directories swapped: each holds the other shard's slice.
    const std::string dir = FreshDir("swapped-shards");
    const CrashedService crashed = BuildAndCrash(dir);
    const std::string d0 = ShardedCodService::ShardSnapshotDir(dir, 0);
    const std::string d1 = ShardedCodService::ShardSnapshotDir(dir, 1);
    fs::rename(d0, dir + "/tmp");
    fs::rename(d1, d0);
    fs::rename(dir + "/tmp", d1);
    expect_refused(crashed.options, MakeMultiWorld(50, 2), "swapped");
  }
  {
    // A different partition: the cold graph joins two components, so the
    // recomputed layout moves nodes between shards.
    const std::string dir = FreshDir("other-partition");
    const CrashedService crashed = BuildAndCrash(dir);
    World cold = MakeMultiWorld(50, 2);
    GraphBuilder gb(cold.graph.NumNodes());
    for (EdgeId e = 0; e < cold.graph.NumEdges(); ++e) {
      const auto [u, v] = cold.graph.Endpoints(e);
      gb.AddEdge(u, v, cold.graph.Weight(e));
    }
    gb.AddEdge(0, static_cast<NodeId>(cold.graph.NumNodes() - 1));
    cold.graph = std::move(gb).Build();
    const GraphPartition before = PartitionGraph(
        MakeMultiWorld(50, 2).graph, cold.attrs, 2,
        PartitionStrategy::kConnectedComponents);
    const GraphPartition after = PartitionGraph(
        cold.graph, cold.attrs, 2, PartitionStrategy::kConnectedComponents);
    ASSERT_NE(before.shard_of_node, after.shard_of_node);
    expect_refused(crashed.options, std::move(cold), "other partition");
  }
  {
    // A full-id shard snapshot, the layout before compact ids: the shard's
    // edges over every node of the graph, and no id map.
    const std::string dir = FreshDir("full-id-shard");
    const ServiceOptions options = [&] {
      ServiceOptions o = BaseOptions(2);
      o.snapshot_dir = dir;
      return o;
    }();
    World w = MakeMultiWorld(50, 2);
    const GraphPartition part = PartitionGraph(
        w.graph, w.attrs, 2, PartitionStrategy::kConnectedComponents);
    for (uint32_t s = 0; s < 2; ++s) {
      World full = MakeMultiWorld(50, 2);
      GraphBuilder gb(full.graph.NumNodes());
      for (EdgeId e = 0; e < full.graph.NumEdges(); ++e) {
        const auto [u, v] = full.graph.Endpoints(e);
        if (part.ShardOf(u) == s) gb.AddEdge(u, v, full.graph.Weight(e));
      }
      DynamicCodService shard(std::move(gb).Build(), std::move(full.attrs),
                              ShardedCodService::ShardOptions(options, s));
      ASSERT_EQ(shard.epoch(), 1u);
    }
    expect_refused(options, std::move(w), "full-id layout");
    // Refused, the caller cold-builds instead: a fresh service writes the
    // compact layout, which then recovers.
    {
      World fresh = MakeMultiWorld(50, 2);
      fs::remove_all(dir);
      ShardedCodService service(std::move(fresh.graph),
                                std::move(fresh.attrs), options);
    }
    World cold = MakeMultiWorld(50, 2);
    EXPECT_TRUE(ShardedCodService::Recover(options, std::move(cold.graph),
                                           std::move(cold.attrs))
                    .ok());
  }
}

TEST(ShardedRecoveryTest, EmptySnapshotDirIsInvalidArgument) {
  for (const uint32_t num_shards : {1u, 2u}) {
    World cold = MakeMultiWorld(50, 2);
    Result<std::unique_ptr<CodServiceInterface>> recovered =
        RecoverCodService(BaseOptions(num_shards), std::move(cold.graph),
                          std::move(cold.attrs));
    ASSERT_FALSE(recovered.ok()) << "shards=" << num_shards;
    EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument)
        << "shards=" << num_shards;
  }
}

// ---------------------------------------------------------------------------
// Shard fan-out: construction and Recover() run one task per shard on
// options.scheduler. Inline, one worker and four workers must be
// indistinguishable.
// ---------------------------------------------------------------------------

constexpr size_t kFanOutWorkers[] = {0, 1, 4};  // 0 = no scheduler

std::unique_ptr<TaskScheduler> FanOutScheduler(size_t workers) {
  return workers == 0 ? nullptr : std::make_unique<TaskScheduler>(workers);
}

ServiceOptions FanOutOptions() {
  ServiceOptions options = BaseOptions(4);
  options.engine.sketch_bits = 6;
  return options;
}

World FanOutWorld() { return MakeMultiWorld(70, 6); }

// Everything a shard fan-out writes: per-shard HIMOR and sketch bytes and
// epochs, plus the router's answers to `specs`.
struct FanOutOutput {
  std::vector<std::string> himor;
  std::vector<std::string> sketch;
  std::vector<uint64_t> epochs;
  std::vector<CodResult> answers;
};

FanOutOutput Observe(ShardedCodService& service,
                     const std::vector<QuerySpec>& specs) {
  FanOutOutput out;
  for (uint32_t s = 0; s < service.num_shards(); ++s) {
    const EngineCore& core = service.shard(s).engine();
    EXPECT_NE(core.himor(), nullptr) << "shard " << s;
    EXPECT_NE(core.sketch(), nullptr) << "shard " << s;
    BinaryBufferWriter himor;
    BinaryBufferWriter sketch;
    if (core.himor() != nullptr) core.himor()->SerializeTo(himor);
    if (core.sketch() != nullptr) core.sketch()->SerializeTo(sketch);
    out.himor.push_back(himor.TakeBytes());
    out.sketch.push_back(sketch.TakeBytes());
    out.epochs.push_back(service.shard(s).epoch());
  }
  TaskScheduler scheduler(2);
  out.answers = service.QueryBatch(specs, scheduler, /*batch_seed=*/77);
  return out;
}

void ExpectSameOutput(const FanOutOutput& got, const FanOutOutput& want,
                      const std::string& label) {
  EXPECT_TRUE(got.himor == want.himor) << label << ": HIMOR bytes differ";
  EXPECT_TRUE(got.sketch == want.sketch) << label << ": sketch bytes differ";
  EXPECT_EQ(got.epochs, want.epochs) << label;
  ExpectSameResults(got.answers, want.answers, label);
}

std::vector<QuerySpec> FanOutSpecs() {
  return MakeSpecs(FanOutWorld().attrs, 40, 71);
}

// Writes a 4-shard snapshot layout under `dir` from an inline-built service
// and returns what that service observed before it was destroyed.
FanOutOutput WriteFanOutLayout(const std::string& dir) {
  ServiceOptions options = FanOutOptions();
  options.snapshot_dir = dir;
  World w = FanOutWorld();
  ShardedCodService service(std::move(w.graph), std::move(w.attrs), options);
  return Observe(service, FanOutSpecs());
}

// A fresh copy of `pristine` at `dir`: a recovery that cold-rebuilds a
// shard writes new snapshots, so every configuration starts from the same
// bytes on disk.
void ResetLayout(const std::string& pristine, const std::string& dir) {
  fs::remove_all(dir);
  fs::copy(pristine, dir, fs::copy_options::recursive);
}

TEST(ShardFanOutTest, ConstructionIsIndependentOfWorkerCount) {
  const std::vector<QuerySpec> specs = FanOutSpecs();
  std::optional<FanOutOutput> reference;
  for (const size_t workers : kFanOutWorkers) {
    const std::unique_ptr<TaskScheduler> scheduler = FanOutScheduler(workers);
    ServiceOptions options = FanOutOptions();
    options.scheduler = scheduler.get();
    World w = FanOutWorld();
    ShardedCodService service(std::move(w.graph), std::move(w.attrs), options);
    for (uint32_t s = 0; s < service.num_shards(); ++s) {
      EXPECT_GT(service.partition().shard_nodes[s], 0u) << "shard " << s;
    }
    FanOutOutput got = Observe(service, specs);
    if (!reference.has_value()) {
      reference = std::move(got);
      continue;
    }
    ExpectSameOutput(got, *reference, "workers=" + std::to_string(workers));
  }
}

TEST(ShardFanOutTest, MixedWarmColdRecoverIsIndependentOfWorkerCount) {
  const std::string pristine = FreshDir("fanout-mixed-pristine");
  const std::string dir = FreshDir("fanout-mixed");
  const FanOutOutput pre_crash = WriteFanOutLayout(pristine);
  // Shard 0 recovers cold, shards 1-3 warm.
  fs::remove_all(ShardedCodService::ShardSnapshotDir(pristine, 0));
  const std::vector<QuerySpec> specs = FanOutSpecs();
  for (const size_t workers : kFanOutWorkers) {
    ResetLayout(pristine, dir);
    const std::unique_ptr<TaskScheduler> scheduler = FanOutScheduler(workers);
    ServiceOptions options = FanOutOptions();
    options.snapshot_dir = dir;
    options.scheduler = scheduler.get();
    World cold = FanOutWorld();
    Result<std::unique_ptr<ShardedCodService>> recovered =
        ShardedCodService::Recover(options, std::move(cold.graph),
                                   std::move(cold.attrs));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ExpectSameOutput(Observe(**recovered, specs), pre_crash,
                     "workers=" + std::to_string(workers));
  }
}

TEST(ShardFanOutTest, FingerprintMismatchRecoverIsIndependentOfWorkerCount) {
  const std::string pristine = FreshDir("fanout-mismatch-pristine");
  const std::string dir = FreshDir("fanout-mismatch");
  WriteFanOutLayout(pristine);
  // Shard 0 has no snapshot to load; shards 1-3 all hold snapshots of
  // other options, and shard 1 must name the error.
  fs::remove_all(ShardedCodService::ShardSnapshotDir(pristine, 0));
  std::optional<Status> reference;
  for (const size_t workers : kFanOutWorkers) {
    ResetLayout(pristine, dir);
    const std::unique_ptr<TaskScheduler> scheduler = FanOutScheduler(workers);
    ServiceOptions tampered = FanOutOptions();
    tampered.engine.k += 1;
    tampered.snapshot_dir = dir;
    tampered.scheduler = scheduler.get();
    World cold = FanOutWorld();
    Result<std::unique_ptr<ShardedCodService>> recovered =
        ShardedCodService::Recover(tampered, std::move(cold.graph),
                                   std::move(cold.attrs));
    ASSERT_FALSE(recovered.ok()) << "workers=" << workers;
    const Status& status = recovered.status();
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(status.message().find(ShardedCodService::ShardSnapshotDir(dir, 1)),
              std::string::npos)
        << status.ToString();
    // Refused before any cold rebuild: shard 0 wrote no snapshot.
    const std::string shard0 = ShardedCodService::ShardSnapshotDir(dir, 0);
    EXPECT_TRUE(!fs::exists(shard0) || fs::is_empty(shard0));
    if (!reference.has_value()) {
      reference = status;
      continue;
    }
    EXPECT_EQ(status.ToString(), reference->ToString())
        << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// ServiceOptions: validation and the fingerprint.
// ---------------------------------------------------------------------------

TEST(ServiceOptionsTest, ValidateRejectsBrokenConfigurations) {
  EXPECT_TRUE(ServiceOptions{}.Validate().ok());
  {
    ServiceOptions o;
    o.num_shards = 0;
    EXPECT_FALSE(o.Validate().ok());
  }
  {
    ServiceOptions o;
    o.async_rebuild = true;  // no scheduler
    EXPECT_FALSE(o.Validate().ok());
  }
  {
    ServiceOptions o;
    o.snapshots_keep = 0;
    EXPECT_FALSE(o.Validate().ok());
  }
  {
    ServiceOptions o;
    o.rebuild_backoff_initial_ms = 500;
    o.rebuild_backoff_max_ms = 100;
    EXPECT_FALSE(o.Validate().ok());
  }
  {
    ServiceOptions o;
    o.engine.theta = 0;
    EXPECT_FALSE(o.Validate().ok());
  }
  {
    ServiceOptions o;
    o.rebuild_threshold = -0.1;
    EXPECT_FALSE(o.Validate().ok());
  }
}

TEST(ServiceOptionsTest, FingerprintTracksAnswerShapingFieldsOnly) {
  const ServiceOptions base;
  const uint64_t fp = base.Fingerprint();
  {
    // Answer-shaping fields move the fingerprint.
    ServiceOptions o;
    o.engine.k += 1;
    EXPECT_NE(o.Fingerprint(), fp);
    o = ServiceOptions{};
    o.seed += 1;
    EXPECT_NE(o.Fingerprint(), fp);
    o = ServiceOptions{};
    o.num_shards = 2;
    EXPECT_NE(o.Fingerprint(), fp);
    o = ServiceOptions{};
    o.engine.component_scoped = true;
    EXPECT_NE(o.Fingerprint(), fp);
    o = ServiceOptions{};
    o.engine.transform.transform = AttributeTransform::kJaccard;
    EXPECT_NE(o.Fingerprint(), fp);
    o = ServiceOptions{};
    o.engine.transform.beta = 3.0;
    EXPECT_NE(o.Fingerprint(), fp);
  }
  {
    // Latency/durability knobs deliberately do not: tuning them must never
    // cost a warm restart.
    ServiceOptions o;
    o.rebuild_threshold = 0.2;
    o.snapshots_keep = 5;
    o.snapshot_dir = "/elsewhere";
    o.rebuild_budget_seconds = 1.0;
    o.max_rebuild_retries = 9;
    EXPECT_EQ(o.Fingerprint(), fp);
  }
  // Every shard of one layout shares the layout's fingerprint.
  const ServiceOptions sharded_base = BaseOptions(4);
  EXPECT_EQ(ShardedCodService::ShardOptions(sharded_base, 0).Fingerprint(),
            ShardedCodService::ShardOptions(sharded_base, 3).Fingerprint());
}

// Absolute fingerprints of the default options and of each g_l transform.
// A snapshot stores the fingerprint of the options that wrote it, so a value
// that moves here refuses every snapshot written under those options.
TEST(ServiceOptionsTest, FingerprintGoldens) {
  const auto fingerprint_of = [](AttributeTransform transform, double beta) {
    ServiceOptions o;
    o.engine.transform.transform = transform;
    o.engine.transform.beta = beta;
    return o.Fingerprint();
  };
  EXPECT_EQ(ServiceOptions{}.Fingerprint(), 0xf40851f45135b3d2ULL);
  EXPECT_EQ(fingerprint_of(AttributeTransform::kQueryBoost, 2.0),
            0xf40851f45135b3d2ULL);
  EXPECT_EQ(fingerprint_of(AttributeTransform::kJaccard, 2.0),
            0x98883875e1e6cd00ULL);
  EXPECT_EQ(fingerprint_of(AttributeTransform::kQueryJaccard, 2.0),
            0x5b91b62b525f7b3dULL);
  EXPECT_EQ(fingerprint_of(AttributeTransform::kQueryBoost, 0.5),
            0xfbef03d7581cb48aULL);
}

// ---------------------------------------------------------------------------
// Aggregate views over shards.
// ---------------------------------------------------------------------------

TEST(ShardedAggregateTest, EpochIsTheMinimumAndEdgesTheSum) {
  World w = MakeMultiWorld(70, 2);
  const size_t total_edges = w.graph.NumEdges();
  ShardedCodService service(std::move(w.graph), std::move(w.attrs),
                            BaseOptions(2));
  EXPECT_EQ(service.NumEdges(), total_edges);
  EXPECT_EQ(service.epoch(), 1u);

  // Refresh one shard directly: the aggregate epoch stays at the floor.
  ASSERT_TRUE(service.shard(0).Refresh().ok());
  EXPECT_EQ(service.shard(0).epoch(), 2u);
  EXPECT_EQ(service.shard(1).epoch(), 1u);
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.rebuild_stats().published, 3u);  // 2 first + 1 refresh

  // Refresh() lifts every shard, and the floor with it.
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_GE(service.epoch(), 2u);
}

TEST(ShardedAggregateTest, EmptyShardsDoNotPinTheEpochFloor) {
  // One connected component spread across two shards: component-atomic
  // partitioning leaves shard 1 with zero nodes. No update can ever route
  // to it, so its epoch is pinned at 1 forever — the aggregate freshness
  // floor (and the aggregate rebuild stats) must ignore it, or the service
  // would report itself permanently stale no matter how often the real
  // shard republishes.
  constexpr size_t kN = 60;
  GraphBuilder gb(kN);
  std::vector<uint32_t> block(kN);
  Rng rng(77);
  for (NodeId v = 0; v < kN; ++v) {
    gb.AddEdge(v, (v + 1) % kN, 1.0);  // ring: connected by construction
    block[v] = v / 15;
  }
  World w;
  w.graph = std::move(gb).Build();
  w.attrs = AssignCorrelatedAttributes(block, 5, 0.8, 0.1, rng);
  ShardedCodService service(std::move(w.graph), std::move(w.attrs),
                            BaseOptions(2));
  ASSERT_EQ(service.partition().shard_nodes[0], kN);
  ASSERT_EQ(service.partition().shard_nodes[1], 0u);
  EXPECT_EQ(service.epoch(), 1u);

  // Refresh only the populated shard — exactly what threshold-driven
  // refreshes do, since the empty shard can never become due.
  ASSERT_TRUE(service.shard(0).Refresh().ok());
  EXPECT_EQ(service.shard(0).epoch(), 2u);
  EXPECT_EQ(service.shard(1).epoch(), 1u);
  EXPECT_EQ(service.epoch(), 2u);  // the empty shard does not cap the floor

  // Stats likewise: shard 0's first build + refresh only; the empty
  // shard's constant publish baseline is excluded.
  EXPECT_EQ(service.rebuild_stats().published, 2u);
}

}  // namespace
}  // namespace cod

// cod_cli: command-line front end for the whole pipeline — generate or load
// attributed graphs, build and persist HIMOR indices, and answer COD queries.
//
//   cod_cli dataset <registry-name> <out-prefix>
//       writes <out-prefix>.edges and <out-prefix>.attrs
//   cod_cli stats <edges> <attrs>
//   cod_cli index <edges> <attrs> <index-out> [--theta=N] [--seed=S]
//       writes an epoch snapshot (storage/epoch_snapshot.h) holding the
//       base hierarchy and HIMOR index; --index=<index-out> reads it back
//   cod_cli query <edges> <attrs> <node> <attribute-name>
//           [--variant=codl|codl-|codr|codu] [--k=N] [--index=path]
//           [--seed=S] [--explain] [--dot=community.dot]
//   cod_cli promoters <edges> <attrs> <attribute-name> [--k=N] [--count=N]
//           [--index=path]
//   cod_cli serve <edges> <attrs> [--shards=N] [--queries=N] [--threads=N]
//           [--k=N] [--seed=S]
//       builds the serving tier (mono for --shards=1, scatter/gather router
//       over component-scoped shard engines otherwise) and answers a
//       deterministic query batch through the unified CodServiceInterface;
//       the answers are bit-identical for every --shards value.
//
// Numeric flags are parsed strictly; a malformed or out-of-range value
// (theta, k or count below 1, k above the HIMOR index depth where the index
// is consulted) exits 2 with a message.
//
// Example session:
//   cod_cli dataset cora-sim /tmp/cora
//   cod_cli index /tmp/cora.edges /tmp/cora.attrs /tmp/cora.snap
//   cod_cli query /tmp/cora.edges /tmp/cora.attrs 42 label3
//           --index=/tmp/cora.snap --k=5     (one line)
//   cod_cli serve /tmp/cora.edges /tmp/cora.attrs --shards=4

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/task_scheduler.h"
#include "core/engine_core.h"
#include "core/query_workspace.h"
#include "eval/datasets.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"
#include "graph/export.h"
#include "graph/graph_io.h"
#include "serving/service_interface.h"
#include "storage/epoch_snapshot.h"

namespace {

using cod::AttributedGraph;
using cod::CodResult;
using cod::CodVariant;
using cod::EngineCore;
using cod::EngineOptions;
using cod::QuerySpec;
using cod::QueryWorkspace;
using cod::Rng;
using cod::Status;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  cod_cli dataset <registry-name> <out-prefix>\n"
      "  cod_cli stats <edges> <attrs>\n"
      "  cod_cli index <edges> <attrs> <index-out> [--theta=N] [--seed=S]\n"
      "  cod_cli query <edges> <attrs> <node> <attribute-name>\n"
      "          [--variant=codl|codl-|codr|codu] [--k=N] [--index=path]\n"
      "          [--seed=S] [--explain] [--dot=out.dot]\n"
      "  cod_cli promoters <edges> <attrs> <attribute-name>\n"
      "          [--k=N] [--count=N] [--index=path]\n"
      "  cod_cli serve <edges> <attrs>\n"
      "          [--shards=N] [--queries=N] [--threads=N] [--k=N] "
      "[--seed=S]\n");
  return 2;
}

// Parses trailing --key=value flags starting at argv[first].
struct CliFlags {
  uint32_t theta = 10;
  uint32_t k = 5;
  uint64_t seed = 1;
  size_t count = 10;
  uint32_t shards = 1;
  size_t queries = 12;
  uint32_t threads = 4;
  std::string variant = "codl";
  std::string index_path;
  std::string dot_path;
  bool explain = false;
  bool ok = true;
};

// Strict unsigned parse: digits only (no sign, whitespace or trailing
// junk), and no larger than `max`.
bool ParseUnsigned(const char* text, uint64_t max, uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > max) return false;
  *out = value;
  return true;
}

template <typename T>
bool ParseFlagValue(const std::string& arg, size_t prefix_len, T* out) {
  uint64_t value = 0;
  if (!ParseUnsigned(arg.c_str() + prefix_len,
                     std::numeric_limits<T>::max(), &value)) {
    std::fprintf(stderr, "invalid value in %s: expected an unsigned integer "
                 "up to %llu\n", arg.c_str(),
                 static_cast<unsigned long long>(
                     std::numeric_limits<T>::max()));
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

CliFlags ParseCliFlags(int argc, char** argv, int first) {
  CliFlags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    bool parsed = true;
    if (arg.rfind("--theta=", 0) == 0) {
      parsed = ParseFlagValue(arg, 8, &flags.theta);
    } else if (arg.rfind("--k=", 0) == 0) {
      parsed = ParseFlagValue(arg, 4, &flags.k);
    } else if (arg.rfind("--seed=", 0) == 0) {
      parsed = ParseFlagValue(arg, 7, &flags.seed);
    } else if (arg.rfind("--variant=", 0) == 0) {
      flags.variant = arg.substr(10);
    } else if (arg.rfind("--index=", 0) == 0) {
      flags.index_path = arg.substr(8);
    } else if (arg.rfind("--dot=", 0) == 0) {
      flags.dot_path = arg.substr(6);
    } else if (arg.rfind("--count=", 0) == 0) {
      parsed = ParseFlagValue(arg, 8, &flags.count);
    } else if (arg.rfind("--shards=", 0) == 0) {
      parsed = ParseFlagValue(arg, 9, &flags.shards);
    } else if (arg.rfind("--queries=", 0) == 0) {
      parsed = ParseFlagValue(arg, 10, &flags.queries);
    } else if (arg.rfind("--threads=", 0) == 0) {
      parsed = ParseFlagValue(arg, 10, &flags.threads);
    } else if (arg == "--explain") {
      flags.explain = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      parsed = false;
    }
    flags.ok = flags.ok && parsed;
  }
  if (flags.theta < 1) {
    std::fprintf(stderr, "invalid --theta=%u: must be >= 1\n", flags.theta);
    flags.ok = false;
  }
  if (flags.k < 1) {
    std::fprintf(stderr, "invalid --k=%u: must be >= 1\n", flags.k);
    flags.ok = false;
  }
  if (flags.count < 1) {
    std::fprintf(stderr, "invalid --count=%zu: must be >= 1\n", flags.count);
    flags.ok = false;
  }
  return flags;
}

// Index-backed commands (CODL, promoters, serving) answer from HIMOR ranks,
// which exist only below the index depth.
bool CheckIndexDepth(const CliFlags& flags, const EngineOptions& options) {
  if (flags.k <= options.himor_max_rank) return true;
  std::fprintf(stderr, "invalid --k=%u: must be <= %u (the HIMOR index "
               "depth, himor_max_rank)\n", flags.k, options.himor_max_rank);
  return false;
}

cod::Result<AttributedGraph> LoadPair(const std::string& edges,
                                      const std::string& attrs) {
  cod::Result<cod::Graph> graph = cod::LoadEdgeList(edges);
  if (!graph.ok()) return graph.status();
  cod::Result<cod::AttributeTable> table =
      cod::LoadAttributes(attrs, graph->NumNodes());
  if (!table.ok()) return table.status();
  AttributedGraph data;
  data.graph = std::move(graph).value();
  data.attributes = std::move(table).value();
  return data;
}

int CmdDataset(int argc, char** argv) {
  if (argc < 4) return Usage();
  cod::Result<AttributedGraph> data = cod::MakeDataset(argv[2]);
  if (!data.ok()) return Fail(data.status());
  const std::string prefix = argv[3];
  const Status s1 = cod::SaveEdgeList(data->graph, prefix + ".edges");
  if (!s1.ok()) return Fail(s1);
  const Status s2 = cod::SaveAttributes(data->attributes, prefix + ".attrs");
  if (!s2.ok()) return Fail(s2);
  std::printf("wrote %s.edges (%zu nodes, %zu edges) and %s.attrs (%zu "
              "attributes)\n",
              prefix.c_str(), data->graph.NumNodes(), data->graph.NumEdges(),
              prefix.c_str(), data->attributes.NumAttributes());
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 4) return Usage();
  cod::Result<AttributedGraph> data = LoadPair(argv[2], argv[3]);
  if (!data.ok()) return Fail(data.status());
  size_t with_attrs = 0;
  uint32_t max_degree = 0;
  for (cod::NodeId v = 0; v < data->graph.NumNodes(); ++v) {
    with_attrs += !data->attributes.AttributesOf(v).empty();
    max_degree = std::max(max_degree, data->graph.Degree(v));
  }
  std::printf("|V| = %zu\n|E| = %zu\n|A| = %zu\n", data->graph.NumNodes(),
              data->graph.NumEdges(), data->attributes.NumAttributes());
  std::printf("avg degree = %.2f, max degree = %u\n",
              2.0 * data->graph.NumEdges() / data->graph.NumNodes(),
              max_degree);
  std::printf("nodes with attributes: %zu (%.1f%%)\n", with_attrs,
              100.0 * with_attrs / data->graph.NumNodes());
  return 0;
}

// Reassembles a core from an epoch snapshot written by `cod_cli index`,
// refusing one built over a different graph or with a different theta.
cod::Result<std::unique_ptr<EngineCore>> LoadIndexedCore(
    const std::string& path, AttributedGraph data,
    const EngineOptions& options) {
  cod::Result<cod::DecodedEpochSnapshot> snap =
      cod::LoadEpochSnapshotFile(path);
  if (!snap.ok()) return snap.status();
  if (snap->meta.num_nodes != data.graph.NumNodes() ||
      snap->meta.num_edges != data.graph.NumEdges()) {
    return Status::InvalidArgument(
        path + ": index was built for a different graph (node or edge count "
               "mismatch)");
  }
  if (snap->meta.engine_theta != options.theta) {
    return Status::InvalidArgument(
        path + ": index was built with theta = " +
        std::to_string(snap->meta.engine_theta) + ", not " +
        std::to_string(options.theta));
  }
  if (!snap->himor.has_value()) {
    return Status::InvalidArgument(path + ": snapshot holds no HIMOR index");
  }
  return EngineCore::FromPrebuilt(
      std::make_shared<const cod::Graph>(std::move(data.graph)),
      std::make_shared<const cod::AttributeTable>(std::move(data.attributes)),
      options, std::move(*snap->hierarchy), std::move(snap->himor),
      std::move(snap->sketch), /*index_absent_degraded=*/false);
}

int CmdIndex(int argc, char** argv) {
  if (argc < 5) return Usage();
  const CliFlags flags = ParseCliFlags(argc, argv, 5);
  if (!flags.ok) return 2;
  cod::Result<AttributedGraph> data = LoadPair(argv[2], argv[3]);
  if (!data.ok()) return Fail(data.status());
  EngineOptions options;
  options.theta = flags.theta;
  std::printf("clustering %zu nodes and building HIMOR (theta = %u)...\n",
              data->graph.NumNodes(), flags.theta);
  EngineCore engine(data->graph, data->attributes, options);
  COD_CHECK(engine.TryBuildHimor(Rng(flags.seed).Next()).ok());
  cod::EpochSnapshotMeta meta;
  meta.epoch = 1;
  meta.seed = flags.seed;
  const std::string bytes = cod::EncodeEpochSnapshot(meta, engine);
  const Status saved = cod::WriteEpochSnapshotFile(argv[4], bytes);
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote %s (%zu entries, %.2f MB snapshot)\n", argv[4],
              engine.himor()->NumEntries(), bytes.size() / 1e6);
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 6) return Usage();
  const CliFlags flags = ParseCliFlags(argc, argv, 6);
  if (!flags.ok) return 2;
  uint64_t node_arg = 0;
  if (!ParseUnsigned(argv[4], std::numeric_limits<cod::NodeId>::max(),
                     &node_arg)) {
    std::fprintf(stderr, "invalid node '%s': expected a node id\n", argv[4]);
    return 2;
  }
  const cod::NodeId node = static_cast<cod::NodeId>(node_arg);

  // Map the variant flag onto the canonical QuerySpec entry point.
  QuerySpec spec;
  spec.node = node;
  spec.k = flags.k;
  if (flags.variant == "codl") {
    spec.variant = CodVariant::kCodL;
  } else if (flags.variant == "codl-") {
    spec.variant = CodVariant::kCodLMinus;
  } else if (flags.variant == "codr") {
    spec.variant = CodVariant::kCodR;
  } else if (flags.variant == "codu") {
    spec.variant = CodVariant::kCodU;
  } else {
    std::fprintf(stderr, "unknown variant '%s'\n", flags.variant.c_str());
    return 2;
  }
  EngineOptions options;
  options.theta = flags.theta;
  if (spec.variant == CodVariant::kCodL && !CheckIndexDepth(flags, options)) {
    return 2;
  }

  cod::Result<AttributedGraph> data = LoadPair(argv[2], argv[3]);
  if (!data.ok()) return Fail(data.status());
  if (node >= data->graph.NumNodes()) {
    std::fprintf(stderr, "node %u out of range\n", node);
    return 1;
  }
  const cod::AttributeId attr = data->attributes.Find(argv[5]);
  if (attr == cod::kInvalidAttribute) {
    std::fprintf(stderr, "unknown attribute '%s'\n", argv[5]);
    return 1;
  }
  if (spec.variant != CodVariant::kCodU) spec.attrs = {attr};

  std::unique_ptr<EngineCore> engine;
  if (spec.variant == CodVariant::kCodL && !flags.index_path.empty()) {
    cod::Result<std::unique_ptr<EngineCore>> loaded =
        LoadIndexedCore(flags.index_path, std::move(data).value(), options);
    if (!loaded.ok()) return Fail(loaded.status());
    engine = std::move(loaded).value();
  } else {
    engine = std::make_unique<EngineCore>(
        std::make_shared<const cod::Graph>(std::move(data->graph)),
        std::make_shared<const cod::AttributeTable>(
            std::move(data->attributes)),
        options);
    if (spec.variant == CodVariant::kCodL) {
      std::printf("(no --index given: building HIMOR in memory)\n");
      COD_CHECK(engine->TryBuildHimor(Rng(flags.seed).Next()).ok());
    }
  }
  QueryWorkspace ws(*engine, flags.seed);

  CodResult result;
  if (flags.explain && spec.variant == CodVariant::kCodL) {
    const auto explanation = engine->ExplainCodL(node, attr, flags.k, ws);
    std::printf("%s", explanation.ToString(engine->base_hierarchy()).c_str());
    result = explanation.result;
  } else {
    result = engine->Query(spec, ws);
  }

  if (!result.found) {
    std::printf("no characteristic community: node %u is not top-%u "
                "influential at any scale of its %s hierarchy\n",
                node, flags.k, flags.variant.c_str());
    return 0;
  }
  std::printf("characteristic community (%s, k=%u): %zu members, query rank "
              "#%u%s\n",
              flags.variant.c_str(), flags.k, result.members.size(),
              result.rank + 1,
              result.answered_from_index ? " [index hit]" : "");
  std::printf("  topology density %.3f, attribute density %.3f\n",
              cod::TopologyDensity(engine->graph(), result.members),
              cod::AttributeDensity(engine->attributes(), attr,
                                    result.members));
  std::printf("  members:");
  const size_t preview = std::min<size_t>(result.members.size(), 25);
  for (size_t i = 0; i < preview; ++i) {
    std::printf(" %u", result.members[i]);
  }
  if (preview < result.members.size()) {
    std::printf(" ... (%zu more)", result.members.size() - preview);
  }
  std::printf("\n");
  if (!flags.dot_path.empty()) {
    const Status exported =
        cod::ExportCommunityDot(engine->graph(), result.members, node,
                                flags.dot_path);
    if (!exported.ok()) return Fail(exported);
    std::printf("wrote %s (render with: neato -Tpng %s -o community.png)\n",
                flags.dot_path.c_str(), flags.dot_path.c_str());
  }
  return 0;
}

int CmdPromoters(int argc, char** argv) {
  if (argc < 5) return Usage();
  const CliFlags flags = ParseCliFlags(argc, argv, 5);
  if (!flags.ok) return 2;
  EngineOptions options;
  options.theta = flags.theta;
  if (!CheckIndexDepth(flags, options)) return 2;
  cod::Result<AttributedGraph> data = LoadPair(argv[2], argv[3]);
  if (!data.ok()) return Fail(data.status());
  const cod::AttributeId attr = data->attributes.Find(argv[4]);
  if (attr == cod::kInvalidAttribute) {
    std::fprintf(stderr, "unknown attribute '%s'\n", argv[4]);
    return 1;
  }
  std::unique_ptr<EngineCore> engine;
  if (!flags.index_path.empty()) {
    cod::Result<std::unique_ptr<EngineCore>> loaded =
        LoadIndexedCore(flags.index_path, std::move(data).value(), options);
    if (!loaded.ok()) return Fail(loaded.status());
    engine = std::move(loaded).value();
  } else {
    engine = std::make_unique<EngineCore>(data->graph, data->attributes,
                                          options);
    COD_CHECK(engine->TryBuildHimor(Rng(flags.seed).Next()).ok());
  }
  const auto promoters =
      engine->FindTopPromoters(attr, flags.count, flags.k);
  if (promoters.empty()) {
    std::printf("no '%s' holder is top-%u anywhere\n", argv[4], flags.k);
    return 0;
  }
  std::printf("top promoters for '%s' (k = %u):\n", argv[4], flags.k);
  for (const auto& p : promoters) {
    std::printf("  node %-8u audience %-7u rank #%u\n", p.node, p.size,
                p.rank + 1);
  }
  return 0;
}

int CmdServe(int argc, char** argv) {
  if (argc < 4) return Usage();
  const CliFlags flags = ParseCliFlags(argc, argv, 4);
  if (!flags.ok) return 2;
  cod::Result<AttributedGraph> data = LoadPair(argv[2], argv[3]);
  if (!data.ok()) return Fail(data.status());

  cod::ServiceOptions options;
  options.engine.theta = flags.theta;
  options.seed = flags.seed;
  options.num_shards = flags.shards;
  // The batch below is CODL, which consults the index.
  if (!CheckIndexDepth(flags, options.engine)) return 2;
  const Status valid = options.Validate();
  if (!valid.ok()) return Fail(valid);

  // Deterministic query workload, drawn before the attribute table moves
  // into the service. Same seed -> same specs for every --shards value, so
  // the printed answers are directly comparable across layouts.
  Rng query_rng(flags.seed + 1);
  const std::vector<cod::Query> sampled =
      cod::GenerateQueries(data->attributes, flags.queries, query_rng);
  std::vector<QuerySpec> specs;
  std::vector<std::string> topics;
  for (const cod::Query& q : sampled) {
    QuerySpec spec;
    spec.variant = CodVariant::kCodL;
    spec.node = q.node;
    spec.k = flags.k;
    spec.attrs = {q.attribute};
    specs.push_back(std::move(spec));
    topics.push_back(data->attributes.Name(q.attribute));
  }

  std::printf("building serving tier: %u shard%s, theta = %u...\n",
              flags.shards, flags.shards == 1 ? "" : "s", flags.theta);
  std::unique_ptr<cod::CodServiceInterface> service = cod::MakeCodService(
      std::move(data->graph), std::move(data->attributes), options);

  cod::TaskScheduler scheduler(flags.threads);
  cod::BatchStats stats;
  const std::vector<CodResult> results = service->QueryBatch(
      specs, scheduler, /*batch_seed=*/flags.seed, cod::BatchOptions{},
      &stats);

  for (size_t i = 0; i < results.size(); ++i) {
    const CodResult& r = results[i];
    std::printf("  node %-6u topic %-8s -> %s (%zu members, rank #%u)%s\n",
                specs[i].node, topics[i].c_str(),
                r.found ? "community" : "none", r.members.size(), r.rank + 1,
                r.degraded ? " [degraded]" : "");
  }
  std::printf("batch of %zu: %lu ok, %lu degraded, %lu shard-missed, epoch "
              "%lu%s\n",
              results.size(), static_cast<unsigned long>(stats.served_ok),
              static_cast<unsigned long>(stats.degraded),
              static_cast<unsigned long>(stats.shard_missed),
              static_cast<unsigned long>(service->epoch()),
              service->epoch_degraded() ? " (degraded)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "dataset") return CmdDataset(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  if (command == "index") return CmdIndex(argc, argv);
  if (command == "query") return CmdQuery(argc, argv);
  if (command == "promoters") return CmdPromoters(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  return Usage();
}

#include "graph/graph_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"

namespace cod {
namespace {

bool IsCommentOrBlank(const std::string& line) {
  for (char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

// A corrupt length or id field must never drive allocation or indexing; this
// matches the text loaders' 1e8 node cap.
constexpr uint64_t kMaxBinaryNodes = 100'000'000;
constexpr uint64_t kMaxNameBytes = 1 << 20;

}  // namespace

void SerializeGraph(const Graph& g, BinaryBufferWriter& out) {
  out.WriteArray(g.offsets_);
  out.WriteArray(g.adjacency_);
  out.WriteArray(g.edges_);
  out.WriteArray(g.weights_);
}

Result<Graph> DeserializeGraph(BinarySpanReader& in) {
  Graph g;
  if (!in.ReadArray(&g.offsets_, kMaxBinaryNodes + 1) ||
      !in.ReadArray(&g.adjacency_) || !in.ReadArray(&g.edges_) ||
      !in.ReadArray(&g.weights_)) {
    return in.status();
  }
  // The arrays are adopted as they are, so every invariant GraphBuilder
  // establishes is checked here instead.
  const SharedArray<size_t>& offsets = g.offsets_;
  const SharedArray<AdjEntry>& adjacency = g.adjacency_;
  const SharedArray<std::pair<NodeId, NodeId>>& edges = g.edges_;
  const size_t num_nodes = g.NumNodes();
  const size_t num_edges = edges.size();
  if (offsets.empty() ? !adjacency.empty() || num_edges > 0
                      : offsets.front() != 0 ||
                            offsets.back() != adjacency.size()) {
    in.Fail("CSR offsets do not span the adjacency");
    return in.status();
  }
  for (NodeId u = 0; u < num_nodes; ++u) {
    if (offsets[u + 1] < offsets[u]) {
      in.Fail("CSR offsets not monotone");
      return in.status();
    }
  }
  if (adjacency.size() != 2 * num_edges) {
    in.Fail("adjacency does not hold two entries per edge");
    return in.status();
  }
  if (!g.weights_.empty() && g.weights_.size() != num_edges) {
    in.Fail("weight count does not match edge count");
    return in.status();
  }
  if (!g.weights_.empty() &&
      std::all_of(g.weights_.begin(), g.weights_.end(),
                  [](double w) { return w == 1.0; })) {
    // The builder keeps weights only when one differs from 1.0.
    in.Fail("unweighted graph carries weights");
    return in.status();
  }
  for (size_t e = 0; e < num_edges; ++e) {
    // Canonical (min, max) pairs, strictly increasing: no self-loops, no
    // parallel edges, both endpoints in range.
    const auto [u, v] = edges[e];
    if (u >= v || v >= num_nodes) {
      in.Fail("invalid edge endpoints");
      return in.status();
    }
    if (e > 0 && edges[e] <= edges[e - 1]) {
      in.Fail("edges not in canonical order");
      return in.status();
    }
  }
  // Sorted edges list each node's upper neighbors as one run, so the
  // entries with a.to > u, node by node, name edges 0, 1, 2, ... in order;
  // only the entries with a.to < u need a lookup.
  EdgeId next_upper = 0;
  for (NodeId u = 0; u < num_nodes; ++u) {
    NodeId prev = 0;
    for (size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const AdjEntry a = adjacency[i];
      const bool named =
          a.to > u ? a.edge == next_upper && next_upper < num_edges &&
                         edges[next_upper] == std::pair{u, a.to}
                   : a.edge < num_edges &&
                         edges[a.edge] == std::pair{a.to, u};
      if (!named) {
        in.Fail("adjacency entry names an edge without that endpoint");
        return in.status();
      }
      next_upper += a.to > u;
      if (i > offsets[u] && a.to <= prev) {
        in.Fail("neighbors not strictly increasing");
        return in.status();
      }
      prev = a.to;
    }
  }
  // Each of the 2E entries names a distinct (node, edge) incidence, and
  // there are exactly 2E incidences: the adjacency is the builder's.
  return g;
}

void SerializeAttributes(const AttributeTable& table, BinaryBufferWriter& out) {
  out.WritePod<uint64_t>(table.NumAttributes());
  for (AttributeId a = 0; a < table.NumAttributes(); ++a) {
    out.WriteString(table.Name(a));
  }
  out.WriteArray(table.offsets_);
  out.WriteArray(table.values_);
}

Result<AttributeTable> DeserializeAttributes(BinarySpanReader& in) {
  uint64_t num_names = 0;
  if (!in.ReadPod(&num_names)) return in.status();
  // Every name costs at least its 8-byte length prefix, bounding the count
  // by the bytes actually present.
  if (num_names > in.remaining() / sizeof(uint64_t)) {
    in.Fail("attribute name count exceeds remaining bytes");
    return in.status();
  }
  AttributeTable table;
  table.names_.resize(num_names);
  table.index_.reserve(num_names);
  for (uint64_t a = 0; a < num_names; ++a) {
    if (!in.ReadString(&table.names_[a], kMaxNameBytes)) return in.status();
    // A duplicate name would silently alias two ids.
    if (!table.index_.emplace(table.names_[a], static_cast<AttributeId>(a))
             .second) {
      in.Fail("duplicate attribute name");
      return in.status();
    }
  }
  // Copied, not adopted: every later epoch of a service shares this table,
  // so it must not pin the snapshot section it came from.
  if (!in.ReadArray(&table.offsets_, kMaxBinaryNodes + 1) ||
      !in.ReadArray(&table.values_)) {
    return in.status();
  }
  const std::vector<size_t>& offsets = table.offsets_;
  const std::vector<AttributeId>& values = table.values_;
  if (offsets.empty()
          ? !values.empty()
          : offsets.front() != 0 || offsets.back() != values.size()) {
    in.Fail("corrupt attribute offsets");
    return in.status();
  }
  for (size_t v = 0; v + 1 < offsets.size(); ++v) {
    if (offsets[v] > offsets[v + 1]) {
      in.Fail("attribute offsets not monotone");
      return in.status();
    }
  }
  for (size_t v = 0; v + 1 < offsets.size(); ++v) {
    for (size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (values[i] >= num_names) {
        in.Fail("attribute id out of range");
        return in.status();
      }
      // Sorted-unique per node, as AttributeTableBuilder leaves them.
      if (i > offsets[v] && values[i] <= values[i - 1]) {
        in.Fail("attribute ids not sorted");
        return in.status();
      }
    }
  }
  return table;
}

Result<Graph> LoadEdgeList(const std::string& path) {
  // Simulated read failure (tests of loader error paths; see
  // common/failpoint.h).
  if (COD_FAILPOINT("graph_io/load_edge_list")) {
    return Status::IoError("failpoint graph_io/load_edge_list armed");
  }
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  GraphBuilder builder;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream ss(line);
    uint64_t u = 0;
    uint64_t v = 0;
    double w = 1.0;
    if (!(ss >> u >> v)) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": expected 'u v [weight]'");
    }
    // A corrupt file must not be able to OOM the process through one huge
    // node id (node count drives allocation).
    constexpr uint64_t kMaxNodeId = 100'000'000;
    if (u > kMaxNodeId || v > kMaxNodeId) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": node id exceeds the 1e8 limit");
    }
    ss >> w;  // optional
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v), w);
  }
  return std::move(builder).Build();
}

Status SaveEdgeList(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "# codlib edge list: " << g.NumNodes() << " nodes, " << g.NumEdges()
      << " edges\n";
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    out << u << ' ' << v;
    if (g.HasWeights()) out << ' ' << g.Weight(e);
    out << '\n';
  }
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::Ok();
}

Result<AttributeTable> LoadAttributes(const std::string& path,
                                      size_t num_nodes) {
  // Simulated read failure, mirroring LoadEdgeList.
  if (COD_FAILPOINT("graph_io/load_attributes")) {
    return Status::IoError("failpoint graph_io/load_attributes armed");
  }
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  AttributeTableBuilder builder;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream ss(line);
    uint64_t node = 0;
    if (!(ss >> node)) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": expected 'node attr...'");
    }
    if (node >= num_nodes) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": node id out of range");
    }
    std::string name;
    while (ss >> name) builder.Add(static_cast<NodeId>(node), name);
  }
  return std::move(builder).Build(num_nodes);
}

Status SaveAttributes(const AttributeTable& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (NodeId v = 0; v < table.NumNodes(); ++v) {
    const auto attrs = table.AttributesOf(v);
    if (attrs.empty()) continue;
    out << v;
    for (AttributeId a : attrs) out << ' ' << table.Name(a);
    out << '\n';
  }
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::Ok();
}

}  // namespace cod

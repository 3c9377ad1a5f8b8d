// Plain-text persistence for graphs and attribute tables.
//
// Formats (whitespace-separated, '#'-prefixed comment lines ignored):
//  * Edge list: one "u v [weight]" per line; node ids are dense integers.
//  * Attributes: one "node attr_name..." per line; names are interned.
//
// These match the common formats of SNAP / Network Repository exports so real
// datasets can be dropped in alongside the synthetic registry.

#ifndef COD_GRAPH_GRAPH_IO_H_
#define COD_GRAPH_GRAPH_IO_H_

#include <string>

#include "common/binary_io.h"
#include "common/status.h"
#include "graph/attributes.h"
#include "graph/graph.h"

namespace cod {

// ---- Binary payload codecs (buffer-to-buffer, no file envelope). ----
//
// Used by the epoch snapshot container (storage/epoch_snapshot.h), which
// checksums each section itself. Both payloads are aligned arrays
// (binary_io.h):
//  * graph: the CSR offsets (u64), the adjacency (AdjEntry), the canonical
//    edges ((u32, u32), u < v, strictly increasing) and the weights (f64,
//    empty when unweighted) — the arrays exactly as Graph holds them.
//    DeserializeGraph adopts them in place (the graph shares the reader's
//    buffer) after checking everything GraphBuilder guarantees: offsets
//    monotone from 0 to 2E, each adjacency entry naming an edge with that
//    endpoint, neighbors strictly increasing per node.
//  * attributes: the name count and names, then the per-node CSR offsets
//    (u64) and sorted attribute ids (u32). Decoded by copy.
// Deserializers validate every length and id — corrupt bytes produce a
// clean Status, never a crash.
void SerializeGraph(const Graph& g, BinaryBufferWriter& out);
Result<Graph> DeserializeGraph(BinarySpanReader& in);

void SerializeAttributes(const AttributeTable& table, BinaryBufferWriter& out);
Result<AttributeTable> DeserializeAttributes(BinarySpanReader& in);

// ---- Plain-text formats. ----

// Loads an undirected edge list. Fails with IoError / InvalidArgument on
// unreadable files or malformed lines.
Result<Graph> LoadEdgeList(const std::string& path);

// Writes "u v" (or "u v weight" for weighted graphs) lines.
Status SaveEdgeList(const Graph& g, const std::string& path);

// Loads node attributes for a graph with `num_nodes` nodes.
Result<AttributeTable> LoadAttributes(const std::string& path,
                                      size_t num_nodes);

Status SaveAttributes(const AttributeTable& table, const std::string& path);

}  // namespace cod

#endif  // COD_GRAPH_GRAPH_IO_H_

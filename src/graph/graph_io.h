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
// checksums each section itself. Round trips are exact: the deserialized
// graph is rebuilt through GraphBuilder from its strictly increasing
// canonical edges, which the builder keeps in order, so the result is
// bit-identical to the original (adjacency, edge ids, weights).
// Deserializers validate every length and id against the snapshot's
// declared sizes — corrupt bytes produce a clean Status, never a crash.
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

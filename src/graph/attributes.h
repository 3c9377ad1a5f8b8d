// Categorical node attributes with an interned vocabulary.
//
// Following the attributed-community-search literature the paper builds on,
// each node carries a (possibly empty) set of categorical attributes drawn
// from a shared vocabulary. Attribute sets are stored in CSR form with each
// node's attribute ids sorted, so membership tests are binary searches over
// tiny ranges.

#ifndef COD_GRAPH_ATTRIBUTES_H_
#define COD_GRAPH_ATTRIBUTES_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace cod {

using AttributeId = uint32_t;

inline constexpr AttributeId kInvalidAttribute = static_cast<AttributeId>(-1);

class AttributeTable {
 public:
  AttributeTable() = default;

  AttributeTable(const AttributeTable&) = delete;
  AttributeTable& operator=(const AttributeTable&) = delete;
  AttributeTable(AttributeTable&&) = default;
  AttributeTable& operator=(AttributeTable&&) = default;

  size_t NumNodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t NumAttributes() const { return names_.size(); }

  // Sorted attribute ids of node `v`.
  std::span<const AttributeId> AttributesOf(NodeId v) const {
    COD_DCHECK(v < NumNodes());
    return {values_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  bool Has(NodeId v, AttributeId a) const;

  // True iff `v` carries at least one of `attrs` (any order, any size;
  // used by multi-attribute "topic set" queries).
  bool HasAny(NodeId v, std::span<const AttributeId> attrs) const;

  const std::string& Name(AttributeId a) const {
    COD_DCHECK(a < names_.size());
    return names_[a];
  }

  // Returns the id of `name`, or kInvalidAttribute if unknown.
  AttributeId Find(const std::string& name) const;

 private:
  friend class AttributeTableBuilder;
  friend void SerializeAttributes(const AttributeTable& table,
                                  BinaryBufferWriter& out);
  friend Result<AttributeTable> DeserializeAttributes(BinarySpanReader& in);

  std::vector<size_t> offsets_;
  std::vector<AttributeId> values_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, AttributeId> index_;
};

class AttributeTableBuilder {
 public:
  // Interns `name`, returning its stable id.
  AttributeId Intern(const std::string& name);

  void Add(NodeId node, AttributeId attribute);
  void Add(NodeId node, const std::string& name) { Add(node, Intern(name)); }

  // Builds a table covering nodes 0..num_nodes-1 (nodes never mentioned get
  // empty attribute sets). Duplicate (node, attribute) pairs are collapsed.
  AttributeTable Build(size_t num_nodes) &&;

 private:
  std::vector<std::pair<NodeId, AttributeId>> pending_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, AttributeId> index_;
};

// The rows of `nodes` (ids of `attrs`, in the order given) as a table over
// nodes 0..nodes.size()-1. Every name stays interned under its id, so
// attribute ids mean the same in the subset as in `attrs`.
AttributeTable SubsetAttributes(const AttributeTable& attrs,
                                std::span<const NodeId> nodes);

// An attributed graph: the structural graph plus its attribute table.
struct AttributedGraph {
  Graph graph;
  AttributeTable attributes;
};

}  // namespace cod

#endif  // COD_GRAPH_ATTRIBUTES_H_

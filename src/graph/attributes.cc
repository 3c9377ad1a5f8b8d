#include "graph/attributes.h"

#include <algorithm>

namespace cod {

bool AttributeTable::Has(NodeId v, AttributeId a) const {
  const auto attrs = AttributesOf(v);
  return std::binary_search(attrs.begin(), attrs.end(), a);
}

bool AttributeTable::HasAny(NodeId v,
                            std::span<const AttributeId> attrs) const {
  for (AttributeId a : attrs) {
    if (Has(v, a)) return true;
  }
  return false;
}

AttributeId AttributeTable::Find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? kInvalidAttribute : it->second;
}

AttributeId AttributeTableBuilder::Intern(const std::string& name) {
  const auto [it, inserted] =
      index_.emplace(name, static_cast<AttributeId>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

void AttributeTableBuilder::Add(NodeId node, AttributeId attribute) {
  COD_CHECK(attribute < names_.size());
  pending_.emplace_back(node, attribute);
}

AttributeTable AttributeTableBuilder::Build(size_t num_nodes) && {
  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());

  AttributeTable table;
  table.names_ = std::move(names_);
  table.index_ = std::move(index_);
  table.offsets_.assign(num_nodes + 1, 0);
  for (const auto& [node, attr] : pending_) {
    COD_CHECK(node < num_nodes);
    ++table.offsets_[node + 1];
  }
  for (size_t i = 1; i <= num_nodes; ++i) {
    table.offsets_[i] += table.offsets_[i - 1];
  }
  table.values_.resize(pending_.size());
  std::vector<size_t> cursor(table.offsets_.begin(), table.offsets_.end() - 1);
  for (const auto& [node, attr] : pending_) {
    table.values_[cursor[node]++] = attr;
  }
  return table;
}

AttributeTable SubsetAttributes(const AttributeTable& attrs,
                                std::span<const NodeId> nodes) {
  AttributeTableBuilder builder;
  for (AttributeId a = 0; a < attrs.NumAttributes(); ++a) {
    builder.Intern(attrs.Name(a));
  }
  for (size_t local = 0; local < nodes.size(); ++local) {
    for (const AttributeId a : attrs.AttributesOf(nodes[local])) {
      builder.Add(static_cast<NodeId>(local), a);
    }
  }
  return std::move(builder).Build(nodes.size());
}

}  // namespace cod

#include "hierarchy/agglomerative.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "graph/connectivity.h"

namespace cod {
namespace {

// Mutable clustering state: active clusters with hash-map adjacency.
//
// adj[c][d] holds the linkage *state* for the pair (c, d), kept symmetric:
//  * kUnweightedAverage: total inter-cluster edge weight (similarity is
//    state / (|c| * |d|));
//  * kSingle / kWeightedAverage: the similarity itself.
struct ClusterState {
  Linkage linkage;
  std::vector<std::unordered_map<CommunityId, double>> adj;
  std::vector<uint32_t> size;       // leaf count of each cluster
  std::vector<CommunityId> vertex;  // dendrogram vertex the cluster maps to
  std::vector<char> active;
  // Smallest leaf node id inside each cluster: the STABLE tie-break key.
  // Cluster ids themselves depend on merge order (Merge keeps whichever id
  // has the larger adjacency map), so breaking similarity ties on ids lets
  // one early divergence reorder merges across the whole component — a
  // single extra edge could restructure ~40% of all ancestor chains, which
  // destroys cross-epoch reuse (ClusterReplay, HimorIndex::BuildDelta). The
  // min-leaf key is a pure function of the cluster's member set, so tied
  // merges resolve identically across epochs and damage stays local to the
  // perturbed region.
  std::vector<NodeId> min_leaf;

  double Similarity(CommunityId a, CommunityId b, double state) const {
    if (linkage == Linkage::kUnweightedAverage) {
      return state / (static_cast<double>(size[a]) * size[b]);
    }
    return state;
  }

  // Nearest active neighbor of `c` by similarity; ties break toward the
  // smaller min-leaf key (see `min_leaf`). Returns kInvalidCommunity if `c`
  // has no neighbors.
  CommunityId NearestNeighbor(CommunityId c) const {
    CommunityId best = kInvalidCommunity;
    double best_sim = -1.0;
    for (const auto& [d, w] : adj[c]) {
      const double sim = Similarity(c, d, w);
      if (sim > best_sim ||
          (sim == best_sim && min_leaf[d] < min_leaf[best])) {
        best_sim = sim;
        best = d;
      }
    }
    return best;
  }

  // Merges `a` and `b`; returns the id that survives (the one with the
  // larger adjacency map). The dendrogram vertex is updated by the caller.
  CommunityId Merge(CommunityId a, CommunityId b) {
    if (adj[a].size() < adj[b].size()) std::swap(a, b);
    adj[a].erase(b);
    adj[b].erase(a);
    if (linkage == Linkage::kWeightedAverage) {
      // WPGMA: sim(ab, d) = (sim(a, d) + sim(b, d)) / 2 with absent pairs
      // counting as 0, so every surviving entry of `a` halves first.
      for (auto& [d, w] : adj[a]) {
        w /= 2.0;
        adj[d][a] = w;
      }
    }
    for (const auto& [d, w] : adj[b]) {
      double& slot = adj[a][d];  // zero-initialized when absent
      switch (linkage) {
        case Linkage::kUnweightedAverage:
          slot += w;
          break;
        case Linkage::kSingle:
          slot = std::max(slot, w);
          break;
        case Linkage::kWeightedAverage:
          slot += w / 2.0;
          break;
      }
      auto& dmap = adj[d];
      dmap.erase(b);
      dmap[a] = slot;
    }
    adj[b].clear();
    size[a] += size[b];
    min_leaf[a] = std::min(min_leaf[a], min_leaf[b]);
    active[b] = 0;
    return a;
  }
};

Status ClusterAbort(StatusCode code) {
  static Counter* aborts = MetricsRegistry::Instance().GetCounter(
      "cod_cluster_budget_aborts_total");
  aborts->Increment();
  return code == StatusCode::kCancelled
             ? Status::Cancelled("agglomerative clustering cancelled")
             : Status::Timeout("agglomerative clustering deadline exceeded");
}

}  // namespace

Dendrogram AgglomerativeCluster(const Graph& g,
                                const AgglomerativeOptions& options) {
  // An unlimited budget never aborts, so the Result form cannot fail here.
  Result<Dendrogram> built = AgglomerativeCluster(g, options, Budget{});
  COD_CHECK(built.ok());
  return std::move(built).value();
}

Result<Dendrogram> AgglomerativeCluster(const Graph& g,
                                        const AgglomerativeOptions& options,
                                        const Budget& budget) {
  return AgglomerativeClusterDelta(g, options, budget, /*dirty=*/nullptr,
                                   /*prev=*/nullptr, /*next=*/nullptr);
}

Result<Dendrogram> AgglomerativeClusterDelta(
    const Graph& g, const AgglomerativeOptions& options, const Budget& budget,
    const std::vector<char>* dirty, const ClusterReplay* prev,
    ClusterReplay* next) {
  const size_t n = g.NumNodes();
  if (next != nullptr) {
    COD_CHECK(next != prev);
    next->valid = false;
    next->num_nodes = n;
    next->linkage = options.linkage;
    next->components.clear();
  }
  DendrogramBuilder builder(n);
  if (n <= 1) {
    // No merges: the empty hierarchy, or one leaf that is its own root.
    if (next != nullptr) {
      if (n == 1) {
        next->components.push_back(ClusterReplay::ComponentRec{0, 1, {}});
      }
      next->valid = true;
    }
    return std::move(builder).Build();
  }

  // Canonical component order: labels are assigned in order of the smallest
  // node id per component, so iterating labels visits components anchored at
  // increasing node ids.
  const Components comps = ConnectedComponents(g);
  std::vector<size_t> comp_begin(comps.count + 1, 0);
  for (uint32_t label : comps.label) ++comp_begin[label + 1];
  for (size_t c = 1; c <= comps.count; ++c) comp_begin[c] += comp_begin[c - 1];
  std::vector<NodeId> comp_nodes(n);
  {
    std::vector<size_t> cursor(comp_begin.begin(), comp_begin.end() - 1);
    for (NodeId v = 0; v < n; ++v) comp_nodes[cursor[comps.label[v]]++] = v;
  }

  const bool reusable = prev != nullptr && prev->valid &&
                        prev->num_nodes == n &&
                        prev->linkage == options.linkage &&
                        dirty != nullptr && dirty->size() == n;
  std::unordered_map<NodeId, const ClusterReplay::ComponentRec*> prev_by_anchor;
  if (reusable) {
    prev_by_anchor.reserve(prev->components.size());
    for (const auto& rec : prev->components) prev_by_anchor[rec.anchor] = &rec;
  }

  ClusterState state;
  state.linkage = options.linkage;
  state.adj.resize(n);
  state.size.assign(n, 1);
  state.vertex.resize(n);
  state.active.assign(n, 1);
  state.min_leaf.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    state.vertex[v] = static_cast<CommunityId>(v);
    state.min_leaf[v] = v;
    for (const AdjEntry& a : g.Neighbors(v)) {
      if (options.linkage == Linkage::kSingle) {
        double& slot = state.adj[v][a.to];
        slot = std::max(slot, g.Weight(a.edge));
      } else {
        state.adj[v][a.to] += g.Weight(a.edge);
      }
    }
  }

  // Ref encoding of dendrogram vertices for the replay record: leaves keep
  // their node id; each computed merge gets num_nodes + its index within the
  // component's merge list.
  std::vector<uint32_t> vertex_ref;
  if (next != nullptr) {
    vertex_ref.resize(2 * n);
    for (NodeId v = 0; v < n; ++v) vertex_ref[v] = v;
  }
  // Dendrogram vertices of a replayed component's merges, by merge index.
  std::vector<CommunityId> replay_vertex;

  // Roots of finished components, joined under a single root at the end.
  std::vector<CommunityId> component_roots;
  component_roots.reserve(comps.count);
  std::vector<CommunityId> chain;

  // Cooperative deadline poll. One NN-chain step costs roughly one
  // NearestNeighbor scan (tens of ns to a few us on hub clusters), so a
  // stride of 256 steps surfaces an expired budget within well under a
  // millisecond — against clustering passes that take seconds on large
  // graphs. At step == 0 the poll fires before any merge, so already-expired
  // budgets abort deterministically (see common/deadline.h).
  constexpr size_t kBudgetStride = 256;
  size_t steps = 0;

  for (uint32_t comp = 0; comp < comps.count; ++comp) {
    const size_t begin = comp_begin[comp];
    const size_t end = comp_begin[comp + 1];
    const NodeId anchor = comp_nodes[begin];
    const uint32_t comp_size = static_cast<uint32_t>(end - begin);

    // A component with no member on a changed edge has identical internal
    // structure (membership, edges, weights) to the previous epoch's
    // component at the same anchor: replay its merges verbatim.
    const ClusterReplay::ComponentRec* rec = nullptr;
    if (reusable) {
      bool clean = true;
      for (size_t i = begin; clean && i < end; ++i) {
        clean = (*dirty)[comp_nodes[i]] == 0;
      }
      if (clean) {
        const auto it = prev_by_anchor.find(anchor);
        if (it != prev_by_anchor.end() && it->second->num_nodes == comp_size) {
          rec = it->second;
        }
      }
    }

    if (rec != nullptr) {
      const StatusCode budget_code = budget.ExhaustedCode();
      if (budget_code != StatusCode::kOk) return ClusterAbort(budget_code);
      replay_vertex.clear();
      CommunityId root_vertex = static_cast<CommunityId>(anchor);
      for (const ClusterReplay::MergeRec& m : rec->merges) {
        const CommunityId va =
            m.a < n ? static_cast<CommunityId>(m.a) : replay_vertex[m.a - n];
        const CommunityId vb =
            m.b < n ? static_cast<CommunityId>(m.b) : replay_vertex[m.b - n];
        root_vertex = builder.Merge(va, vb);
        replay_vertex.push_back(root_vertex);
      }
      component_roots.push_back(root_vertex);
      if (next != nullptr) next->components.push_back(*rec);
      continue;
    }

    ClusterReplay::ComponentRec out_rec;
    if (next != nullptr) {
      out_rec.anchor = anchor;
      out_rec.num_nodes = comp_size;
      out_rec.merges.reserve(comp_size > 0 ? comp_size - 1 : 0);
    }

    // NN-chain run restricted to this component. Within a connected
    // component every active cluster keeps at least one neighbor until one
    // cluster remains, so chains only die by merging.
    size_t scan_idx = begin;  // next candidate to start a fresh chain
    size_t merges_done = 0;
    CommunityId last_kept = static_cast<CommunityId>(anchor);
    chain.clear();
    while (merges_done + 1 < comp_size) {
      if (steps++ % kBudgetStride == 0) {
        const StatusCode budget_code = budget.ExhaustedCode();
        if (budget_code != StatusCode::kOk) return ClusterAbort(budget_code);
      }
      if (chain.empty()) {
        while (scan_idx < end && !state.active[comp_nodes[scan_idx]]) {
          ++scan_idx;
        }
        COD_CHECK(scan_idx < end);
        chain.push_back(static_cast<CommunityId>(comp_nodes[scan_idx]));
      }
      const CommunityId tip = chain.back();
      const CommunityId nn = state.NearestNeighbor(tip);
      COD_CHECK(nn != kInvalidCommunity);
      if (chain.size() >= 2 && nn == chain[chain.size() - 2]) {
        // Mutual nearest neighbors: merge.
        chain.pop_back();
        chain.pop_back();
        const CommunityId other = nn;
        const CommunityId merged_vertex =
            builder.Merge(state.vertex[tip], state.vertex[other]);
        if (next != nullptr) {
          out_rec.merges.push_back(ClusterReplay::MergeRec{
              vertex_ref[state.vertex[tip]], vertex_ref[state.vertex[other]]});
          vertex_ref[merged_vertex] =
              static_cast<uint32_t>(n + out_rec.merges.size() - 1);
        }
        const CommunityId kept = state.Merge(tip, other);
        state.vertex[kept] = merged_vertex;
        last_kept = kept;
        ++merges_done;
      } else {
        chain.push_back(nn);
      }
    }
    component_roots.push_back(state.vertex[last_kept]);
    if (next != nullptr) next->components.push_back(std::move(out_rec));
  }

  COD_CHECK(!component_roots.empty());
  if (component_roots.size() > 1) {
    builder.Merge(component_roots);
  }
  if (next != nullptr) next->valid = true;
  return std::move(builder).Build();
}

}  // namespace cod

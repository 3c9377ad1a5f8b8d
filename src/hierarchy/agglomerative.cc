#include "hierarchy/agglomerative.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "graph/connectivity.h"

namespace cod {
namespace {

// One entry of a cluster's neighbour run: the neighbouring cluster and the
// linkage *state* of the pair, kept symmetric (each side holds the same
// value):
//  * kUnweightedAverage: total inter-cluster edge weight (similarity is
//    state / (|c| * |d|));
//  * kSingle / kWeightedAverage: the similarity itself.
struct Link {
  CommunityId to;
  double state;
};

// Orders a run's links against a neighbour id, for std::lower_bound.
bool LinkBefore(const Link& x, CommunityId y) { return x.to < y; }

// What the nearest-neighbour scan reads of each neighbour, packed so one
// load serves both the similarity and the tie-break.
struct ClusterKey {
  uint32_t size;  // leaf count
  // Smallest leaf node id inside the cluster: the STABLE tie-break key.
  // Cluster ids themselves depend on merge order (Merge keeps whichever id
  // has more neighbours), so breaking similarity ties on ids lets one early
  // divergence reorder merges across the whole component — a single extra
  // edge could restructure ~40% of all ancestor chains, which destroys
  // cross-epoch reuse (ClusterReplay, HimorIndex::BuildDelta). The min-leaf
  // key is a pure function of the cluster's member set, so tied merges
  // resolve identically across epochs and damage stays local to the
  // perturbed region.
  NodeId min_leaf;
};

// A cluster's neighbour run: `len` links sorted by strictly increasing
// neighbour id at pool[begin, begin + len), inside a slot of `cap` links.
struct Run {
  size_t begin = 0;
  uint32_t len = 0;
  uint32_t cap = 0;
};

// Mutable clustering state: active clusters with their neighbour runs in
// one pooled arena.
struct ClusterState {
  Linkage linkage;
  std::vector<Link> pool;
  std::vector<Run> runs;
  std::vector<ClusterKey> key;
  std::vector<CommunityId> vertex;  // dendrogram vertex the cluster maps to
  std::vector<char> active;
  std::vector<Link> merged;  // Merge's output buffer, reused
  size_t garbage = 0;        // pool links in no run's slot

  // Seeds every node's run with its graph neighbours. Neighbour lists are
  // strictly increasing by id (graph/graph.h), so each run starts sorted.
  void Init(const Graph& g) {
    const size_t n = g.NumNodes();
    pool.resize(2 * g.NumEdges());
    runs.resize(n);
    key.resize(n);
    vertex.resize(n);
    active.assign(n, 1);
    size_t at = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto nbrs = g.Neighbors(v);
      runs[v] = Run{at, static_cast<uint32_t>(nbrs.size()),
                    static_cast<uint32_t>(nbrs.size())};
      key[v] = ClusterKey{1, v};
      vertex[v] = static_cast<CommunityId>(v);
      for (const AdjEntry& e : nbrs) {
        COD_DCHECK(at == runs[v].begin || pool[at - 1].to < e.to);
        // A pair's state starts at 0.0 and takes the edge weight through
        // the linkage's combine, as an absent pair does in Merge.
        pool[at++] = Link{static_cast<CommunityId>(e.to),
                          linkage == Linkage::kSingle
                              ? std::max(0.0, g.Weight(e.edge))
                              : 0.0 + g.Weight(e.edge)};
      }
    }
  }

  Link* RunBegin(CommunityId c) { return pool.data() + runs[c].begin; }

  // Nearest active neighbour of `c` by similarity; ties break toward the
  // smaller min-leaf key (see ClusterKey). Returns kInvalidCommunity if `c`
  // has no neighbours.
  CommunityId NearestNeighbor(CommunityId c) const {
    const Link* first = pool.data() + runs[c].begin;
    const Link* last = first + runs[c].len;
    if (linkage == Linkage::kUnweightedAverage) {
      const double size_c = static_cast<double>(key[c].size);
      return Scan(first, last, [&](const Link& l, const ClusterKey& k) {
        return l.state / (size_c * k.size);
      });
    }
    return Scan(first, last,
                [](const Link& l, const ClusterKey&) { return l.state; });
  }

  template <typename SimilarityFn>
  CommunityId Scan(const Link* first, const Link* last,
                   SimilarityFn similarity) const {
    CommunityId best = kInvalidCommunity;
    double best_sim = -1.0;
    NodeId best_leaf = kInvalidNode;
    for (const Link* l = first; l != last; ++l) {
      const ClusterKey k = key[l->to];
      const double sim = similarity(*l, k);
      if (sim > best_sim || (sim == best_sim && k.min_leaf < best_leaf)) {
        best_sim = sim;
        best = l->to;
        best_leaf = k.min_leaf;
      }
    }
    return best;
  }

  // Merges `a` and `b`; returns the id that survives: the one with more
  // neighbours, `a` on a tie. The dendrogram vertex is updated by the
  // caller. The two runs merge linearly into `merged`; each neighbour d
  // of `b` then rewrites its own run in place (binary search, then one
  // shift), and under WPGMA so does each neighbour of `a`.
  CommunityId Merge(CommunityId a, CommunityId b) {
    if (runs[a].len < runs[b].len) std::swap(a, b);
    merged.clear();
    const Link* pa = RunBegin(a);
    const Link* const ea = pa + runs[a].len;
    const Link* pb = RunBegin(b);
    const Link* const eb = pb + runs[b].len;
    while (pa != ea || pb != eb) {
      if (pb == eb || (pa != ea && pa->to < pb->to)) {
        if (pa->to != b) {
          // Only `a` neighbours d. WPGMA: sim(ab, d) = (sim(a, d) +
          // sim(b, d)) / 2 with the absent pair counting as 0.
          if (linkage == Linkage::kWeightedAverage) {
            merged.push_back(Link{pa->to, pa->state / 2.0});
            FindIn(pa->to, a)->state = merged.back().state;
          } else {
            merged.push_back(*pa);
          }
        }
        ++pa;
      } else if (pa == ea || pb->to < pa->to) {
        if (pb->to != a) {
          // Only `b` neighbours d: combine with the absent pair's 0.0.
          merged.push_back(Link{pb->to, Combine(0.0, pb->state)});
          Relabel(pb->to, b, a, merged.back().state);
        }
        ++pb;
      } else {
        merged.push_back(Link{pa->to, Combine(pa->state, pb->state)});
        Fold(pa->to, a, b, merged.back().state);
        ++pa;
        ++pb;
      }
    }
    Store(a, b);
    key[a].size += key[b].size;
    key[a].min_leaf = std::min(key[a].min_leaf, key[b].min_leaf);
    active[b] = 0;
    return a;
  }

  // The state of (ab, d) from those of (a, d) and (b, d).
  double Combine(double wa, double wb) const {
    switch (linkage) {
      case Linkage::kUnweightedAverage:
        return wa + wb;
      case Linkage::kSingle:
        return std::max(wa, wb);
      case Linkage::kWeightedAverage:
        return wa / 2.0 + wb / 2.0;
    }
    return wa;
  }

  // Link to `id` in `d`'s run, which must hold one.
  Link* FindIn(CommunityId d, CommunityId id) {
    Link* first = RunBegin(d);
    Link* l = std::lower_bound(first, first + runs[d].len, id, LinkBefore);
    COD_DCHECK(l != first + runs[d].len && l->to == id);
    return l;
  }

  // `d` neighbours `b` but not `a`: b's link becomes a's, shifted to its
  // sorted place.
  void Relabel(CommunityId d, CommunityId b, CommunityId a, double state) {
    Link* first = RunBegin(d);
    Link* last = first + runs[d].len;
    Link* slot = FindIn(d, b);
    if (a < b) {
      Link* dest = std::lower_bound(first, slot, a, LinkBefore);
      std::move_backward(dest, slot, slot + 1);
      *dest = Link{a, state};
    } else {
      Link* dest = std::lower_bound(slot + 1, last, a, LinkBefore);
      std::move(slot + 1, dest, slot);
      *(dest - 1) = Link{a, state};
    }
  }

  // `d` neighbours both: a's link takes the combined state, b's is erased.
  void Fold(CommunityId d, CommunityId a, CommunityId b, double state) {
    FindIn(d, a)->state = state;
    Link* slot = FindIn(d, b);
    std::move(slot + 1, RunBegin(d) + runs[d].len, slot);
    --runs[d].len;
  }

  // Moves `merged` into a's slot, or b's when only that one is big enough,
  // or a new slot at the pool's end; b's run is dropped. When more than
  // half the pool is garbage, every live run is packed again.
  void Store(CommunityId a, CommunityId b) {
    const uint32_t len = static_cast<uint32_t>(merged.size());
    Run& ra = runs[a];
    Run& rb = runs[b];
    if (len <= ra.cap) {
      garbage += rb.cap;
    } else if (len <= rb.cap) {
      garbage += ra.cap;
      ra.begin = rb.begin;
      ra.cap = rb.cap;
    } else {
      garbage += ra.cap + rb.cap;
      if (garbage > pool.size() / 2) Compact(a, b);
      ra.begin = pool.size();
      ra.cap = len;
      pool.resize(pool.size() + len);
    }
    std::copy(merged.begin(), merged.end(), pool.begin() + ra.begin);
    ra.len = len;
    rb = Run{};
  }

  // Copies every run except those of `a` and `b` (both about to be
  // replaced) into a fresh pool, each slot trimmed to its length.
  void Compact(CommunityId a, CommunityId b) {
    std::vector<Link> packed;
    packed.reserve(pool.size() - garbage + merged.size());
    for (CommunityId c = 0; c < runs.size(); ++c) {
      Run& r = runs[c];
      if (c == a || c == b || r.cap == 0) continue;
      const size_t at = packed.size();
      packed.insert(packed.end(), pool.begin() + r.begin,
                    pool.begin() + r.begin + r.len);
      r = Run{at, r.len, r.len};
    }
    pool = std::move(packed);
    garbage = 0;
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
  // Both component lists are in anchor order, so one forward cursor over
  // the previous record finds each anchor's component.
  size_t prev_at = 0;

  ClusterState state;
  state.linkage = options.linkage;
  state.Init(g);

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
      while (prev_at < prev->components.size() &&
             prev->components[prev_at].anchor < anchor) {
        ++prev_at;
      }
      if (clean && prev_at < prev->components.size() &&
          prev->components[prev_at].anchor == anchor &&
          prev->components[prev_at].num_nodes == comp_size) {
        rec = &prev->components[prev_at];
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

// Agglomerative hierarchical graph clustering via the nearest-neighbor-chain
// algorithm with the unweighted-average linkage function — the configuration
// the paper uses for all its hierarchies (Sec. V-A, citing [45], [54], [55]).
//
// Clusters start as singletons; the similarity between clusters A and B is
//     sim(A, B) = W(A, B) / (|A| * |B|),
// where W(A, B) is the total weight of graph edges between A and B (so
// non-adjacent clusters have similarity 0). Average linkage is reducible,
// which makes the NN-chain algorithm produce the same merge tree as greedy
// best-merge agglomeration.
//
// Implementation notes:
//  * Each cluster's adjacency is a flat run of (neighbour, state) links
//    sorted by neighbour id, all runs in one pooled arena. A nearest-
//    neighbour step scans the tip's run linearly. A merge of A and B merges
//    their runs linearly (O(|A| + |B|), no more than the NN scans that led
//    to it), and each neighbour D of the absorbed cluster rewrites its own
//    run in place: a binary search, then one shift of at most |D| links. A
//    merged run that fits neither old slot goes to the arena's end; the
//    arena is packed again once more than half of it is garbage.
//  * The surviving cluster id is the one with more neighbours (the chain
//    tip on a tie). Cluster ids pick where the next chain starts, so this
//    rule shapes the tree: changing it changes the dendrogram bytes even
//    though the merge rule itself is untouched.
//  * Execution is canonicalized per connected component: components run to
//    completion one at a time, in order of their smallest node id, and their
//    roots are merged into the tree root in that same order (similarity 0).
//    NN chains never cross components and each component's chain restarts at
//    its smallest active cluster, so on a connected graph this is *exactly*
//    the classic global NN-chain run; on disconnected graphs the merge SETS
//    are identical and only the internal vertex numbering differs. The
//    canonical order is what makes per-component replay (below) possible.

#ifndef COD_HIERARCHY_AGGLOMERATIVE_H_
#define COD_HIERARCHY_AGGLOMERATIVE_H_

#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "graph/graph.h"
#include "hierarchy/dendrogram.h"

namespace cod {

// Linkage functions. The paper uses unweighted-average linkage; the others
// are provided because the choice is explicitly orthogonal to COD ("our
// methods can also be combined with ... other linkage functions [16]") and
// they matter for the hierarchy-shape ablations:
//  * kUnweightedAverage (UPGMA): sim(A,B) = W(A,B) / (|A| * |B|).
//  * kSingle: sim(A,B) = max edge weight between A and B.
//  * kWeightedAverage (WPGMA): on merge of A,B, the similarity to any C is
//    the plain mean (sim(A,C) + sim(B,C)) / 2, regardless of sizes.
// All three are reducible, so the nearest-neighbor chain stays exact.
enum class Linkage {
  kUnweightedAverage,
  kSingle,
  kWeightedAverage,
};

struct AgglomerativeOptions {
  Linkage linkage = Linkage::kUnweightedAverage;
  // Ties in similarity break toward the smaller current cluster id; this
  // keeps runs deterministic.
};

// Replayable record of one clustering run, keyed by connected component
// (DESIGN.md Sec. 15). The NN-chain run of a component is a pure function of
// that component's internal edges and weights, so a component none of whose
// members touch a changed edge replays its recorded merge list verbatim —
// no adjacency maps, no NN scans. Merge operands are refs: a ref < num_nodes
// is a leaf (node id == leaf vertex id); a ref >= num_nodes denotes the
// (ref - num_nodes)-th earlier merge of the SAME component.
struct ClusterReplay {
  struct MergeRec {
    uint32_t a = 0;
    uint32_t b = 0;
  };
  struct ComponentRec {
    NodeId anchor = kInvalidNode;  // smallest node id in the component
    uint32_t num_nodes = 0;
    std::vector<MergeRec> merges;  // in execution order
  };
  size_t num_nodes = 0;
  Linkage linkage = Linkage::kUnweightedAverage;
  std::vector<ComponentRec> components;  // in anchor (= label) order
  bool valid = false;
};

// Clusters `g` (using its edge weights) into a binary-until-the-last-pass
// dendrogram. Works for any graph; an empty graph gives the empty
// hierarchy (no vertices).
Dendrogram AgglomerativeCluster(const Graph& g,
                                const AgglomerativeOptions& options = {});

// Budget-aware form: the NN-chain loop polls `budget` every few hundred
// steps and unwinds with kTimeout / kCancelled instead of finishing the
// clustering pass — so a deadline-carrying CODR global recluster or LORE
// local recluster no longer overshoots by a whole agglomerative run. Aborts
// return no dendrogram (a partial merge tree is not a valid hierarchy) and
// count one cod_cluster_budget_aborts_total event in the metrics registry.
// An unlimited budget takes the exact same code path as the plain form.
Result<Dendrogram> AgglomerativeCluster(const Graph& g,
                                        const AgglomerativeOptions& options,
                                        const Budget& budget);

// Incremental form. With `prev` (a valid record from the previous epoch,
// same node count and linkage) and `dirty` (vertices incident to any edge
// added, removed, or reweighted since), components with no dirty member are
// replayed from the record; only dirty components pay the NN-chain run. The
// result is bit-identical to the plain form on the same graph. `next`
// (nullable; != prev) receives the record of THIS run for the following
// epoch, and is valid only when the build returns Ok. Pass nulls for a cold
// run that still produces a record.
Result<Dendrogram> AgglomerativeClusterDelta(const Graph& g,
                                             const AgglomerativeOptions& options,
                                             const Budget& budget,
                                             const std::vector<char>* dirty,
                                             const ClusterReplay* prev,
                                             ClusterReplay* next);

}  // namespace cod

#endif  // COD_HIERARCHY_AGGLOMERATIVE_H_

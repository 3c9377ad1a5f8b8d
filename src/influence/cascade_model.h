// Diffusion models over a graph.
//
// The paper runs the independent cascade (IC) model with weighted-cascade
// probabilities p(u, v) = 1 / |N(v)| (Sec. V-A) and notes that any model
// compatible with reverse-reachable (RR) sampling works; we also provide the
// linear threshold (LT) model with the same degree-normalized weights.
//
// A DiffusionModel stores, for every directed orientation of every edge, the
// activation probability (IC) or edge weight (LT). Probabilities are indexed
// by (EdgeId, direction) so samplers touching a node's incident edges pay no
// lookups.

#ifndef COD_INFLUENCE_CASCADE_MODEL_H_
#define COD_INFLUENCE_CASCADE_MODEL_H_

#include <vector>

#include "common/random.h"
#include "graph/graph.h"

namespace cod {

enum class DiffusionKind {
  kIndependentCascade,
  kLinearThreshold,
};

class DiffusionModel {
 public:
  // IC with p(u, v) = 1 / |N(v)| (weighted cascade, Chen et al.).
  static DiffusionModel WeightedCascadeIc(const Graph& g);
  // IC with a single probability on every directed edge.
  static DiffusionModel UniformIc(const Graph& g, double p);
  // IC with the trivalency scheme (Chen et al.): each directed edge draws
  // its probability uniformly from {0.1, 0.01, 0.001}. Deterministic for a
  // given rng state.
  static DiffusionModel TrivalencyIc(const Graph& g, Rng& rng);
  // LT with b(u, v) = 1 / |N(v)| (in-weights of every node sum to 1).
  static DiffusionModel WeightedCascadeLt(const Graph& g);

  DiffusionKind kind() const { return kind_; }
  const Graph& graph() const { return *graph_; }

  // Probability (IC) or weight (LT) of the orientation of edge `e` pointing
  // *toward* node `to` ("to" must be an endpoint of `e`).
  double ProbToward(EdgeId e, NodeId to) const {
    const auto [lo, hi] = graph_->Endpoints(e);
    COD_DCHECK(to == lo || to == hi);
    return to == hi ? prob_to_hi_[e] : prob_to_lo_[e];
  }

 private:
  DiffusionModel(const Graph& g, DiffusionKind kind)
      : graph_(&g),
        kind_(kind),
        prob_to_lo_(g.NumEdges()),
        prob_to_hi_(g.NumEdges()) {}

  const Graph* graph_;
  DiffusionKind kind_;
  std::vector<double> prob_to_lo_;  // toward Endpoints(e).first
  std::vector<double> prob_to_hi_;  // toward Endpoints(e).second
};

}  // namespace cod

#endif  // COD_INFLUENCE_CASCADE_MODEL_H_

#include "influence/cascade_model.h"

#include <vector>

namespace cod {
namespace {

void FillDegreeNormalized(const Graph& g, std::vector<double>* to_lo,
                          std::vector<double>* to_hi) {
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [lo, hi] = g.Endpoints(e);
    (*to_lo)[e] = 1.0 / g.Degree(lo);
    (*to_hi)[e] = 1.0 / g.Degree(hi);
  }
}

}  // namespace

DiffusionModel DiffusionModel::WeightedCascadeIc(const Graph& g) {
  DiffusionModel m(g, DiffusionKind::kIndependentCascade);
  FillDegreeNormalized(g, &m.prob_to_lo_, &m.prob_to_hi_);
  return m;
}

DiffusionModel DiffusionModel::UniformIc(const Graph& g, double p) {
  COD_CHECK(p >= 0.0 && p <= 1.0);
  DiffusionModel m(g, DiffusionKind::kIndependentCascade);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    m.prob_to_lo_[e] = p;
    m.prob_to_hi_[e] = p;
  }
  return m;
}

DiffusionModel DiffusionModel::TrivalencyIc(const Graph& g, Rng& rng) {
  static constexpr double kLevels[3] = {0.1, 0.01, 0.001};
  DiffusionModel m(g, DiffusionKind::kIndependentCascade);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    m.prob_to_lo_[e] = kLevels[rng.UniformInt(3)];
    m.prob_to_hi_[e] = kLevels[rng.UniformInt(3)];
  }
  return m;
}

DiffusionModel DiffusionModel::WeightedCascadeLt(const Graph& g) {
  DiffusionModel m(g, DiffusionKind::kLinearThreshold);
  FillDegreeNormalized(g, &m.prob_to_lo_, &m.prob_to_hi_);
  return m;
}

}  // namespace cod

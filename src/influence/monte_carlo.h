// Forward Monte-Carlo influence simulation.
//
// The slow-but-direct estimator of sigma_C(q): repeatedly run the diffusion
// process forward from the seed and average the number of activated nodes.
// Used as ground truth in tests (validating Theorem 1 / Theorem 2 estimators)
// and to report the paper's I(q) effectiveness measure.

#ifndef COD_INFLUENCE_MONTE_CARLO_H_
#define COD_INFLUENCE_MONTE_CARLO_H_

#include <span>
#include <vector>

#include "common/random.h"
#include "influence/cascade_model.h"

namespace cod {

class MonteCarloSimulator {
 public:
  explicit MonteCarloSimulator(const DiffusionModel& model);

  // Average number of nodes activated by seeding `seed`, over `trials` runs.
  // If `allowed` is non-null the process is confined to allowed nodes
  // (the induced-community process with original probabilities).
  double EstimateInfluence(NodeId seed, size_t trials, Rng& rng,
                           const std::vector<char>* allowed = nullptr);

  // Multi-seed variant (EstimateInfluence runs through it): all seeds start
  // active at step 0. Duplicate seeds are allowed and count once.
  double EstimateInfluenceOfSet(std::span<const NodeId> seeds, size_t trials,
                                Rng& rng,
                                const std::vector<char>* allowed = nullptr);

 private:
  size_t RunOnce(std::span<const NodeId> seeds, Rng& rng,
                 const std::vector<char>* allowed);

  const DiffusionModel* model_;
  const Graph* graph_;
  std::vector<uint32_t> active_epoch_;
  uint32_t epoch_ = 0;
  std::vector<NodeId> frontier_;
  // LT state: per-trial thresholds and accumulated in-weight, epoch-marked.
  std::vector<double> threshold_;
  std::vector<double> in_weight_;
  std::vector<uint32_t> lt_epoch_;
};

}  // namespace cod

#endif  // COD_INFLUENCE_MONTE_CARLO_H_

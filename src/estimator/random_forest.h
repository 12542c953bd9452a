// Random-forest regression, from scratch: bagged CART trees with
// variance-reduction splits. Maya's default kernel runtime estimators are
// random forests trained on profiled kernel microbenchmarks (§4.3, App. B).
#ifndef SRC_ESTIMATOR_RANDOM_FOREST_H_
#define SRC_ESTIMATOR_RANDOM_FOREST_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace maya {

struct Dataset {
  // Row-major features; all rows share one width.
  std::vector<std::vector<double>> x;
  std::vector<double> y;

  size_t size() const { return y.size(); }
  void Add(std::vector<double> features, double target);
};

struct RandomForestOptions {
  int num_trees = 24;
  int max_depth = 18;
  int min_samples_leaf = 2;
  // Fraction of features examined per split (feature bagging).
  double feature_fraction = 0.75;
  // Bootstrap sample fraction per tree.
  double sample_fraction = 0.85;
  uint64_t seed = 17;
};

// A single CART regression tree. Nodes live in a contiguous struct-of-arrays
// layout (parallel feature/threshold/child/value vectors): traversal only
// touches the arrays it branches on, so the hot inference loop stays inside a
// few cache lines instead of striding over fat AoS nodes.
class RegressionTree {
 public:
  void Fit(const Dataset& data, const std::vector<uint32_t>& sample_indices,
           const RandomForestOptions& options, Rng& rng);
  // Iterative root-to-leaf descent; `features` must hold at least as many
  // values as the widest feature index seen in training.
  double Predict(const double* features) const;
  double Predict(const std::vector<double>& features) const { return Predict(features.data()); }
  size_t node_count() const { return feature_.size(); }

 private:
  template <class V>
  friend void Fields(V& v, RegressionTree& tree);  // src/estimator/serialization.cc

  int32_t Build(const Dataset& data, std::vector<uint32_t>& indices, size_t begin, size_t end,
                int depth, const RandomForestOptions& options, Rng& rng);
  int32_t AppendNode(double value);

  // SoA node storage, index-aligned: feature_[i] < 0 marks node i a leaf with
  // prediction value_[i]; otherwise branch on threshold_[i] to left_/right_.
  std::vector<int32_t> feature_;
  std::vector<double> threshold_;
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
  std::vector<double> value_;
};

class RandomForestRegressor {
 public:
  explicit RandomForestRegressor(RandomForestOptions options = {}) : options_(options) {}

  // Trains on the dataset; CHECK-fails on empty input.
  void Fit(const Dataset& data);
  double Predict(const double* features) const;
  double Predict(const std::vector<double>& features) const { return Predict(features.data()); }
  // Batched inference over `row_count` rows of `row_width` features each
  // (row-major, contiguous). Iterates trees in the outer loop so each tree's
  // node arrays stay cache-hot across the whole batch; out[i] receives the
  // prediction for row i. Bit-identical to per-row Predict.
  void PredictBatch(const double* rows, size_t row_count, size_t row_width, double* out) const;
  bool trained() const { return !trees_.empty(); }
  const RandomForestOptions& options() const { return options_; }

 private:
  template <class V>
  friend void Fields(V& v, RandomForestRegressor& forest);  // src/estimator/serialization.cc

  RandomForestOptions options_;
  std::vector<RegressionTree> trees_;
};

}  // namespace maya

#endif  // SRC_ESTIMATOR_RANDOM_FOREST_H_

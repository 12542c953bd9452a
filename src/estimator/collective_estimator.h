// Collective runtime estimators (§4.3 "Network Model").
//
// After all participants of a collective join the simulator's waitmap, the
// on-the-wire duration is a black-box prediction from one of these models:
// either interpolation over profiled link characteristics (the default,
// built like nccl-tests sweeps per Appendix B) or a pluggable network
// simulator (the ASTRA-sim-like analytical model for hyperscale runs).
#ifndef SRC_ESTIMATOR_COLLECTIVE_ESTIMATOR_H_
#define SRC_ESTIMATOR_COLLECTIVE_ESTIMATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/hw/collective_cost.h"
#include "src/hw/network_model.h"

namespace maya {

class CollectiveEstimator {
 public:
  virtual ~CollectiveEstimator() = default;
  virtual std::string name() const = 0;
  virtual double PredictUs(const CollectiveRequest& request,
                           const ClusterSpec& cluster) const = 0;
};

struct CollectiveSample {
  CollectiveRequest request;
  double runtime_us = 0.0;
};

// Interpolating estimator over profiled (size, time) sweeps, grouped by
// (collective kind, group size, node span). Predictions interpolate
// log-log-linearly between profiled sizes; outside the profiled range the
// nearest segment's slope extrapolates — acceptable because collective sizes
// in training are bounded by model/batch dimensions (Appendix B).
class ProfiledCollectiveEstimator final : public CollectiveEstimator {
 public:
  void Fit(const std::vector<CollectiveSample>& samples, const ClusterSpec& cluster);
  std::string name() const override { return "profiled-interpolation"; }
  double PredictUs(const CollectiveRequest& request, const ClusterSpec& cluster) const override;

  size_t group_count() const { return tables_.size(); }

 private:
  template <class V>
  friend void Fields(V& v, ProfiledCollectiveEstimator& estimator);  // serialization.cc

  struct Key {
    CollectiveKind kind;
    int32_t nranks;
    int32_t num_nodes;
    bool operator<(const Key& other) const;
  };
  // (log bytes, log us), sorted by bytes.
  using Curve = std::vector<std::pair<double, double>>;

  static Key KeyFor(const CollectiveRequest& request, const ClusterSpec& cluster);

  std::map<Key, Curve> tables_;
  RingCollectiveModel fallback_;
};

// Adapts any NetworkModel (e.g. AstraLikeNetworkModel) to the estimator
// interface, mirroring the paper's ASTRA-sim integration for 16K-GPU runs.
class NetworkModelCollectiveEstimator final : public CollectiveEstimator {
 public:
  explicit NetworkModelCollectiveEstimator(const NetworkModel* model) : model_(model) {}
  std::string name() const override { return "network-model:" + model_->name(); }
  double PredictUs(const CollectiveRequest& request, const ClusterSpec& cluster) const override {
    return model_->CollectiveUs(request, cluster);
  }

 private:
  const NetworkModel* model_;
};

}  // namespace maya

#endif  // SRC_ESTIMATOR_COLLECTIVE_ESTIMATOR_H_

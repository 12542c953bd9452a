// Pluggable kernel runtime estimators (§4.3).
//
// The estimation phase annotates every compute op in the collated trace with
// a predicted duration. Estimators are pluggable; the default is a bank of
// random-forest regressors (one per kernel type, per target architecture)
// trained on profiling data, with MAPE evaluation utilities reproducing the
// paper's Appendix B tables.
#ifndef SRC_ESTIMATOR_KERNEL_ESTIMATOR_H_
#define SRC_ESTIMATOR_KERNEL_ESTIMATOR_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cuda/kernel_desc.h"
#include "src/estimator/random_forest.h"

namespace maya {

class KernelRuntimeEstimator {
 public:
  virtual ~KernelRuntimeEstimator() = default;
  virtual std::string name() const = 0;
  // Predicted device-side duration, microseconds.
  virtual double PredictUs(const KernelDesc& kernel) const = 0;
  // Batched prediction: out[i] = predicted duration of *kernels[i] for i in
  // [0, count). The default delegates to PredictUs per kernel; model-backed
  // estimators override it with throughput-oriented inference.
  // Implementations must be bit-identical to per-kernel PredictUs calls.
  virtual void PredictUsBatch(const KernelDesc* const* kernels, size_t count, double* out) const {
    for (size_t i = 0; i < count; ++i) {
      out[i] = PredictUs(*kernels[i]);
    }
  }
};

// One profiled observation: kernel metadata + measured runtime.
struct KernelSample {
  KernelDesc kernel;
  double runtime_us = 0.0;
};
using KernelDataset = std::vector<KernelSample>;

// Default estimator: per-kernel-kind random forests over KernelFeatures,
// fitted on log(runtime) so the loss is multiplicative (matches MAPE).
class RandomForestKernelEstimator final : public KernelRuntimeEstimator {
 public:
  explicit RandomForestKernelEstimator(RandomForestOptions options = {});

  void Fit(const KernelDataset& samples);
  std::string name() const override { return "random-forest"; }
  double PredictUs(const KernelDesc& kernel) const override;
  // Groups the batch by kernel kind and runs each kind's forest over a
  // contiguous feature matrix (trees-outer batched traversal).
  void PredictUsBatch(const KernelDesc* const* kernels, size_t count,
                      double* out) const override;

  bool HasModelFor(KernelKind kind) const { return forests_.count(kind) > 0; }
  // Count of estimator invocations served by the roofline fallback (unseen
  // kinds). Counts what this estimator was actually asked to predict: the
  // pipeline dedups ops and memoizes estimates, so with caching this tracks
  // unique fallback keys, not per-op trace annotations. Atomic: predictions
  // run concurrently from search trials.
  mutable std::atomic<uint64_t> fallback_predictions{0};

 private:
  template <class V>
  friend void Fields(V& v, RandomForestKernelEstimator& estimator);  // serialization.cc

  RandomForestOptions options_;
  std::map<KernelKind, RandomForestRegressor> forests_;
};

// Wraps an arbitrary callback — used for the oracle estimator (profiled
// actual per-kernel runtimes, Table 3) and for user-plugged models
// (Habitat- or GPU-Mangrove-style predictors in the paper's framing).
class CallbackKernelEstimator final : public KernelRuntimeEstimator {
 public:
  CallbackKernelEstimator(std::string name, std::function<double(const KernelDesc&)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  std::string name() const override { return name_; }
  double PredictUs(const KernelDesc& kernel) const override { return fn_(kernel); }

 private:
  std::string name_;
  std::function<double(const KernelDesc&)> fn_;
};

// Per-kind mean absolute percentage error of `estimator` on `samples`
// (the paper's Tables 7–9 rows). Kinds absent from samples are omitted.
std::map<KernelKind, double> PerKindMape(const KernelRuntimeEstimator& estimator,
                                         const KernelDataset& samples);

// 80:20-style random split (train_fraction goes to train).
void SplitKernelDataset(const KernelDataset& all, double train_fraction, Rng& rng,
                        KernelDataset* train, KernelDataset* test);

}  // namespace maya

#endif  // SRC_ESTIMATOR_KERNEL_ESTIMATOR_H_

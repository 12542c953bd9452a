// Ground-truth cluster executor: "running the job on real hardware".
//
// Execute() takes a collated job trace, attaches the observed (noisy)
// per-instance kernel and collective durations from the ground-truth cost
// models, and replays the cluster timeline *with* the second-order effects
// Maya's simulator deliberately omits (SM-level compute/communication
// contention, §8). The resulting report is the "Actual" series in the
// paper's Figs. 7–10 and the target of all prediction-error measurements.
//
// The same models power Maya's transparent profiling mode: MakeKernelProfiler
// / MakeCollectiveProfiler return callbacks that "dispatch the op on
// hardware" and report an observed runtime (fresh measurement noise per
// call), which the estimator training pipeline consumes.
#ifndef SRC_GROUNDTRUTH_EXECUTOR_H_
#define SRC_GROUNDTRUTH_EXECUTOR_H_

#include <memory>

#include "src/estimator/profiler_repository.h"
#include "src/groundtruth/collective_cost.h"
#include "src/groundtruth/kernel_cost.h"
#include "src/sim/simulator.h"

namespace maya {

class GroundTruthExecutor {
 public:
  explicit GroundTruthExecutor(const ClusterSpec& cluster, uint64_t seed = 2026);

  // Measured end-to-end execution of the job on the reference cluster.
  Result<SimReport> Execute(const JobTrace& job) const;

  // Attaches this run's observed per-instance durations to every kernel and
  // collective op. Deterministic: the oracle estimator (Table 3) reuses these
  // exact values. INTERNAL when a collective names a communicator the trace
  // does not declare.
  Result<JobTrace> AnnotateActualDurations(JobTrace job) const;

  // Profiling-mode callbacks (each invocation is an independent measurement).
  KernelProfiler MakeKernelProfiler() const;
  CollectiveProfiler MakeCollectiveProfiler() const;

  const GroundTruthKernelModel& kernel_model() const { return kernel_model_; }
  const GroundTruthCollectiveModel& collective_model() const { return collective_model_; }
  double contention_factor() const { return contention_factor_; }

 private:
  ClusterSpec cluster_;
  uint64_t seed_;
  GroundTruthKernelModel kernel_model_;
  GroundTruthCollectiveModel collective_model_;
  double contention_factor_ = 1.1;
};

}  // namespace maya

#endif  // SRC_GROUNDTRUTH_EXECUTOR_H_

#include "src/groundtruth/executor.h"

#include "src/common/hash.h"

namespace maya {

GroundTruthExecutor::GroundTruthExecutor(const ClusterSpec& cluster, uint64_t seed)
    : cluster_(cluster),
      seed_(seed),
      kernel_model_(cluster.gpu, SplitMix64(seed ^ 0x6b31ULL)),
      collective_model_(cluster, SplitMix64(seed ^ 0xc011ULL)) {
  // SM contention between concurrent NCCL and compute kernels: a few
  // percent slowdown on overlapped compute (Maya leaves this unmodeled, §8;
  // it is the main component of the oracle gap in Table 3).
  switch (cluster_.gpu.arch) {
    case GpuArch::kV100:
      contention_factor_ = 1.025;
      break;
    case GpuArch::kH100:
      contention_factor_ = 1.05;
      break;
    case GpuArch::kA40:
      contention_factor_ = 1.035;
      break;
  }
}

Result<JobTrace> GroundTruthExecutor::AnnotateActualDurations(JobTrace job) const {
  for (WorkerTrace& worker : job.workers) {
    for (size_t i = 0; i < worker.ops.size(); ++i) {
      TraceOp& op = worker.ops[i];
      if (op.type == TraceOpType::kKernelLaunch) {
        const uint64_t key = HashCombine(static_cast<uint64_t>(worker.rank), i);
        op.duration_us = kernel_model_.NoisyUs(worker.kernel(op), key);
      } else if (op.type == TraceOpType::kCollective) {
        // One draw per collective instance: every participant must see the
        // same on-the-wire duration, so the key is (comm uid, seq).
        const CollectiveOpInfo& collective = worker.collective(op);
        const uint64_t key = HashCombine(collective.comm_uid, collective.seq);
        MAYA_ASSIGN_OR_RETURN(const CommGroup* group, job.comm(collective.comm_uid));
        CollectiveRequest request{collective.kind, collective.bytes, group->members};
        op.duration_us = collective_model_.NoisyUs(request, key);
      }
    }
  }
  return job;
}

Result<SimReport> GroundTruthExecutor::Execute(const JobTrace& job) const {
  MAYA_ASSIGN_OR_RETURN(const JobTrace annotated, AnnotateActualDurations(job));
  SimOptions options;
  options.compute_contention_factor = contention_factor_;
  Simulator simulator(annotated, cluster_, options);
  return simulator.Run();
}

KernelProfiler GroundTruthExecutor::MakeKernelProfiler() const {
  // Profiling mode measurements draw from an independent key space so the
  // training set's noise is independent of any particular workload run.
  auto counter = std::make_shared<uint64_t>(0);
  const GroundTruthKernelModel* model = &kernel_model_;
  return [model, counter](const KernelDesc& kernel) {
    return model->NoisyUs(kernel, HashCombine(0x9f0f11e5u, (*counter)++));
  };
}

CollectiveProfiler GroundTruthExecutor::MakeCollectiveProfiler() const {
  auto counter = std::make_shared<uint64_t>(0);
  const GroundTruthCollectiveModel* model = &collective_model_;
  return [model, counter](const CollectiveRequest& request) {
    return model->NoisyUs(request, HashCombine(0xc0111ec7u, (*counter)++));
  };
}

}  // namespace maya

// Ground-truth executor tests: cost-model monotonicity and calibration,
// deterministic noise, straggler/contention effects.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/stats.h"
#include "src/groundtruth/collective_cost.h"
#include "src/groundtruth/executor.h"
#include "src/groundtruth/kernel_cost.h"

namespace maya {
namespace {

TEST(KernelCostTest, GemmScalesWithWork) {
  GroundTruthKernelModel model(H100Spec());
  const double small = model.MeanUs(MakeGemm(512, 512, 512, DType::kBf16));
  const double large = model.MeanUs(MakeGemm(4096, 4096, 4096, DType::kBf16));
  EXPECT_GT(large, 10.0 * small);  // 512x flops; efficiency also rises
}

TEST(KernelCostTest, Fp32GemmSlowerThanBf16) {
  GroundTruthKernelModel model(H100Spec());
  EXPECT_GT(model.MeanUs(MakeGemm(4096, 4096, 4096, DType::kFp32)),
            4.0 * model.MeanUs(MakeGemm(4096, 4096, 4096, DType::kBf16)));
}

TEST(KernelCostTest, ShallowGemmLessEfficient) {
  GroundTruthKernelModel model(H100Spec());
  // Same flops, shallow K vs deep K: shallow pays prologue amortization.
  const double shallow = model.MeanUs(MakeGemm(8192, 8192, 64, DType::kBf16));
  const double deep = model.MeanUs(MakeGemm(2048, 2048, 1024, DType::kBf16));
  EXPECT_GT(shallow, deep);
}

TEST(KernelCostTest, LaunchFloorDominatesTinyKernels) {
  GroundTruthKernelModel model(V100Spec());
  const double tiny = model.MeanUs(MakeElementwise(16, DType::kBf16));
  EXPECT_GE(tiny, 3.0);  // V100 launch floor ~3.5us
  EXPECT_LE(tiny, 6.0);
}

TEST(KernelCostTest, MemcpyHonorsPcieVsHbm) {
  GroundTruthKernelModel model(H100Spec());
  const int64_t bytes = 1LL << 30;
  const double h2d = model.MeanUs(MakeMemcpy(KernelKind::kMemcpyH2D, bytes));
  const double d2d = model.MeanUs(MakeMemcpy(KernelKind::kMemcpyD2D, bytes));
  EXPECT_GT(h2d, 3.0 * d2d);  // PCIe much slower than HBM
}

TEST(KernelCostTest, H100FasterThanV100OnBigGemm) {
  GroundTruthKernelModel h100(H100Spec());
  GroundTruthKernelModel v100(V100Spec());
  const KernelDesc gemm = MakeGemm(8192, 8192, 8192, DType::kBf16);
  EXPECT_LT(h100.MeanUs(gemm), v100.MeanUs(gemm) / 3.0);
}

TEST(KernelCostTest, AllKindsProducePositiveFiniteCosts) {
  GroundTruthKernelModel model(A40Spec());
  const KernelDesc descs[] = {
      MakeGemm(256, 256, 256, DType::kFp16),
      MakeLayerNorm(KernelKind::kLayerNormBackward, 4096, 1024, DType::kBf16),
      MakeSoftmax(KernelKind::kSoftmaxBackward, 8192, 2048, DType::kBf16),
      MakeDropout(1 << 20, DType::kBf16),
      MakeConv(KernelKind::kConvBackwardFilter, 16, 64, 56, 56, 128, 3, 3, 1, DType::kFp32),
      MakeTritonFused(1 << 20, 8, DType::kBf16),
      MakeEmbedding(KernelKind::kEmbeddingBackward, 4096, 1024, 50000, DType::kBf16),
      MakeOptimizerApply(1 << 22, 4, DType::kFp32),
      MakePooling(16, 64, 112, 112, 2, DType::kFp32),
      MakeCrossEntropy(KernelKind::kCrossEntropyBackward, 4096, 50000, DType::kFp32),
      MakeBatchNorm(KernelKind::kBatchNormBackward, 32, 128, 3136, DType::kFp32),
      MakeMemset(1 << 24),
  };
  for (const KernelDesc& desc : descs) {
    const double us = model.MeanUs(desc);
    EXPECT_GT(us, 0.0) << desc.ToString();
    EXPECT_TRUE(std::isfinite(us)) << desc.ToString();
  }
}

TEST(KernelCostTest, NoiseIsDeterministicPerInstance) {
  GroundTruthKernelModel model(H100Spec(), /*seed=*/42);
  const KernelDesc gemm = MakeGemm(1024, 1024, 1024, DType::kBf16);
  EXPECT_DOUBLE_EQ(model.NoisyUs(gemm, 7), model.NoisyUs(gemm, 7));
  EXPECT_NE(model.NoisyUs(gemm, 7), model.NoisyUs(gemm, 8));
  GroundTruthKernelModel other_seed(H100Spec(), /*seed=*/43);
  EXPECT_NE(model.NoisyUs(gemm, 7), other_seed.NoisyUs(gemm, 7));
}

TEST(KernelCostTest, NoiseSigmaShrinksWithDuration) {
  GroundTruthKernelModel model(H100Spec());
  EXPECT_GT(model.NoiseSigma(2.0), model.NoiseSigma(1000.0));
  EXPECT_NEAR(model.NoiseSigma(1e6), 0.03, 0.005);  // long-kernel floor
}

TEST(KernelCostTest, NoiseIsUnbiasedOnAverage) {
  GroundTruthKernelModel model(H100Spec());
  const KernelDesc gemm = MakeGemm(2048, 2048, 2048, DType::kBf16);
  const double mean = model.MeanUs(gemm);
  RunningStats stats;
  for (uint64_t i = 0; i < 4000; ++i) {
    stats.Add(model.NoisyUs(gemm, i));
  }
  EXPECT_NEAR(stats.mean() / mean, 1.0, 0.02);
}

// ---- Collective ground truth -------------------------------------------------------

std::vector<int> Range(int n) {
  std::vector<int> ranks(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ranks[static_cast<size_t>(i)] = i;
  }
  return ranks;
}

TEST(CollectiveCostTest, AddsSetupOverheadOverRingModel) {
  const ClusterSpec cluster = H100Cluster(8);
  GroundTruthCollectiveModel truth(cluster);
  RingCollectiveModel ring;
  const CollectiveRequest request{CollectiveKind::kAllReduce, 256ULL << 20, Range(8)};
  EXPECT_GT(truth.MeanUs(request), ring.CollectiveUs(request, cluster));
}

TEST(CollectiveCostTest, SmallPayloadPenaltyShrinks) {
  const ClusterSpec cluster = H100Cluster(8);
  GroundTruthCollectiveModel truth(cluster);
  RingCollectiveModel ring;
  auto inflation = [&](uint64_t bytes) {
    const CollectiveRequest request{CollectiveKind::kAllReduce, bytes, Range(8)};
    return truth.MeanUs(request) / ring.CollectiveUs(request, cluster);
  };
  EXPECT_GT(inflation(1 << 20), inflation(1ULL << 30));
}

TEST(CollectiveCostTest, ZeroAndSingletonFree) {
  const ClusterSpec cluster = H100Cluster(8);
  GroundTruthCollectiveModel truth(cluster);
  EXPECT_EQ(truth.MeanUs({CollectiveKind::kAllReduce, 0, Range(8)}), 0.0);
  EXPECT_EQ(truth.NoisyUs({CollectiveKind::kAllReduce, 1024, {0}}, 1), 0.0);
}

TEST(CollectiveCostTest, NoiseDeterministicPerInstance) {
  const ClusterSpec cluster = H100Cluster(8);
  GroundTruthCollectiveModel truth(cluster, 5);
  const CollectiveRequest request{CollectiveKind::kAllReduce, 64ULL << 20, Range(8)};
  EXPECT_DOUBLE_EQ(truth.NoisyUs(request, 3), truth.NoisyUs(request, 3));
  EXPECT_NE(truth.NoisyUs(request, 3), truth.NoisyUs(request, 4));
}

// ---- Executor -------------------------------------------------------------------------

JobTrace TinyJob() {
  // One worker, two annotatable ops.
  WorkerTrace worker;
  worker.rank = 0;
  worker.AddKernel(1, 0.0, MakeGemm(1024, 1024, 1024, DType::kBf16));
  JobTrace job;
  job.world_size = 1;
  job.workers.push_back(worker);
  job.folded_ranks.push_back({0});
  return job;
}

TEST(ExecutorTest, AnnotatesKernelDurations) {
  GroundTruthExecutor executor(H100Cluster(8), 11);
  const Result<JobTrace> annotated = executor.AnnotateActualDurations(TinyJob());
  ASSERT_TRUE(annotated.ok()) << annotated.status().ToString();
  EXPECT_GT(annotated->workers[0].ops[0].duration_us, 0.0);
}

TEST(ExecutorTest, AnnotationIsIdempotentlyDeterministic) {
  GroundTruthExecutor executor(H100Cluster(8), 11);
  const Result<JobTrace> a = executor.AnnotateActualDurations(TinyJob());
  const Result<JobTrace> b = executor.AnnotateActualDurations(TinyJob());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->workers[0].ops[0].duration_us, b->workers[0].ops[0].duration_us);
}

TEST(ExecutorTest, ExecuteProducesConsistentReport) {
  GroundTruthExecutor executor(H100Cluster(8), 11);
  Result<SimReport> report = executor.Execute(TinyJob());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->total_time_us, 0.0);
}

TEST(ExecutorTest, ContentionFactorVariesByArch) {
  EXPECT_GT(GroundTruthExecutor(H100Cluster(8)).contention_factor(),
            GroundTruthExecutor(V100Cluster(8)).contention_factor());
}

TEST(ExecutorTest, ProfilerCallbacksGiveFreshMeasurements) {
  GroundTruthExecutor executor(H100Cluster(8), 11);
  KernelProfiler profiler = executor.MakeKernelProfiler();
  const KernelDesc gemm = MakeGemm(1024, 1024, 1024, DType::kBf16);
  const double first = profiler(gemm);
  const double second = profiler(gemm);
  EXPECT_NE(first, second);  // independent measurement noise
  EXPECT_NEAR(first / second, 1.0, 0.5);
}

TEST(ExecutorTest, CollectiveProfilerMatchesModelScale) {
  const ClusterSpec cluster = H100Cluster(16);
  GroundTruthExecutor executor(cluster, 11);
  CollectiveProfiler profiler = executor.MakeCollectiveProfiler();
  const CollectiveRequest request{CollectiveKind::kAllReduce, 1ULL << 28, Range(8)};
  const double measured = profiler(request);
  const double mean = executor.collective_model().MeanUs(request);
  EXPECT_NEAR(measured / mean, 1.0, 0.5);
}

}  // namespace
}  // namespace maya

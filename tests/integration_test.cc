// Cross-module integration & property tests: invariants that only hold when
// emulator, collator, estimators and simulator agree end to end.
#include <gtest/gtest.h>

#include "src/core/estimator_bank.h"
#include "src/core/pipeline.h"
#include "src/estimator/collective_estimator.h"
#include "src/models/model_zoo.h"
#include "src/search/config_space.h"
#include "src/search/search_driver.h"
#include "src/trace/serialization.h"

namespace maya {
namespace {

ModelConfig TinyGpt() {
  ModelConfig model;
  model.name = "tiny-gpt";
  model.family = ModelFamily::kGpt;
  model.num_layers = 8;
  model.hidden_size = 1024;
  model.num_heads = 16;
  model.seq_length = 512;
  model.vocab_size = 8192;
  return model;
}

TrainConfig BaseConfig() {
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = 2;
  config.pipeline_parallel = 2;
  config.microbatch_multiplier = 2;
  return config;
}

// Engine-produced traces survive a JSON round trip bit-exactly (structural
// fingerprints and op counts preserved), so traces can be shipped between
// pipeline stages as files.
TEST(IntegrationTest, EngineTracesRoundTripThroughJson) {
  Result<LaunchResult> launched = EmulateJob(TinyGpt(), BaseConfig(), H100Cluster(8));
  ASSERT_TRUE(launched.ok());
  ASSERT_FALSE(launched->oom);
  for (const WorkerTrace& trace : launched->traces) {
    Result<WorkerTrace> parsed = ParseWorkerTrace(SerializeWorkerTrace(trace));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed->ops.size(), trace.ops.size());
    EXPECT_EQ(parsed->Fingerprint(), trace.Fingerprint());
    EXPECT_EQ(parsed->comm_inits.size(), trace.comm_inits.size());
    EXPECT_EQ(parsed->peak_device_bytes, trace.peak_device_bytes);
  }
}

// Folding must not change the simulated timeline when durations are
// deterministic per shape: simulate with and without dedup on ground-truth
// *mean* durations and compare makespans exactly.
TEST(IntegrationTest, FoldedSimulationMatchesUnfolded) {
  const ClusterSpec cluster = H100Cluster(8);
  GroundTruthExecutor executor(cluster, 7);
  auto simulate = [&](bool dedup) {
    Result<LaunchResult> launched = EmulateJob(TinyGpt(), BaseConfig(), cluster);
    CHECK(launched.ok());
    TraceCollator collator(CollationOptions{dedup});
    Result<JobTrace> job = collator.Collate(std::move(launched->traces));
    CHECK(job.ok()) << job.status().ToString();
    // Mean durations: identical shapes get identical times on every rank.
    for (WorkerTrace& worker : job->workers) {
      for (TraceOp& op : worker.ops) {
        if (op.type == TraceOpType::kKernelLaunch) {
          op.duration_us = executor.kernel_model().MeanUs(worker.kernel(op));
        } else if (op.type == TraceOpType::kCollective) {
          const CollectiveOpInfo& collective = worker.collective(op);
          const CommGroup& group = **job->comm(collective.comm_uid);
          op.duration_us = executor.collective_model().MeanUs(
              {collective.kind, collective.bytes, group.members});
        }
      }
    }
    Result<SimReport> report = Simulator(*job, cluster).Run();
    CHECK(report.ok()) << report.status().ToString();
    return report->total_time_us;
  };
  EXPECT_DOUBLE_EQ(simulate(true), simulate(false));
}

// Emulated OOM feasibility is monotone in device memory: if a config fits a
// smaller device it must fit a larger one.
TEST(IntegrationTest, OomMonotoneInDeviceMemory) {
  TrainConfig config = BaseConfig();
  config.activation_recomputation = false;
  bool previous_fit = false;
  for (uint64_t gib : {8, 16, 24, 32, 48, 64, 80}) {
    ClusterSpec cluster = H100Cluster(8);
    cluster.gpu.hbm_bytes = gib << 30;
    Result<LaunchResult> launched = EmulateJob(TinyGpt(), config, cluster);
    ASSERT_TRUE(launched.ok());
    const bool fits = !launched->oom;
    EXPECT_TRUE(fits || !previous_fit) << gib << " GiB broke monotonicity";
    previous_fit = fits;
  }
  EXPECT_TRUE(previous_fit);  // fits at 80 GiB
}

// Iteration time decreases (weakly) when the same job gets more hardware
// via data parallelism, and peak memory per GPU does not grow.
TEST(IntegrationTest, DataParallelScalingImprovesIterationTime) {
  const ModelConfig model = TinyGpt();
  GroundTruthExecutor executor8(H100Cluster(8), 5);
  GroundTruthExecutor executor16(H100Cluster(16), 5);
  auto actual = [&](int gpus, GroundTruthExecutor& executor) {
    TrainConfig config;
    config.global_batch_size = 64;
    config.tensor_parallel = 2;
    config.microbatch_multiplier = 2;
    Result<LaunchResult> launched = EmulateJob(model, config, H100Cluster(gpus));
    CHECK(launched.ok());
    CHECK(!launched->oom);
    TraceCollator collator;
    Result<JobTrace> job = collator.Collate(std::move(launched->traces));
    CHECK(job.ok());
    Result<SimReport> report = executor.Execute(*job);
    CHECK(report.ok());
    return report->total_time_us;
  };
  EXPECT_LT(actual(16, executor16), actual(8, executor8));
}

// Recomputation trades time for memory in the same direction on ground
// truth and in Maya's prediction.
TEST(IntegrationTest, RecomputationTradeoffConsistentAcrossPredictorAndTruth) {
  const ClusterSpec cluster = H100Cluster(8);
  GroundTruthExecutor executor(cluster, 9);
  ProfileSweepOptions sweep;
  sweep.gemm_samples = 1500;
  sweep.conv_samples = 100;
  sweep.generic_samples = 60;
  const EstimatorBank bank = TrainEstimators(cluster, executor, sweep);
  MayaPipeline pipeline(cluster, bank.kernel.get(), bank.collective.get());

  auto measure = [&](bool recompute) {
    TrainConfig config = BaseConfig();
    config.activation_recomputation = recompute;
    PredictionRequest request{TinyGpt(), config};
    Result<PredictionReport> report = pipeline.Predict(request);
    CHECK(report.ok());
    CHECK(!report->oom);
    return std::pair<double, uint64_t>(report->iteration_time_us,
                                       report->sim.peak_memory_bytes);
  };
  const auto [time_without, memory_without] = measure(false);
  const auto [time_with, memory_with] = measure(true);
  EXPECT_GT(time_with, time_without);      // recomputation costs compute
  EXPECT_LT(memory_with, memory_without);  // and saves memory
}

// The profiled collective estimator and the analytical network model agree
// within a small factor across the profiled range (they model the same
// fabric); divergence would indicate a broken training sweep.
TEST(IntegrationTest, CollectiveEstimatorsAgreeWithinFactor) {
  const ClusterSpec cluster = H100Cluster(16);
  GroundTruthExecutor executor(cluster, 3);
  ProfileSweepOptions sweep;
  sweep.collective_sizes = 16;
  std::vector<CollectiveSample> samples =
      GenerateCollectiveDataset(cluster, executor.MakeCollectiveProfiler(), sweep);
  ProfiledCollectiveEstimator profiled;
  profiled.Fit(samples, cluster);
  RingCollectiveModel ring;
  std::vector<int> group = {0, 1, 2, 3, 4, 5, 6, 7};
  for (uint64_t bytes = 1 << 21; bytes <= (1ULL << 33); bytes *= 8) {
    const CollectiveRequest request{CollectiveKind::kAllReduce, bytes, group};
    const double learned = profiled.PredictUs(request, cluster);
    const double analytic = ring.CollectiveUs(request, cluster);
    EXPECT_GT(learned, 0.5 * analytic) << bytes;
    EXPECT_LT(learned, 4.0 * analytic) << bytes;
  }
}

// Search over a small space returns a config that really is the best of the
// space when every point is evaluated exactly (grid + no pruning): a full
// system-level regression of driver + pipeline + engines.
TEST(IntegrationTest, GridSearchFindsTrueArgmaxOfItsOwnPredictions) {
  const ClusterSpec cluster = H100Cluster(8);
  GroundTruthExecutor executor(cluster, 21);
  ProfileSweepOptions sweep;
  sweep.gemm_samples = 1200;
  sweep.conv_samples = 100;
  sweep.generic_samples = 50;
  const EstimatorBank bank = TrainEstimators(cluster, executor, sweep);
  MayaPipeline pipeline(cluster, bank.kernel.get(), bank.collective.get());
  const ConfigSpace space({1, 2}, {1, 2}, {1, 2}, {1}, {true}, {false}, {false}, 32);

  SearchOptions options;
  options.algorithm = "grid";
  options.sample_budget = static_cast<int>(space.size());
  options.enable_pruning = false;
  options.early_stop_patience = 0;
  const SearchOutcome outcome = *RunSearch(pipeline, TinyGpt(), space, options);
  ASSERT_TRUE(outcome.found);

  double best_mfu = 0.0;
  for (const TrainConfig& config : space.EnumerateAll()) {
    if (!config.Validate(TinyGpt(), cluster).ok()) {
      continue;
    }
    PredictionRequest request{TinyGpt(), config};
    Result<PredictionReport> report = pipeline.Predict(request);
    ASSERT_TRUE(report.ok());
    if (!report->oom) {
      best_mfu = std::max(best_mfu, report->mfu);
    }
  }
  EXPECT_NEAR(outcome.best_mfu, best_mfu, 1e-12);
}

}  // namespace
}  // namespace maya

// Property test over seeded (framework, tp, pp, dp, microbatch) draws on small
// models: the three launch modes — full emulation with collation-time dedup,
// selective launch (comm-init stubs) and virtual folds (RankSet spans) — must
// give hex-identical predictions and identical estimation counts, and the
// pooled emulation of a job must record ==-identical worker traces to the
// sequential one (op headers and every payload side table).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/core/estimator_bank.h"
#include "src/core/pipeline.h"

namespace maya {
namespace {

constexpr int kCases = 24;
constexpr uint64_t kSeed = 0x5eed1a;

ModelConfig SmallGpt() {
  ModelConfig model;
  model.name = "small-gpt";
  model.family = ModelFamily::kGpt;
  model.num_layers = 8;
  model.hidden_size = 512;
  model.num_heads = 8;
  model.seq_length = 256;
  model.vocab_size = 4096;
  return model;
}

struct Case {
  TrainConfig config;
  int world = 0;
  std::string label;
};

// Draws valid cases from a fixed seed; invalid draws (divisibility, knob
// compatibility) are skipped, so the case list is the same on every run.
std::vector<Case> DrawCases() {
  std::mt19937_64 rng(kSeed);
  const auto pick = [&rng](const std::vector<int>& values) {
    return values[static_cast<size_t>(rng() % values.size())];
  };
  const std::vector<ParallelFramework> frameworks = {
      ParallelFramework::kMegatron, ParallelFramework::kMegatron, ParallelFramework::kFsdp,
      ParallelFramework::kDeepSpeed, ParallelFramework::kDdp};
  std::vector<Case> cases;
  while (cases.size() < kCases) {
    Case c;
    TrainConfig& config = c.config;
    config.framework = frameworks[static_cast<size_t>(rng() % frameworks.size())];
    if (config.framework == ParallelFramework::kMegatron) {
      config.tensor_parallel = pick({1, 2, 4});
      config.pipeline_parallel = pick({1, 2, 4});
    }
    if (config.framework == ParallelFramework::kDeepSpeed) {
      config.zero_stage = pick({1, 2, 3});
    }
    const int dp = pick({1, 2, 4});
    config.microbatch_multiplier = pick({1, 2});
    config.global_batch_size = static_cast<int64_t>(dp) * pick({4, 8});
    c.world = config.tensor_parallel * config.pipeline_parallel * dp;
    if (!config.Validate(SmallGpt(), H100Cluster(c.world)).ok()) {
      continue;
    }
    c.label = StrFormat("%s z%d tp%d pp%d dp%d mbm%d gbs%lld",
                        ParallelFrameworkName(config.framework), config.zero_stage,
                        config.tensor_parallel, config.pipeline_parallel, dp,
                        config.microbatch_multiplier,
                        static_cast<long long>(config.global_batch_size));
    cases.push_back(std::move(c));
  }
  return cases;
}

class LaunchModePropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ClusterSpec cluster = H100Cluster(16);
    GroundTruthExecutor executor(cluster, 7);
    ProfileSweepOptions sweep;  // trimmed for test speed
    sweep.gemm_samples = 2000;
    sweep.conv_samples = 100;
    sweep.generic_samples = 100;
    sweep.collective_sizes = 12;
    bank_ = new EstimatorBank(TrainEstimators(cluster, executor, sweep));
  }
  static void TearDownTestSuite() { delete bank_; }

  static EstimatorBank* bank_;
};

EstimatorBank* LaunchModePropertyTest::bank_ = nullptr;

void ExpectSameEstimation(const EstimationStats& a, const EstimationStats& b,
                          const std::string& label) {
  EXPECT_EQ(a.kernel_ops, b.kernel_ops) << label;
  EXPECT_EQ(a.unique_kernels, b.unique_kernels) << label;
  EXPECT_EQ(a.collective_ops, b.collective_ops) << label;
  EXPECT_EQ(a.unique_collectives, b.unique_collectives) << label;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << label;
}

TEST_F(LaunchModePropertyTest, LaunchModesGiveIdenticalPredictions) {
  int predicted = 0;
  for (const Case& c : DrawCases()) {
    const ClusterSpec cluster = H100Cluster(c.world);
    // One fresh pipeline per mode: the caches then evolve identically when
    // the modes agree, so the cache counts are compared too.
    MayaPipeline full(cluster, bank_->kernel.get(), bank_->collective.get());
    MayaPipeline selective(cluster, bank_->kernel.get(), bank_->collective.get());
    MayaPipeline virtual_folds(cluster, bank_->kernel.get(), bank_->collective.get());
    PredictionRequest request{SmallGpt(), c.config};
    PredictionRequest selective_request = request;
    selective_request.selective_launch = true;
    PredictionRequest virtual_request = request;
    virtual_request.virtual_folds = true;
    const Result<PredictionReport> a = full.Predict(request);
    const Result<PredictionReport> b = selective.Predict(selective_request);
    const Result<PredictionReport> v = virtual_folds.Predict(virtual_request);
    ASSERT_TRUE(a.ok()) << c.label << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << c.label << ": " << b.status().ToString();
    ASSERT_TRUE(v.ok()) << c.label << ": " << v.status().ToString();
    ASSERT_EQ(a->oom, b->oom) << c.label;
    ASSERT_EQ(a->oom, v->oom) << c.label;
    if (a->oom) {
      continue;
    }
    ++predicted;
    for (const auto& [mode, report] : {std::pair{"selective", &*b}, std::pair{"virtual", &*v}}) {
      const std::string label = c.label + " " + mode;
      EXPECT_EQ(DoubleBits(report->iteration_time_us), DoubleBits(a->iteration_time_us))
          << label;
      EXPECT_EQ(DoubleBits(report->mfu), DoubleBits(a->mfu)) << label;
      ExpectSameEstimation(report->estimation, a->estimation, label);
    }
  }
  // The draw is meant to exercise predictions, not OOM early-outs.
  EXPECT_GE(predicted, kCases * 3 / 4);
}

TEST(LaunchModeEmulationTest, PooledEmulationRecordsIdenticalTraces) {
  ThreadPool pool(4);
  for (const Case& c : DrawCases()) {
    const ClusterSpec cluster = H100Cluster(c.world);
    LaunchOptions pooled;
    pooled.emulation_pool = &pool;
    pooled.min_parallel_ranks = 1;
    const Result<LaunchResult> a = EmulateJob(SmallGpt(), c.config, cluster);
    const Result<LaunchResult> b = EmulateJob(SmallGpt(), c.config, cluster, pooled);
    ASSERT_TRUE(a.ok()) << c.label << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << c.label << ": " << b.status().ToString();
    ASSERT_EQ(a->oom, b->oom) << c.label;
    ASSERT_EQ(a->traces.size(), b->traces.size()) << c.label;
    for (size_t i = 0; i < a->traces.size(); ++i) {
      EXPECT_TRUE(a->traces[i] == b->traces[i]) << c.label << " trace " << i;
    }
  }
}

}  // namespace
}  // namespace maya

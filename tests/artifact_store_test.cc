// Estimator serialization + ArtifactStore bundle tests: bit-identical
// round-trips of forests, estimators, datasets and estimate caches, plus
// version/cluster guard rails on load.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "src/common/fault_injection.h"
#include "src/core/estimator_bank.h"
#include "src/estimator/profiler_repository.h"
#include "src/estimator/serialization.h"
#include "src/groundtruth/executor.h"
#include "src/service/artifact_store.h"
#include "src/service/service_engine.h"

namespace maya {
namespace {

std::string TempBundleDir(const char* name) {
  const std::string dir = (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);  // stale bundles from earlier runs
  return dir;
}

TEST(DoubleBitsTest, RoundTripsExactBitPatterns) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           3.14159265358979,
                           1e-308,   // subnormal territory
                           1.7976931348623157e308,
                           0.1};     // classic non-terminating binary fraction
  for (double value : values) {
    Result<double> round = DoubleFromBits(DoubleBits(value));
    ASSERT_TRUE(round.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(*round), std::bit_cast<uint64_t>(value));
  }
}

TEST(DoubleBitsTest, RejectsMalformedPatterns) {
  EXPECT_FALSE(DoubleFromBits("").ok());
  EXPECT_FALSE(DoubleFromBits("12345").ok());
  EXPECT_FALSE(DoubleFromBits("zzzzzzzzzzzzzzzz").ok());
}

TEST(KernelDescExactTest, RoundTripPreservesIdentity) {
  const KernelDesc kernel = MakeGemm(4096, 1024, 333, DType::kBf16, 7);
  Result<JsonValue> value = ParseJson(WriteJsonFields(kernel));
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  Result<KernelDesc> parsed = ReadJsonFields<KernelDesc>(*value);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Full equality, including the derived flop/byte doubles: the desc is an
  // estimate-cache key, so any lost bit would demote hits to misses.
  EXPECT_TRUE(*parsed == kernel);
  EXPECT_EQ(parsed->Hash(), kernel.Hash());
}

TEST(ForestSerializationTest, RoundTripPredictsBitIdentically) {
  Dataset data;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.NextDouble() * 10.0;
    const double b = rng.NextDouble() * 4.0;
    data.Add({a, b, a * b}, std::sin(a) + b * b);
  }
  RandomForestOptions options;
  options.num_trees = 8;
  RandomForestRegressor forest(options);
  forest.Fit(data);

  Result<JsonValue> value = ParseJson(WriteJsonFields(forest));
  ASSERT_TRUE(value.ok());
  Result<RandomForestRegressor> restored = ReadJsonFields<RandomForestRegressor>(*value);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(restored->trained());
  for (int i = 0; i < 50; ++i) {
    const double a = rng.NextDouble() * 12.0 - 1.0;  // includes out-of-range
    const double b = rng.NextDouble() * 5.0;
    const std::vector<double> features = {a, b, a * b};
    EXPECT_EQ(forest.Predict(features), restored->Predict(features));
  }
}

TEST(ForestSerializationTest, RejectsCorruptTrees) {
  EXPECT_FALSE(ReadJsonFields<RandomForestRegressor>(JsonValue()).ok());
  Result<JsonValue> missing_trees = ParseJson(
      R"({"options":{"num_trees":1,"max_depth":1,"min_samples_leaf":1,)"
      R"("feature_fraction":"3fe8000000000000","sample_fraction":"3feb333333333333",)"
      R"("seed":17},"trees":[]})");
  ASSERT_TRUE(missing_trees.ok());
  EXPECT_FALSE(ReadJsonFields<RandomForestRegressor>(*missing_trees).ok());
  // A branch node pointing outside the node array must be rejected.
  Result<JsonValue> bad_child = ParseJson(
      R"({"options":{"num_trees":1,"max_depth":1,"min_samples_leaf":1,)"
      R"("feature_fraction":"3fe8000000000000","sample_fraction":"3feb333333333333",)"
      R"("seed":17},"trees":[{"feature":[0],"threshold":["3ff0000000000000"],)"
      R"("left":[5],"right":[1],"value":["3ff0000000000000"]}]})");
  ASSERT_TRUE(bad_child.ok());
  EXPECT_FALSE(ReadJsonFields<RandomForestRegressor>(*bad_child).ok());
}

TEST(DatasetSerializationTest, RoundTripsExactly) {
  Dataset data;
  data.Add({1.0, 0.25, 1e-9}, 42.0);
  data.Add({2.0, 0.1, 3.0}, -7.5);
  Result<JsonValue> value = ParseJson(WriteJsonFields(data));
  ASSERT_TRUE(value.ok());
  Result<Dataset> restored = ReadJsonFields<Dataset>(*value);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->size(), data.size());
  EXPECT_EQ(restored->x, data.x);
  EXPECT_EQ(restored->y, data.y);
}

// Shared trained bank for the estimator/bundle tests (training dominates the
// test runtime, so do it once).
class ArtifactStoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = new ClusterSpec(H100Cluster(8));
    executor_ = new GroundTruthExecutor(*cluster_, 42);
    ProfileSweepOptions sweep;
    sweep.gemm_samples = 1200;
    sweep.conv_samples = 100;
    sweep.generic_samples = 60;
    sweep.collective_sizes = 12;
    bank_ = new EstimatorBank(TrainEstimators(*cluster_, *executor_, sweep));
  }
  static void TearDownTestSuite() {
    delete bank_;
    delete executor_;
    delete cluster_;
  }

  static std::vector<KernelDesc> ProbeKernels() {
    std::vector<KernelDesc> kernels;
    for (int64_t m : {64, 512, 2048}) {
      kernels.push_back(MakeGemm(m, 1024, 512, DType::kBf16));
      kernels.push_back(MakeLayerNorm(KernelKind::kLayerNormForward, m * 8, 1024, DType::kBf16));
      kernels.push_back(MakeElementwise(m * 4096, DType::kBf16, 2));
    }
    return kernels;
  }

  static ClusterSpec* cluster_;
  static GroundTruthExecutor* executor_;
  static EstimatorBank* bank_;
};

ClusterSpec* ArtifactStoreTest::cluster_ = nullptr;
GroundTruthExecutor* ArtifactStoreTest::executor_ = nullptr;
EstimatorBank* ArtifactStoreTest::bank_ = nullptr;

TEST_F(ArtifactStoreTest, KernelEstimatorRoundTripBitIdentical) {
  Result<JsonValue> value = ParseJson(WriteJsonFields(*bank_->kernel));
  ASSERT_TRUE(value.ok());
  auto restored = std::make_unique<RandomForestKernelEstimator>();
  const Status read = ReadJsonFields(*value, *restored);
  ASSERT_TRUE(read.ok()) << read.ToString();
  for (const KernelDesc& kernel : ProbeKernels()) {
    EXPECT_EQ(bank_->kernel->PredictUs(kernel), restored->PredictUs(kernel))
        << kernel.ToString();
  }
  // The validation split round-trips through the bundle too.
  Result<JsonValue> dataset_value = ParseJson(WriteJsonFields(bank_->kernel_validation));
  ASSERT_TRUE(dataset_value.ok());
  Result<KernelDataset> dataset = ReadJsonFields<KernelDataset>(*dataset_value);
  ASSERT_TRUE(dataset.ok());
  ASSERT_EQ(dataset->size(), bank_->kernel_validation.size());
  for (size_t i = 0; i < dataset->size(); ++i) {
    EXPECT_TRUE((*dataset)[i].kernel == bank_->kernel_validation[i].kernel);
    EXPECT_EQ((*dataset)[i].runtime_us, bank_->kernel_validation[i].runtime_us);
  }
}

TEST_F(ArtifactStoreTest, CollectiveEstimatorRoundTripBitIdentical) {
  Result<JsonValue> value = ParseJson(WriteJsonFields(*bank_->collective));
  ASSERT_TRUE(value.ok());
  auto restored = std::make_unique<ProfiledCollectiveEstimator>();
  const Status read = ReadJsonFields(*value, *restored);
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(restored->group_count(), bank_->collective->group_count());
  for (uint64_t bytes : {1u << 12, 1u << 20, 1u << 26}) {
    for (int nranks : {2, 4, 8}) {
      CollectiveRequest request;
      request.kind = CollectiveKind::kAllReduce;
      request.bytes = bytes;
      for (int rank = 0; rank < nranks; ++rank) {
        request.ranks.push_back(rank);
      }
      EXPECT_EQ(bank_->collective->PredictUs(request, *cluster_),
                restored->PredictUs(request, *cluster_));
    }
  }
}

TEST_F(ArtifactStoreTest, BundleSaveLoadWarmsCaches) {
  const std::string dir = TempBundleDir("bundle_warm");
  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  // Populate the caches with a few estimates.
  for (const KernelDesc& kernel : ProbeKernels()) {
    JobTrace job;
    job.world_size = 1;
    WorkerTrace worker;
    worker.rank = 0;
    worker.AddKernel(0, 0.0, kernel);
    job.workers.push_back(worker);
    pipeline.AnnotateDurations(job, nullptr);
  }
  const uint64_t resident = pipeline.KernelCacheStats().entries;
  ASSERT_GT(resident, 0u);

  ArtifactStore store(dir);
  EXPECT_FALSE(store.Exists());
  ASSERT_TRUE(store.Save(*cluster_, *bank_, pipeline).ok());
  EXPECT_TRUE(store.Exists());

  Result<ArtifactManifest> manifest = store.ReadManifest();
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->version, kArtifactBundleVersion);
  EXPECT_EQ(manifest->kernel_cache_entries, resident);

  Result<EstimatorBank> loaded = store.LoadEstimators(*cluster_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  MayaPipeline warm(*cluster_, loaded->kernel.get(), loaded->collective.get());
  Result<uint64_t> imported = store.WarmPipeline(warm);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_GE(*imported, resident);
  EXPECT_EQ(warm.KernelCacheStats().entries, resident);

  // Every cached estimate answers identically to the original pipeline's.
  for (const auto& [kernel, duration_us] : pipeline.SnapshotKernelEstimates()) {
    bool found = false;
    for (const auto& [warm_kernel, warm_duration] : warm.SnapshotKernelEstimates()) {
      if (warm_kernel == kernel) {
        EXPECT_EQ(warm_duration, duration_us);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "cache entry missing after warm start";
  }
}

TEST_F(ArtifactStoreTest, SimCachePersistsAndReplaysBitIdentical) {
  // A warm-started server replays repeated components from the persisted
  // stage-4 cache with the saving process's exact timelines.
  const std::string dir = TempBundleDir("bundle_sim_cache");
  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  ModelConfig model;
  model.name = "tiny-gpt";
  model.family = ModelFamily::kGpt;
  model.num_layers = 8;
  model.hidden_size = 1024;
  model.num_heads = 16;
  model.seq_length = 512;
  model.vocab_size = 8192;
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = 2;
  config.pipeline_parallel = 2;
  config.microbatch_multiplier = 2;
  PredictionRequest request{model, config};
  const Result<PredictionReport> cold = pipeline.Predict(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const uint64_t resident = pipeline.SimCacheStats().entries;
  ASSERT_GT(resident, 0u);

  ArtifactStore store(dir);
  ASSERT_TRUE(store.Save(*cluster_, *bank_, pipeline).ok());
  Result<ArtifactManifest> manifest = store.ReadManifest();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->deployments.front().sim_cache_entries, resident);

  Result<EstimatorBank> loaded = store.LoadEstimators(*cluster_);
  ASSERT_TRUE(loaded.ok());
  MayaPipeline warm(*cluster_, loaded->kernel.get(), loaded->collective.get());
  Result<uint64_t> imported = store.WarmPipeline(warm);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(warm.SimCacheStats().entries, resident);

  const Result<PredictionReport> replayed = warm.Predict(request);
  ASSERT_TRUE(replayed.ok());
  EXPECT_GT(replayed->simulation.cache_hits, 0u);
  EXPECT_EQ(replayed->simulation.simulated_components, 0u);
  EXPECT_EQ(replayed->iteration_time_us, cold->iteration_time_us);
  EXPECT_EQ(replayed->mfu, cold->mfu);
}

TEST_F(ArtifactStoreTest, LoadRejectsClusterMismatch) {
  const std::string dir = TempBundleDir("bundle_cluster_mismatch");
  ArtifactStore store(dir);
  ASSERT_TRUE(store.SaveEstimators(*cluster_, *bank_).ok());
  const Result<EstimatorBank> wrong = store.LoadEstimators(H100Cluster(16));
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ArtifactStoreTest, LoadRejectsVersionMismatch) {
  const std::string dir = TempBundleDir("bundle_version_mismatch");
  ArtifactStore store(dir);
  ASSERT_TRUE(store.SaveEstimators(*cluster_, *bank_).ok());
  // Corrupt the version in place.
  const std::string manifest_path =
      (std::filesystem::path(dir) / "manifest.json").string();
  std::ifstream in(manifest_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string contents = buffer.str();
  const std::string needle = "\"version\":1";
  const size_t pos = contents.find(needle);
  ASSERT_NE(pos, std::string::npos);
  contents.replace(pos, needle.size(), "\"version\":999");
  std::ofstream out(manifest_path, std::ios::trunc);
  out << contents;
  out.close();
  const Result<EstimatorBank> wrong = store.LoadEstimators(*cluster_);
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ArtifactStoreTest, MissingBundleReportsNotFound) {
  ArtifactStore store(TempBundleDir("bundle_absent"));
  EXPECT_FALSE(store.Exists());
  EXPECT_FALSE(store.ReadManifest().ok());
  EXPECT_FALSE(store.LoadEstimators(*cluster_).ok());
}

// ---- v2 multi-deployment bundles -------------------------------------------

TEST_F(ArtifactStoreTest, V1BundleLoadsAsSingleDefaultDeployment) {
  const std::string dir = TempBundleDir("bundle_v1_compat");
  ArtifactStore store(dir);
  ASSERT_TRUE(store.SaveEstimators(*cluster_, *bank_).ok());

  Result<ArtifactManifest> manifest = store.ReadManifest();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->version, kArtifactBundleVersion);
  ASSERT_EQ(manifest->deployments.size(), 1u);
  EXPECT_EQ(manifest->deployments[0].name, kDefaultDeploymentName);

  Result<std::vector<LoadedDeployment>> loaded = store.LoadDeployments();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].name, kDefaultDeploymentName);
  EXPECT_EQ(ArtifactStore::ClusterSignature((*loaded)[0].cluster),
            ArtifactStore::ClusterSignature(*cluster_));
  for (const KernelDesc& kernel : ProbeKernels()) {
    EXPECT_EQ(bank_->kernel->PredictUs(kernel), (*loaded)[0].bank.kernel->PredictUs(kernel));
  }
}

TEST_F(ArtifactStoreTest, V2RegistryRoundTripsBothBanksBitExact) {
  const std::string dir = TempBundleDir("bundle_v2_fleet");

  // A two-arch fleet: the shared H100 fixture bank re-trained (owned) plus a
  // V100 bank, each with a warmed pipeline so per-deployment caches persist.
  ProfileSweepOptions small_sweep;
  small_sweep.gemm_samples = 800;
  small_sweep.conv_samples = 60;
  small_sweep.generic_samples = 40;
  small_sweep.collective_sizes = 8;
  const ClusterSpec v100 = V100Cluster(8);
  GroundTruthExecutor h100_hardware(*cluster_, 42);
  GroundTruthExecutor v100_hardware(v100, 43);

  DeploymentRegistry registry;
  Result<std::shared_ptr<const Deployment>> h100_deployment = registry.Register(
      "h100x8", *cluster_, TrainEstimators(*cluster_, h100_hardware, small_sweep));
  ASSERT_TRUE(h100_deployment.ok());
  Result<std::shared_ptr<const Deployment>> v100_deployment =
      registry.Register("v100x8", v100, TrainEstimators(v100, v100_hardware, small_sweep));
  ASSERT_TRUE(v100_deployment.ok());
  // Warm both pipelines' estimate caches with a probe trace each.
  for (const std::shared_ptr<const Deployment>& deployment :
       {*h100_deployment, *v100_deployment}) {
    JobTrace job;
    job.world_size = 1;
    WorkerTrace worker;
    worker.rank = 0;
    for (const KernelDesc& kernel : ProbeKernels()) {
      worker.AddKernel(0, 0.0, kernel);
    }
    job.workers.push_back(worker);
    deployment->pipeline->AnnotateDurations(job, nullptr);
  }

  ArtifactStore store(dir);
  ASSERT_TRUE(store.SaveRegistry(registry).ok());

  Result<ArtifactManifest> manifest = store.ReadManifest();
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->version, kArtifactBundleVersionMulti);
  ASSERT_EQ(manifest->deployments.size(), 2u);
  EXPECT_EQ(manifest->deployments[0].name, "h100x8");
  EXPECT_EQ(manifest->deployments[1].name, "v100x8");
  EXPECT_GT(manifest->deployments[0].kernel_cache_entries, 0u);

  Result<std::vector<LoadedDeployment>> loaded = store.LoadDeployments();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  const std::shared_ptr<const Deployment> sources[] = {*h100_deployment, *v100_deployment};
  for (size_t i = 0; i < loaded->size(); ++i) {
    const LoadedDeployment& restored = (*loaded)[i];
    const Deployment& source = *sources[i];
    EXPECT_EQ(restored.name, source.name);
    EXPECT_EQ(ArtifactStore::ClusterSignature(restored.cluster),
              ArtifactStore::ClusterSignature(source.cluster));
    // Hex-double identity: every probe prediction is bit-exact per bank.
    for (const KernelDesc& kernel : ProbeKernels()) {
      EXPECT_EQ(source.kernel_estimator->PredictUs(kernel),
                restored.bank.kernel->PredictUs(kernel))
          << restored.name << " " << kernel.ToString();
    }
    // Per-deployment caches warm a fresh pipeline with every saved entry.
    MayaPipeline warm(restored.cluster, restored.bank.kernel.get(),
                      restored.bank.collective.get());
    Result<uint64_t> imported = store.WarmPipeline(restored.name, warm);
    ASSERT_TRUE(imported.ok()) << imported.status().ToString();
    EXPECT_EQ(warm.KernelCacheStats().entries, source.pipeline->KernelCacheStats().entries);
    for (const auto& [kernel, duration_us] : source.pipeline->SnapshotKernelEstimates()) {
      bool found = false;
      for (const auto& [warm_kernel, warm_duration] : warm.SnapshotKernelEstimates()) {
        if (warm_kernel == kernel) {
          EXPECT_EQ(warm_duration, duration_us);
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "cache entry missing after v2 warm start";
    }
  }
  // The two banks answer differently (different arch + hardware): loading
  // must not have cross-wired the deployments.
  EXPECT_NE((*loaded)[0].bank.kernel->PredictUs(ProbeKernels()[0]),
            (*loaded)[1].bank.kernel->PredictUs(ProbeKernels()[0]));

  // A v1-style load against the v2 bundle picks the matching cluster...
  Result<EstimatorBank> by_cluster = store.LoadEstimators(v100);
  ASSERT_TRUE(by_cluster.ok()) << by_cluster.status().ToString();
  EXPECT_EQ(by_cluster->kernel->PredictUs(ProbeKernels()[0]),
            (*loaded)[1].bank.kernel->PredictUs(ProbeKernels()[0]));
  // ...and refuses clusters the fleet was not trained for.
  EXPECT_FALSE(store.LoadEstimators(A40Node()).ok());
  // Warm-pipeline lookups by unknown deployment name fail cleanly.
  MayaPipeline fresh(*cluster_, bank_->kernel.get(), bank_->collective.get());
  EXPECT_EQ(store.WarmPipeline("nope", fresh).status().code(), StatusCode::kNotFound);
}

// ---- Corruption and crash-mid-save robustness -------------------------------

namespace corruption {

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

}  // namespace corruption

// Every bundle file kind, truncated or bit-flipped on disk, must fail the
// full warm-start path with a clean Status — never an abort — after which a
// cold start still serves (the maya_serve fallback contract).
TEST_F(ArtifactStoreTest, CorruptionMatrixRejectsEveryFileKindCleanly) {
  const std::string dir = TempBundleDir("bundle_corruption_matrix");
  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  ModelConfig model;
  model.name = "tiny-gpt";
  model.family = ModelFamily::kGpt;
  model.num_layers = 8;
  model.hidden_size = 1024;
  model.num_heads = 16;
  model.seq_length = 512;
  model.vocab_size = 8192;
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = 2;
  config.pipeline_parallel = 2;
  config.microbatch_multiplier = 2;
  PredictionRequest request{model, config};
  ASSERT_TRUE(pipeline.Predict(request).ok());  // populate all three caches
  ASSERT_GT(pipeline.KernelCacheStats().entries, 0u);
  ASSERT_GT(pipeline.CollectiveCacheStats().entries, 0u);
  ASSERT_GT(pipeline.SimCacheStats().entries, 0u);

  ArtifactStore store(dir);
  ASSERT_TRUE(store.Save(*cluster_, *bank_, pipeline).ok());

  const char* kFileKinds[] = {"manifest.json",         "kernel_estimator.json",
                              "collective_estimator.json", "kernel_validation.json",
                              "kernel_cache.json",     "collective_cache.json",
                              "sim_cache.json"};
  for (const char* file : kFileKinds) {
    const std::string path = (std::filesystem::path(dir) / file).string();
    const std::string pristine = corruption::ReadBytes(path);
    ASSERT_GT(pristine.size(), 64u) << file;

    // Torn write: only the first half of the file made it to disk.
    corruption::WriteBytes(path, pristine.substr(0, pristine.size() / 2));
    Result<std::unique_ptr<ServiceEngine>> truncated =
        ServiceEngine::FromArtifacts(*cluster_, store, ServiceEngineOptions{});
    EXPECT_FALSE(truncated.ok()) << file << " truncated";

    // Bit rot: a 16-byte span in the middle goes high-bit garbage.
    std::string flipped = pristine;
    const size_t middle = flipped.size() / 2;
    for (size_t i = middle; i < std::min(middle + 16, flipped.size()); ++i) {
      flipped[i] ^= 0x80;
    }
    corruption::WriteBytes(path, flipped);
    Result<std::unique_ptr<ServiceEngine>> rotted =
        ServiceEngine::FromArtifacts(*cluster_, store, ServiceEngineOptions{});
    EXPECT_FALSE(rotted.ok()) << file << " bit-flipped";

    corruption::WriteBytes(path, pristine);
  }

  // The restored pristine bundle still warm-starts...
  Result<std::unique_ptr<ServiceEngine>> healthy =
      ServiceEngine::FromArtifacts(*cluster_, store, ServiceEngineOptions{});
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  (*healthy)->Shutdown();
  // ...and a rejected bundle falls back to a cold start that serves.
  Result<std::unique_ptr<ServiceEngine>> cold = ServiceEngine::Create(
      *cluster_, bank_->kernel.get(), bank_->collective.get(), ServiceEngineOptions{});
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ServiceRequest predict;
  predict.id = 1;
  PredictPayload payload;
  payload.model = model;
  payload.config = config;
  predict.payload = std::move(payload);
  const ServiceResponse response = (*cold)->Submit(std::move(predict)).get();
  EXPECT_TRUE(response.ok) << response.error;
  (*cold)->Shutdown();
}

// Injected save-path faults (the same sites `maya_serve --fault_spec` arms):
// a short write or torn rename fails the save and never publishes a loadable
// bundle; silent corruption publishes but is caught at load time.
TEST_F(ArtifactStoreTest, SaveFaultsNeverPublishLoadableTornBundles) {
  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  FaultInjection& faults = FaultInjection::Instance();

  {
    const std::string dir = TempBundleDir("bundle_fault_short_write");
    ArtifactStore store(dir);
    ASSERT_TRUE(faults.Configure("artifact.write_short=1@1", 3).ok());
    EXPECT_FALSE(store.Save(*cluster_, *bank_, pipeline).ok());
    faults.Disarm();
    // The manifest is written last, so a failed save is never loadable.
    EXPECT_FALSE(store.Exists());
    EXPECT_FALSE(ServiceEngine::FromArtifacts(*cluster_, store, ServiceEngineOptions{}).ok());
  }
  {
    const std::string dir = TempBundleDir("bundle_fault_rename_torn");
    ArtifactStore store(dir);
    ASSERT_TRUE(faults.Configure("artifact.rename_torn=1@1", 3).ok());
    EXPECT_FALSE(store.Save(*cluster_, *bank_, pipeline).ok());
    faults.Disarm();
    EXPECT_FALSE(store.Exists());
  }
  {
    // Silent corruption: every write's payload takes a mid-file bit flip.
    // The save itself reports success — only the load-side parse detects it.
    const std::string dir = TempBundleDir("bundle_fault_corrupt");
    ArtifactStore store(dir);
    ASSERT_TRUE(faults.Configure("artifact.corrupt=1", 3).ok());
    EXPECT_TRUE(store.Save(*cluster_, *bank_, pipeline).ok());
    faults.Disarm();
    EXPECT_TRUE(store.Exists());
    EXPECT_FALSE(ServiceEngine::FromArtifacts(*cluster_, store, ServiceEngineOptions{}).ok());
  }
  {
    // Read-side faults surface as clean load failures too.
    const std::string dir = TempBundleDir("bundle_fault_read");
    ArtifactStore store(dir);
    ASSERT_TRUE(store.Save(*cluster_, *bank_, pipeline).ok());
    ASSERT_TRUE(faults.Configure("artifact.read=1@1", 3).ok());
    EXPECT_FALSE(ServiceEngine::FromArtifacts(*cluster_, store, ServiceEngineOptions{}).ok());
    faults.Disarm();
    // With the fault gone the same bundle loads.
    Result<std::unique_ptr<ServiceEngine>> recovered =
        ServiceEngine::FromArtifacts(*cluster_, store, ServiceEngineOptions{});
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    (*recovered)->Shutdown();
  }
}

// ---- Stage-total persistence ------------------------------------------------

TEST_F(ArtifactStoreTest, StageTotalsRoundTripAcrossRestart) {
  const std::string dir = TempBundleDir("bundle_stage_totals");

  ProfileSweepOptions small_sweep;
  small_sweep.gemm_samples = 800;
  small_sweep.conv_samples = 60;
  small_sweep.generic_samples = 40;
  small_sweep.collective_sizes = 8;
  GroundTruthExecutor profiling(*cluster_, 42);

  // Process 1: serve a few predicts, persist the bundle with usage totals.
  Result<std::unique_ptr<ServiceEngine>> created = ServiceEngine::Create(
      *cluster_, TrainEstimators(*cluster_, profiling, small_sweep), ServiceEngineOptions{});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ServiceEngine& original = **created;
  ModelConfig model;
  model.name = "tiny-gpt";
  model.family = ModelFamily::kGpt;
  model.num_layers = 8;
  model.hidden_size = 1024;
  model.num_heads = 16;
  model.seq_length = 512;
  model.vocab_size = 8192;
  for (int tp : {1, 2}) {
    ServiceRequest request;
    request.id = static_cast<uint64_t>(tp);
    PredictPayload payload;
    payload.model = model;
    payload.config.global_batch_size = 32;
    payload.config.tensor_parallel = tp;
    payload.config.pipeline_parallel = 2;
    payload.config.microbatch_multiplier = 2;
    request.payload = std::move(payload);
    const ServiceResponse response = original.Submit(std::move(request)).get();
    ASSERT_TRUE(response.ok) << response.error;
  }
  const ServiceStats before = original.stats();
  ASSERT_EQ(before.timed_requests, 2u);
  ASSERT_GT(before.stage_totals.total_ms(), 0.0);

  std::map<std::string, DeploymentUsage> usage;
  for (const DeploymentStats& entry : before.per_deployment) {
    DeploymentUsage& used = usage[entry.name];
    used.stage_totals = entry.stage_totals;
    used.timed_requests = entry.timed_requests;
  }
  ArtifactStore store(dir);
  ASSERT_TRUE(store.SaveRegistry(original.registry(), usage).ok());
  original.Shutdown();

  // Process 2 (simulated): the restart resumes the cumulative counters
  // bit-identically instead of zeroing operator history.
  Result<std::unique_ptr<ServiceEngine>> restarted =
      ServiceEngine::FromArtifacts(*cluster_, store, ServiceEngineOptions{});
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  const ServiceStats after = (*restarted)->stats();
  EXPECT_EQ(after.timed_requests, before.timed_requests);
  EXPECT_EQ(after.stage_totals.emulation_ms, before.stage_totals.emulation_ms);
  EXPECT_EQ(after.stage_totals.collation_ms, before.stage_totals.collation_ms);
  EXPECT_EQ(after.stage_totals.estimation_ms, before.stage_totals.estimation_ms);
  EXPECT_EQ(after.stage_totals.simulation_ms, before.stage_totals.simulation_ms);
  ASSERT_FALSE(after.per_deployment.empty());
  EXPECT_EQ(after.per_deployment[0].timed_requests, before.per_deployment[0].timed_requests);
  EXPECT_EQ(after.per_deployment[0].stage_totals.total_ms(),
            before.per_deployment[0].stage_totals.total_ms());

  // New work keeps accumulating on top of the restored base.
  ServiceRequest request;
  request.id = 9;
  PredictPayload payload;
  payload.model = model;
  payload.config.global_batch_size = 32;
  payload.config.tensor_parallel = 2;
  payload.config.pipeline_parallel = 2;
  payload.config.microbatch_multiplier = 2;
  request.payload = std::move(payload);
  ASSERT_TRUE((*restarted)->Submit(std::move(request)).get().ok);
  const ServiceStats grown = (*restarted)->stats();
  EXPECT_EQ(grown.timed_requests, before.timed_requests + 1);
  EXPECT_GT(grown.stage_totals.total_ms(), before.stage_totals.total_ms());
  (*restarted)->Shutdown();
}

}  // namespace
}  // namespace maya

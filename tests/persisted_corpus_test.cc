// Golden on-disk corpus: the exact bytes of every persisted artifact — the
// bundle files (estimators, validation split, the three cache files, v1 and
// v2 manifests), fleet journal lines, the CHECKPOINT pointer, and serialized
// worker and job traces. Each fixture must write its golden bytes, and each
// golden must load and write back to itself, so a codec change that moves a
// byte fails here.
//
// The wrong-type sweep replaces every scalar leaf of the corpus, one at a
// time, with a value of another JSON type, with 4294967297 and with -1.
// Every loader must answer with a value or a typed error naming the key; it
// must never abort.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json_parser.h"
#include "src/common/json_writer.h"
#include "src/common/strings.h"
#include "src/core/deployment_registry.h"
#include "src/core/estimator_bank.h"
#include "src/core/pipeline.h"
#include "src/service/artifact_store.h"
#include "src/service/fleet_journal.h"
#include "src/trace/serialization.h"

namespace maya {
namespace {

// ---- Golden bytes -------------------------------------------------------------

// ArtifactStore::Save of TinyBank() with SeedCaches().
const char* const kGoldenManifestV1 =
    R"json({"version":1,"cluster":{"arch":"H100","gpu_name":"NVIDIA H100 (DGX, SXM)",)json"
    R"json("peak_fp32_flops":6.7e+13,"peak_tensor_flops":9.89e+14,"hbm_bytes":85899345920,)json"
    R"json("hbm_bandwidth":3.35e+12,"sm_count":132,"sm_clock_ghz":1.98,)json"
    R"json("kernel_dispatch_latency_us":2,"gpus_per_node":8,"num_nodes":1,)json"
    R"json("intra_fabric":"NVSwitch","intra_bandwidth":9e+11,"intra_latency_us":4,)json"
    R"json("inter_fabric":"none","inter_bandwidth":0,"inter_latency_us":0,)json"
    R"json("cost_per_gpu_hour":3.8},"kernel_cache_entries":1,"collective_cache_entries":1,)json"
    R"json("sim_cache_entries":1})json"
    "\n";

// ArtifactStore::SaveRegistry of the same bank as deployment "alpha" with Usage().
const char* const kGoldenManifestV2 =
    R"json({"version":2,"deployments":[{"name":"alpha","dir":"deployment_0",)json"
    R"json("cluster":{"arch":"H100","gpu_name":"NVIDIA H100 (DGX, SXM)",)json"
    R"json("peak_fp32_flops":6.7e+13,"peak_tensor_flops":9.89e+14,"hbm_bytes":85899345920,)json"
    R"json("hbm_bandwidth":3.35e+12,"sm_count":132,"sm_clock_ghz":1.98,)json"
    R"json("kernel_dispatch_latency_us":2,"gpus_per_node":8,"num_nodes":1,)json"
    R"json("intra_fabric":"NVSwitch","intra_bandwidth":9e+11,"intra_latency_us":4,)json"
    R"json("inter_fabric":"none","inter_bandwidth":0,"inter_latency_us":0,)json"
    R"json("cost_per_gpu_hour":3.8},"kernel_cache_entries":1,"collective_cache_entries":1,)json"
    R"json("sim_cache_entries":1,"timed_requests":3,)json"
    R"json("stage_totals":{"emulation_ms":"3ff8000000000000","collation_ms":"4002000000000000",)json"
    R"json("estimation_ms":"3fc0000000000000","simulation_ms":"4008000000000000"}}]})json"
    "\n";

// The six data files of either bundle, in kDataFiles order.
const char* const kGoldenDataFiles[] = {
    R"json({"options":{"num_trees":1,"max_depth":1,"min_samples_leaf":1,)json"
    R"json("feature_fraction":"3fe8000000000000","sample_fraction":"3ff0000000000000",)json"
    R"json("seed":2},"forests":[{"kind":"Gemm","forest":{"options":{"num_trees":1,)json"
    R"json("max_depth":1,"min_samples_leaf":1,"feature_fraction":"3fe8000000000000",)json"
    R"json("sample_fraction":"3ff0000000000000","seed":2092789425003139053},)json"
    R"json("trees":[{"feature":[15,-1,-1],"threshold":["402205d0fa303356","0000000000000000",)json"
    R"json("0000000000000000"],"left":[1,-1,-1],"right":[2,-1,-1],"value":["400dfb6f58eb1dd9",)json"
    R"json("3fe62e42fefa39ef","401b35a6f90bd69b"]}]}}]})json"
    "\n",
    R"json({"tables":[{"kind":"ncclAllReduce","nranks":8,"num_nodes":1,)json"
    R"json("curve":[["402bb9d3beb8c86b","40126bb1bbb55516"],["402e7f9c1e980fa9",)json"
    R"json("4016d0ac5a6095d8"]]}]})json"
    "\n",
    R"json([{"kernel":{"kind":"LayerNormForward","dtype":"fp16","params":[1024,512,0,0,0,0,0,)json"
    R"json(0],"flops":"4150000000000000","bytes_read":"4130000000000000",)json"
    R"json("bytes_written":"4130000000000000","fused_ops":0},"runtime_us":"401d000000000000"}])json"
    "\n",
    R"json([{"kernel":{"kind":"Gemm","dtype":"bf16","params":[128,256,512,1,0,0,0,0],)json"
    R"json("flops":"4180000000000000","bytes_read":"4118000000000000",)json"
    R"json("bytes_written":"40f0000000000000","fused_ops":0},"duration_us":"4029000000000000"}])json"
    "\n",
    R"json([{"request":{"kind":"ncclAllGather","bytes":65536,"ranks":[0,1,2,3]},)json"
    R"json("duration_us":"4040e00000000000"}])json"
    "\n",
    R"json([{"key":"0123456789abcdef","workers":[{"finish_us":"4059200000000000",)json"
    R"json("host_busy_us":"4034400000000000","compute_busy_us":"4051880000000000",)json"
    R"json("comm_busy_us":"4024200000000000","exposed_comm_us":"400c000000000000",)json"
    R"json("events":42}]}])json"
    "\n",
};

// FleetJournal::AppendAdd(AddAlpha()) then AppendRemove("alpha").
const char* const kGoldenJournal =
    R"json({"seq":1,"op":"add","name":"alpha","cluster":"h100x8","sweep":"tiny",)json"
    R"json("bundle_dir":"bundles/alpha"}
{"seq":2,"op":"remove","name":"alpha"})json"
    "\n";

// The CHECKPOINT pointer FleetJournal::Checkpoint publishes after those two records.
const char* const kGoldenCheckpoint =
    R"json({"dir":"checkpoint_1","last_seq":2,"index":1})json";

// SerializeWorkerTrace(GoldenWorker()).
const char* const kGoldenWorkerTrace =
    R"json({"rank":0,"comm_init_only":false,"duplicate_of":-1,"represented":[[0,2,2],[5,1,1]],)json"
    R"json("peak_device_bytes":1048576,"final_device_bytes":4096,"comm_inits":[{"uid":9,)json"
    R"json("nranks":2,"rank_in_comm":0}],"events":[{"type":"kernel_launch","stream":0,)json"
    R"json("host_delay_us":3.25,"duration_us":12.5,"kernel":{"kind":"Gemm",)json"
    R"json("op":"cublasSgemm_v2","dtype":"bf16","params":[128,256,512,1,0,0,0,0],)json"
    R"json("flops":33554432,"bytes_read":393216,"bytes_written":65536}},)json"
    R"json({"type":"kernel_launch","stream":0,"host_delay_us":1.75,"duration_us":-1.5,)json"
    R"json("kernel":{"kind":"TritonFused","op":"triton","dtype":"bf16","params":[65536,3,0,0,0,)json"
    R"json(0,0,0],"flops":196608,"bytes_read":262144,"bytes_written":131072,"fused_ops":3}},)json"
    R"json({"type":"collective","stream":1,"host_delay_us":0.5,)json"
    R"json("collective":{"kind":"ncclAllReduce","bytes":4096,"comm_uid":9,"seq":0,"nranks":2,)json"
    R"json("rank_in_comm":0,"peer":-1}},{"type":"cudaEventRecord","stream":2,)json"
    R"json("host_delay_us":0.25,"event":{"id":7,"version":1}},{"type":"cudaStreamWaitEvent",)json"
    R"json("stream":2,"host_delay_us":0.25,"event":{"id":7,"version":1}},)json"
    R"json({"type":"cudaEventSynchronize","stream":2,"host_delay_us":0.25,"event":{"id":7,)json"
    R"json("version":1}},{"type":"cudaStreamSynchronize","stream":2,"host_delay_us":0.125},)json"
    R"json({"type":"cudaDeviceSynchronize","stream":0,"host_delay_us":0.0625},)json"
    R"json({"type":"cudaMalloc","stream":0,"host_delay_us":0.5,"memory":{"bytes":4096,)json"
    R"json("ptr":2748}},{"type":"cudaFree","stream":0,"host_delay_us":0.5,)json"
    R"json("memory":{"bytes":4096,"ptr":2748}}]})json";

// SerializeJobTrace(GoldenJob()).
const char* const kGoldenJobTrace =
    R"json({"world_size":4,"comms":[{"uid":3,"nranks":2,"members":[2,3]},{"uid":9,"nranks":2,)json"
    R"json("members":[0,1]}],"folded_spans":[[[0,2,2]],[[1,2,2]]],"workers":[{"rank":0,)json"
    R"json("comm_init_only":false,"duplicate_of":-1,"peak_device_bytes":0,)json"
    R"json("final_device_bytes":0,"comm_inits":[{"uid":9,"nranks":2,"rank_in_comm":0},{"uid":3,)json"
    R"json("nranks":2,"rank_in_comm":0}],"events":[{"type":"kernel_launch","stream":0,)json"
    R"json("host_delay_us":2.5,"duration_us":4.125,"kernel":{"kind":"Gemm",)json"
    R"json("op":"cublasSgemm_v2","dtype":"bf16","params":[64,64,64,1,0,0,0,0],"flops":524288,)json"
    R"json("bytes_read":16384,"bytes_written":8192}},{"type":"collective","stream":1,)json"
    R"json("host_delay_us":0.5,"collective":{"kind":"ncclAllReduce","bytes":4096,"comm_uid":9,)json"
    R"json("seq":0,"nranks":2,"rank_in_comm":0,"peer":-1}},{"type":"collective","stream":1,)json"
    R"json("host_delay_us":0.5,"collective":{"kind":"ncclAllReduce","bytes":4096,"comm_uid":3,)json"
    R"json("seq":0,"nranks":2,"rank_in_comm":0,"peer":-1}}]},{"rank":1,"comm_init_only":false,)json"
    R"json("duplicate_of":-1,"peak_device_bytes":0,"final_device_bytes":0,)json"
    R"json("comm_inits":[{"uid":9,"nranks":2,"rank_in_comm":1},{"uid":3,"nranks":2,)json"
    R"json("rank_in_comm":1}],"events":[{"type":"kernel_launch","stream":0,"host_delay_us":2.5,)json"
    R"json("duration_us":4.125,"kernel":{"kind":"Gemm","op":"cublasSgemm_v2","dtype":"bf16",)json"
    R"json("params":[64,64,64,1,0,0,0,0],"flops":524288,"bytes_read":16384,)json"
    R"json("bytes_written":8192}},{"type":"collective","stream":1,"host_delay_us":0.5,)json"
    R"json("collective":{"kind":"ncclAllReduce","bytes":4096,"comm_uid":9,"seq":0,"nranks":2,)json"
    R"json("rank_in_comm":1,"peer":-1}},{"type":"collective","stream":1,"host_delay_us":0.5,)json"
    R"json("collective":{"kind":"ncclAllReduce","bytes":4096,"comm_uid":3,"seq":0,"nranks":2,)json"
    R"json("rank_in_comm":1,"peer":-1}}]}]})json";

// kGoldenJobTrace with its fold sets in the legacy per-rank folded_ranks form.
const char* const kLegacyJobTrace =
    R"json({"world_size":4,"comms":[{"uid":3,"nranks":2,"members":[2,3]},{"uid":9,"nranks":2,)json"
    R"json("members":[0,1]}],"folded_ranks":[[0,2],[1,3]],"workers":[{"rank":0,)json"
    R"json("comm_init_only":false,"duplicate_of":-1,"peak_device_bytes":0,)json"
    R"json("final_device_bytes":0,"comm_inits":[{"uid":9,"nranks":2,"rank_in_comm":0},{"uid":3,)json"
    R"json("nranks":2,"rank_in_comm":0}],"events":[{"type":"kernel_launch","stream":0,)json"
    R"json("host_delay_us":2.5,"duration_us":4.125,"kernel":{"kind":"Gemm",)json"
    R"json("op":"cublasSgemm_v2","dtype":"bf16","params":[64,64,64,1,0,0,0,0],"flops":524288,)json"
    R"json("bytes_read":16384,"bytes_written":8192}},{"type":"collective","stream":1,)json"
    R"json("host_delay_us":0.5,"collective":{"kind":"ncclAllReduce","bytes":4096,"comm_uid":9,)json"
    R"json("seq":0,"nranks":2,"rank_in_comm":0,"peer":-1}},{"type":"collective","stream":1,)json"
    R"json("host_delay_us":0.5,"collective":{"kind":"ncclAllReduce","bytes":4096,"comm_uid":3,)json"
    R"json("seq":0,"nranks":2,"rank_in_comm":0,"peer":-1}}]},{"rank":1,"comm_init_only":false,)json"
    R"json("duplicate_of":-1,"peak_device_bytes":0,"final_device_bytes":0,)json"
    R"json("comm_inits":[{"uid":9,"nranks":2,"rank_in_comm":1},{"uid":3,"nranks":2,)json"
    R"json("rank_in_comm":1}],"events":[{"type":"kernel_launch","stream":0,"host_delay_us":2.5,)json"
    R"json("duration_us":4.125,"kernel":{"kind":"Gemm","op":"cublasSgemm_v2","dtype":"bf16",)json"
    R"json("params":[64,64,64,1,0,0,0,0],"flops":524288,"bytes_read":16384,)json"
    R"json("bytes_written":8192}},{"type":"collective","stream":1,"host_delay_us":0.5,)json"
    R"json("collective":{"kind":"ncclAllReduce","bytes":4096,"comm_uid":9,"seq":0,"nranks":2,)json"
    R"json("rank_in_comm":1,"peer":-1}},{"type":"collective","stream":1,"host_delay_us":0.5,)json"
    R"json("collective":{"kind":"ncclAllReduce","bytes":4096,"comm_uid":3,"seq":0,"nranks":2,)json"
    R"json("rank_in_comm":1,"peer":-1}}]}]})json";

// ---- Fixtures -------------------------------------------------------------------

const char* const kDataFiles[] = {"kernel_estimator.json", "collective_estimator.json",
                                  "kernel_validation.json", "kernel_cache.json",
                                  "collective_cache.json", "sim_cache.json"};

std::string TempDir(const std::string& name) {
  const std::string dir = (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream(path, std::ios::binary) << bytes;
}

ClusterSpec Cluster() { return H100Cluster(8); }

// A hand-sized bank: one kernel forest holding a single 3-node tree, one
// 2-point collective curve and a one-sample validation split.
EstimatorBank TinyBank() {
  RandomForestOptions options;
  options.num_trees = 1;
  options.max_depth = 1;
  options.min_samples_leaf = 1;
  options.sample_fraction = 1.0;
  options.seed = 2;
  EstimatorBank bank;
  bank.kernel = std::make_unique<RandomForestKernelEstimator>(options);
  bank.kernel->Fit({{MakeGemm(64, 64, 64, DType::kBf16), 2.0},
                    {MakeGemm(4096, 4096, 4096, DType::kBf16), 900.0}});
  bank.collective = std::make_unique<ProfiledCollectiveEstimator>();
  CollectiveRequest small{CollectiveKind::kAllReduce, 1 << 20, {0, 1, 2, 3, 4, 5, 6, 7}};
  CollectiveRequest large = small;
  large.bytes = 1 << 22;
  bank.collective->Fit({{small, 100.0}, {large, 300.0}}, Cluster());
  bank.kernel_validation = {
      {MakeLayerNorm(KernelKind::kLayerNormForward, 1024, 512, DType::kFp16), 7.25}};
  return bank;
}

// One entry in each of the three caches.
void SeedCaches(MayaPipeline& pipeline) {
  pipeline.ImportKernelEstimates({{MakeGemm(128, 256, 512, DType::kBf16), 12.5}});
  pipeline.ImportCollectiveEstimates(
      {{CollectiveRequest{CollectiveKind::kAllGather, 65536, {0, 1, 2, 3}}, 33.75}});
  auto result = std::make_shared<ComponentSimResult>();
  result->workers.push_back(WorkerSimMetrics{100.5, 20.25, 70.125, 10.0625, 3.5, 42});
  pipeline.ImportSimCache({{0x0123456789abcdefULL, std::move(result)}});
}

std::map<std::string, DeploymentUsage> Usage() {
  DeploymentUsage usage;
  usage.stage_totals = StageTimings{1.5, 2.25, 0.125, 3.0};
  usage.timed_requests = 3;
  return {{"alpha", usage}};
}

AddDeploymentPayload AddAlpha() {
  AddDeploymentPayload add;
  add.name = "alpha";
  add.cluster = "h100x8";
  add.sweep = "tiny";
  add.bundle_dir = "bundles/alpha";
  return add;
}

void AddCollectiveOp(WorkerTrace& worker, uint64_t comm_uid, int rank_in_comm) {
  worker.AddCollective(1, 0.5,
                       {CollectiveKind::kAllReduce, 4096, comm_uid, 0, 2, rank_in_comm, -1});
}

// Every op type, a negative duration (written: only exactly 0 is omitted),
// a fused Triton kernel and a two-span represented set.
WorkerTrace GoldenWorker() {
  WorkerTrace worker;
  worker.rank = 0;
  worker.represented_ranks = RankSet{0, 2, 5};
  worker.peak_device_bytes = 1 << 20;
  worker.final_device_bytes = 4096;
  worker.comm_inits = {{9, 2, 0}};
  worker.AddKernel(0, 3.25, MakeGemm(128, 256, 512, DType::kBf16)).duration_us = 12.5;
  worker.AddKernel(0, 1.75, MakeTritonFused(1 << 16, 3, DType::kBf16)).duration_us = -1.5;
  AddCollectiveOp(worker, 9, 0);
  for (TraceOpType type : {TraceOpType::kEventRecord, TraceOpType::kStreamWaitEvent,
                           TraceOpType::kEventSynchronize}) {
    worker.AddEvent(type, 2, 0.25, {7, 1});
  }
  worker.AddSync(TraceOpType::kStreamSynchronize, 2, 0.125);
  worker.AddSync(TraceOpType::kDeviceSynchronize, 0, 0.0625);
  for (TraceOpType type : {TraceOpType::kMalloc, TraceOpType::kFree}) {
    worker.AddMemory(type, 0, 0.5, {4096, 0xabc});
  }
  return worker;
}

// Two workers folding four ranks over two communicators, declared out of
// uid order (serialization sorts them).
JobTrace GoldenJob() {
  JobTrace job;
  job.world_size = 4;
  job.comms[9] = CommGroup{9, 2, {0, 1}};
  job.comms[3] = CommGroup{3, 2, {2, 3}};
  job.folded_ranks = {RankSet{0, 2}, RankSet{1, 3}};
  for (int rank = 0; rank < 2; ++rank) {
    WorkerTrace worker;
    worker.rank = rank;
    worker.comm_inits = {{9, 2, rank}, {3, 2, rank}};
    worker.AddKernel(0, 2.5, MakeGemm(64, 64, 64, DType::kBf16)).duration_us = 4.125;
    AddCollectiveOp(worker, 9, rank);
    AddCollectiveOp(worker, 3, rank);
    job.workers.push_back(worker);
  }
  return job;
}

struct WrittenCorpus {
  std::map<std::string, std::string> v1;  // file name -> bytes
  std::map<std::string, std::string> v2;  // "manifest.json", "deployment_0/<file>"
  std::string journal;
  std::string checkpoint;
};

void ReadBundle(const std::string& dir, std::map<std::string, std::string>& files,
                const std::string& subdir) {
  files["manifest.json"] = ReadBytes(dir + "/manifest.json");
  for (const char* file : kDataFiles) {
    const std::string name = subdir.empty() ? file : subdir + "/" + file;
    files[name] = ReadBytes(dir + "/" + name);
  }
}

// Writes every store, registry and journal artifact from the fixtures.
WrittenCorpus WriteFixtures(const std::string& root) {
  WrittenCorpus corpus;
  const EstimatorBank bank = TinyBank();
  MayaPipeline pipeline(Cluster(), bank.kernel.get(), bank.collective.get());
  SeedCaches(pipeline);
  EXPECT_TRUE(ArtifactStore(root + "/v1").Save(Cluster(), bank, pipeline).ok());
  ReadBundle(root + "/v1", corpus.v1, "");

  DeploymentRegistry registry;
  Result<std::shared_ptr<const Deployment>> alpha =
      registry.Register("alpha", Cluster(), TinyBank());
  EXPECT_TRUE(alpha.ok());
  SeedCaches(*(*alpha)->pipeline);
  EXPECT_TRUE(ArtifactStore(root + "/v2").SaveRegistry(registry, Usage()).ok());
  ReadBundle(root + "/v2", corpus.v2, "deployment_0");

  FleetJournal journal(root + "/state");
  EXPECT_TRUE(journal.Open().ok());
  EXPECT_TRUE(journal.AppendAdd(AddAlpha()).ok());
  EXPECT_TRUE(journal.AppendRemove("alpha").ok());
  corpus.journal = ReadBytes(root + "/state/journal.ndjson");
  EXPECT_TRUE(journal.Checkpoint(registry, Usage()).ok());
  corpus.checkpoint = ReadBytes(root + "/state/CHECKPOINT");
  return corpus;
}

// A directory holding the golden v1 bundle, or the golden v2 bundle.
std::string GoldenBundle(const std::string& name, bool v2) {
  const std::string dir = TempDir(name);
  const std::string subdir = v2 ? "deployment_0/" : "";
  WriteBytes(dir + "/manifest.json", v2 ? kGoldenManifestV2 : kGoldenManifestV1);
  for (size_t i = 0; i < std::size(kDataFiles); ++i) {
    WriteBytes(dir + "/" + subdir + kDataFiles[i], kGoldenDataFiles[i]);
  }
  return dir;
}

// Loads every deployment and warms a pipeline from each: the full read path.
Status LoadBundle(const std::string& dir) {
  const ArtifactStore store(dir);
  Result<std::vector<LoadedDeployment>> loaded = store.LoadDeployments();
  if (!loaded.ok()) {
    return loaded.status();
  }
  for (const LoadedDeployment& deployment : *loaded) {
    MayaPipeline pipeline(deployment.cluster, deployment.bank.kernel.get(),
                          deployment.bank.collective.get());
    Result<uint64_t> warmed = store.WarmPipeline(deployment.name, pipeline);
    if (!warmed.ok()) {
      return warmed.status();
    }
  }
  return Status::Ok();
}

// ---- Golden corpus ---------------------------------------------------------------

TEST(PersistedCorpusTest, GoldenCorpusIsByteExact) {
  const std::string root = TempDir("corpus_write");
  const WrittenCorpus written = WriteFixtures(root);
  EXPECT_EQ(written.v1.at("manifest.json"), kGoldenManifestV1);
  EXPECT_EQ(written.v2.at("manifest.json"), kGoldenManifestV2);
  for (size_t i = 0; i < std::size(kDataFiles); ++i) {
    EXPECT_EQ(written.v1.at(kDataFiles[i]), kGoldenDataFiles[i]) << kDataFiles[i];
    EXPECT_EQ(written.v2.at(std::string("deployment_0/") + kDataFiles[i]), kGoldenDataFiles[i])
        << kDataFiles[i];
  }
  EXPECT_EQ(written.journal, kGoldenJournal);
  EXPECT_EQ(written.checkpoint, kGoldenCheckpoint);
  EXPECT_EQ(SerializeWorkerTrace(GoldenWorker()), kGoldenWorkerTrace);
  EXPECT_EQ(SerializeJobTrace(GoldenJob()), kGoldenJobTrace);

  // v1: load the golden bundle, warm a pipeline from it, save it again.
  {
    const std::string in = GoldenBundle("corpus_v1_in", false);
    Result<EstimatorBank> bank = ArtifactStore(in).LoadEstimators(Cluster());
    ASSERT_TRUE(bank.ok()) << bank.status().ToString();
    MayaPipeline pipeline(Cluster(), bank->kernel.get(), bank->collective.get());
    ASSERT_TRUE(ArtifactStore(in).WarmPipeline(pipeline).ok());
    const std::string out = TempDir("corpus_v1_out");
    ASSERT_TRUE(ArtifactStore(out).Save(Cluster(), *bank, pipeline).ok());
    EXPECT_EQ(ReadBytes(out + "/manifest.json"), kGoldenManifestV1);
    for (size_t i = 0; i < std::size(kDataFiles); ++i) {
      EXPECT_EQ(ReadBytes(out + "/" + kDataFiles[i]), kGoldenDataFiles[i]) << kDataFiles[i];
    }
  }
  // v2: load every deployment with its usage counters, register, save.
  {
    const std::string in = GoldenBundle("corpus_v2_in", true);
    Result<std::vector<LoadedDeployment>> loaded = ArtifactStore(in).LoadDeployments();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    DeploymentRegistry registry;
    std::map<std::string, DeploymentUsage> usage;
    for (LoadedDeployment& deployment : *loaded) {
      usage[deployment.name] = {deployment.stage_totals, deployment.timed_requests};
      Result<std::shared_ptr<const Deployment>> registered =
          registry.Register(deployment.name, deployment.cluster, std::move(deployment.bank));
      ASSERT_TRUE(registered.ok());
      ASSERT_TRUE(ArtifactStore(in).WarmPipeline((*registered)->name,
                                                 *(*registered)->pipeline).ok());
    }
    const std::string out = TempDir("corpus_v2_out");
    ASSERT_TRUE(ArtifactStore(out).SaveRegistry(registry, usage).ok());
    EXPECT_EQ(ReadBytes(out + "/manifest.json"), kGoldenManifestV2);
    for (size_t i = 0; i < std::size(kDataFiles); ++i) {
      EXPECT_EQ(ReadBytes(out + "/deployment_0/" + kDataFiles[i]), kGoldenDataFiles[i])
          << kDataFiles[i];
    }
  }
  // Journal: recover the golden records, append them to a fresh journal.
  {
    const std::string state = TempDir("corpus_journal_in");
    WriteBytes(state + "/journal.ndjson", kGoldenJournal);
    FleetJournal recovered(state);
    ASSERT_TRUE(recovered.Open().ok());
    ASSERT_EQ(recovered.plan().replay.size(), 2u);
    FleetJournal rewritten(TempDir("corpus_journal_out"));
    ASSERT_TRUE(rewritten.Open().ok());
    for (const FleetJournalRecord& record : recovered.plan().replay) {
      if (record.op == FleetJournalRecord::Op::kAdd) {
        AddDeploymentPayload add;
        add.name = record.name;
        add.cluster = record.cluster;
        add.sweep = record.sweep;
        add.bundle_dir = record.bundle_dir;
        ASSERT_TRUE(rewritten.AppendAdd(add).ok());
      } else {
        ASSERT_TRUE(rewritten.AppendRemove(record.name).ok());
      }
    }
    EXPECT_EQ(ReadBytes(rewritten.state_dir() + "/journal.ndjson"), kGoldenJournal);
  }
  // CHECKPOINT: the golden pointer names the golden v2 bundle and seq 2.
  {
    const std::string state = TempDir("corpus_checkpoint_in");
    std::filesystem::copy(GoldenBundle("corpus_checkpoint_bundle", true),
                          state + "/checkpoint_1", std::filesystem::copy_options::recursive);
    WriteBytes(state + "/CHECKPOINT", kGoldenCheckpoint);
    FleetJournal recovered(state);
    ASSERT_TRUE(recovered.Open().ok());
    EXPECT_TRUE(recovered.plan().has_checkpoint);
    EXPECT_EQ(recovered.plan().checkpoint_dir, state + "/checkpoint_1");
    EXPECT_EQ(recovered.plan().checkpoint_seq, 2u);
  }
  // Traces, including the legacy per-rank folded_ranks form.
  {
    Result<WorkerTrace> worker = ParseWorkerTrace(kGoldenWorkerTrace);
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    EXPECT_EQ(SerializeWorkerTrace(*worker), kGoldenWorkerTrace);
    Result<JobTrace> job = ParseJobTrace(kGoldenJobTrace);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    EXPECT_EQ(SerializeJobTrace(*job), kGoldenJobTrace);
    Result<JobTrace> legacy = ParseJobTrace(kLegacyJobTrace);
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
    EXPECT_EQ(SerializeJobTrace(*legacy), kGoldenJobTrace);
  }
}

// ---- Wrong-type / out-of-range sweep ---------------------------------------------

// Renders a parsed DOM back to JSON text.
void Render(JsonWriter& out, const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out.Null();
      break;
    case JsonValue::Type::kBool:
      out.Bool(value.AsBool());
      break;
    case JsonValue::Type::kNumber:
      if (Result<int64_t> exact = ToInt(value); exact.ok()) {
        out.Int(*exact);
      } else if (Result<uint64_t> large = ToUint(value); large.ok()) {
        out.Uint(*large);
      } else {
        out.RawValue(StrFormat("%.17g", value.AsDouble()));
      }
      break;
    case JsonValue::Type::kString:
      out.String(value.AsString());
      break;
    case JsonValue::Type::kArray:
      out.BeginArray();
      for (const JsonValue& element : value.AsArray()) {
        Render(out, element);
      }
      out.EndArray();
      break;
    case JsonValue::Type::kObject:
      out.BeginObject();
      for (const auto& [key, field] : value.AsObject()) {
        out.Key(key);
        Render(out, field);
      }
      out.EndObject();
      break;
  }
}

// The scalar leaf a mutation replaced: its nearest enclosing object key and
// its original value.
struct Leaf {
  std::string key;
  JsonValue original;
};

// Copies `value` with its `target`-th scalar leaf (depth-first) replaced by
// `with`, counting leaves in `seen`.
JsonValue Mutate(const JsonValue& value, size_t target, const JsonValue& with, size_t& seen,
                 const std::string& parent_key, Leaf* leaf) {
  if (value.is_array()) {
    JsonArray copy;
    for (const JsonValue& element : value.AsArray()) {
      copy.push_back(Mutate(element, target, with, seen, parent_key, leaf));
    }
    return JsonValue(std::move(copy));
  }
  if (value.is_object()) {
    JsonObject copy;
    for (const auto& [field_key, field] : value.AsObject()) {
      copy.emplace(field_key, Mutate(field, target, with, seen, field_key, leaf));
    }
    return JsonValue(std::move(copy));
  }
  if (seen++ == target) {
    *leaf = {parent_key, value};
    return with;
  }
  return value;
}

struct SweepTarget {
  std::string name;
  std::string golden;  // one JSON document
  std::function<Status(const std::string&)> load;
};

// A loader over a bundle directory whose `file` is replaced by the mutated
// text, restored afterwards.
std::function<Status(const std::string&)> BundleFileLoader(const std::string& dir,
                                                           const std::string& file,
                                                           const std::string& golden) {
  return [dir, file, golden](const std::string& text) {
    WriteBytes(dir + "/" + file, text);
    const Status status = LoadBundle(dir);
    WriteBytes(dir + "/" + file, golden);
    return status;
  };
}

std::vector<SweepTarget> SweepTargets() {
  std::vector<SweepTarget> targets;
  const auto status_of = [](auto parse) {
    return [parse](const std::string& text) { return parse(text).status(); };
  };
  targets.push_back({"worker trace", kGoldenWorkerTrace,
                     status_of([](const std::string& t) { return ParseWorkerTrace(t); })});
  for (const char* job : {kGoldenJobTrace, kLegacyJobTrace}) {
    targets.push_back(
        {"job trace", job, status_of([](const std::string& t) { return ParseJobTrace(t); })});
  }
  const std::string v1 = GoldenBundle("sweep_v1", false);
  targets.push_back({"v1 manifest.json", kGoldenManifestV1,
                     BundleFileLoader(v1, "manifest.json", kGoldenManifestV1)});
  for (size_t i = 0; i < std::size(kDataFiles); ++i) {
    targets.push_back({kDataFiles[i], kGoldenDataFiles[i],
                       BundleFileLoader(v1, kDataFiles[i], kGoldenDataFiles[i])});
  }
  const std::string v2 = GoldenBundle("sweep_v2", true);
  targets.push_back({"v2 manifest.json", kGoldenManifestV2,
                     BundleFileLoader(v2, "manifest.json", kGoldenManifestV2)});
  // Journal lines: each record alone; recovery drops what does not parse.
  std::istringstream journal(kGoldenJournal);
  for (std::string line; std::getline(journal, line);) {
    targets.push_back({"journal line", line, [](const std::string& text) {
                         const std::string state = TempDir("sweep_journal");
                         WriteBytes(state + "/journal.ndjson", text + "\n");
                         return FleetJournal(state).Open();
                       }});
  }
  const std::string checkpoint_bundle = GoldenBundle("sweep_checkpoint_bundle", true);
  targets.push_back({"CHECKPOINT", kGoldenCheckpoint, [checkpoint_bundle](const std::string& text) {
                       const std::string state = TempDir("sweep_checkpoint");
                       std::filesystem::copy(checkpoint_bundle, state + "/checkpoint_1",
                                             std::filesystem::copy_options::recursive);
                       WriteBytes(state + "/CHECKPOINT", text);
                       return FleetJournal(state).Open();
                     }});
  return targets;
}

TEST(PersistedCorpusTest, WrongTypedAndOutOfRangeLeavesNeverAbort) {
  const JsonValue replacements[] = {JsonValue(std::string("8")), JsonValue::Integer(7),
                                    JsonValue::Unsigned(4294967297ULL), JsonValue::Integer(-1)};
  for (const SweepTarget& target : SweepTargets()) {
    Result<JsonValue> root = ParseJson(target.golden);
    ASSERT_TRUE(root.ok()) << target.name;
    ASSERT_TRUE(target.load(target.golden).ok()) << target.name;
    Leaf leaf;
    size_t leaves = 0;
    Mutate(*root, SIZE_MAX, JsonValue(), leaves, "", &leaf);
    for (size_t index = 0; index < leaves; ++index) {
      for (const JsonValue& with : replacements) {
        size_t seen = 0;
        JsonWriter text;
        Render(text, Mutate(*root, index, with, seen, "", &leaf));
        const Status status = target.load(text.str());
        if (status.ok()) {
          continue;
        }
        const std::string context = target.name + ": " + text.str() + "\n" + status.ToString();
        // Besides INVALID_ARGUMENT: an unsupported version, and a deployment
        // dir renamed to one that does not exist.
        EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
                    (leaf.key == "version" && status.code() == StatusCode::kFailedPrecondition) ||
                    (leaf.key == "dir" && status.code() == StatusCode::kNotFound))
            << context;
        // A value of the wrong JSON type is reported under the key holding it.
        if (with.type() != leaf.original.type()) {
          EXPECT_NE(status.message().find(leaf.key), std::string::npos) << context;
        }
      }
    }
  }
}

// The three aborts this sweep was written against, by name.
TEST(PersistedCorpusTest, PinnedWrongTypeRepros) {
  const auto replace = [](std::string text, const std::string& from, const std::string& to) {
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  // A string where the kernel estimator's num_trees belongs.
  const std::string dir = GoldenBundle("pinned_repros", false);
  WriteBytes(dir + "/kernel_estimator.json",
             replace(kGoldenDataFiles[0], R"("num_trees":1)", R"("num_trees":"8")"));
  Status status = LoadBundle(dir);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("options.num_trees"), std::string::npos) << status.ToString();
  WriteBytes(dir + "/kernel_estimator.json", kGoldenDataFiles[0]);
  // A number where a cached kernel's kind name belongs.
  WriteBytes(dir + "/kernel_cache.json",
             replace(kGoldenDataFiles[3], R"("kind":"Gemm")", R"("kind":7)"));
  status = LoadBundle(dir);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("kernel.kind"), std::string::npos) << status.ToString();
  // Integers past 32 bits are refused, not truncated to rank 1 / event 7.
  status = ParseWorkerTrace(replace(kGoldenWorkerTrace, R"("rank":0)", R"("rank":4294967297)"))
               .status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("rank"), std::string::npos) << status.ToString();
  status = ParseWorkerTrace(replace(kGoldenWorkerTrace, R"("id":7)", R"("id":4294967303)"))
               .status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("event.id"), std::string::npos) << status.ToString();
}

}  // namespace
}  // namespace maya

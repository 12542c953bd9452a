// Training-framework substrate tests: layout math, config validation, and —
// most critically — parameterized end-to-end sweeps over the parallelism
// knobs verifying that every engine's emitted trace collates cleanly and
// replays through the simulator without deadlock (send/recv pairing, event
// synchronization and collective matching across ranks).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/common/strings.h"
#include "src/dlf/megatron_layout.h"
#include "src/dlf/transformer_ops.h"
#include "src/dlf/worker_launcher.h"
#include "src/groundtruth/executor.h"
#include "src/models/model_zoo.h"
#include "src/trace/collator.h"

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

// ---- MegatronLayout ---------------------------------------------------------

TEST(LayoutTest, RankCoordinateRoundTrip) {
  const MegatronLayout layout(32, /*tp=*/2, /*pp=*/4);
  EXPECT_EQ(layout.dp(), 4);
  for (int rank = 0; rank < 32; ++rank) {
    EXPECT_EQ(layout.RankOf(layout.tp_index(rank), layout.dp_index(rank), layout.pp_stage(rank)),
              rank);
  }
}

TEST(LayoutTest, TpGroupsAreContiguous) {
  const MegatronLayout layout(16, 4, 2);
  EXPECT_EQ(layout.TpGroup(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(layout.TpGroup(5), (std::vector<int>{4, 5, 6, 7}));
}

TEST(LayoutTest, PpGroupStridesByTpTimesDp) {
  const MegatronLayout layout(16, 2, 2);  // dp=4, tp*dp=8
  EXPECT_EQ(layout.PpGroup(0), (std::vector<int>{0, 8}));
  EXPECT_EQ(layout.PpGroup(3), (std::vector<int>{3, 11}));
}

TEST(LayoutTest, DpGroupStridesByTp) {
  const MegatronLayout layout(16, 2, 2);
  EXPECT_EQ(layout.DpGroup(0), (std::vector<int>{0, 2, 4, 6}));
}

TEST(LayoutTest, UniqueRanksOnePerStage) {
  const MegatronLayout layout(64, 8, 8);  // the paper's 64-GPU TP8/DP8 example
  EXPECT_EQ(layout.UniqueRanks().size(), 8u);
  for (int rank = 0; rank < 64; ++rank) {
    EXPECT_EQ(layout.pp_stage(layout.RepresentativeOf(rank)), layout.pp_stage(rank));
    EXPECT_EQ(layout.tp_index(layout.RepresentativeOf(rank)), 0);
    EXPECT_EQ(layout.dp_index(layout.RepresentativeOf(rank)), 0);
  }
}

TEST(LayoutTest, GroupIndicesDisjoint) {
  const MegatronLayout layout(16, 2, 2);
  std::set<int> tp_groups;
  for (int rank = 0; rank < 16; ++rank) {
    tp_groups.insert(layout.TpGroupIndex(rank));
  }
  EXPECT_EQ(tp_groups.size(), 8u);  // 16 ranks / tp2
}

// ---- TrainConfig validation --------------------------------------------------

TEST(TrainConfigTest, ValidatesDivisibility) {
  const ClusterSpec cluster = H100Cluster(8);
  const ModelConfig model = TinyGpt();
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = 2;
  config.pipeline_parallel = 2;
  EXPECT_TRUE(config.Validate(model, cluster).ok());
  config.tensor_parallel = 3;
  EXPECT_FALSE(config.Validate(model, cluster).ok());
}

TEST(TrainConfigTest, SequenceParallelRequiresTp) {
  const ClusterSpec cluster = H100Cluster(8);
  TrainConfig config;
  config.global_batch_size = 32;
  config.sequence_parallel = true;
  EXPECT_FALSE(config.Validate(TinyGpt(), cluster).ok());
  config.tensor_parallel = 2;
  EXPECT_TRUE(config.Validate(TinyGpt(), cluster).ok());
}

TEST(TrainConfigTest, VirtualStagesRequirePipeline) {
  const ClusterSpec cluster = H100Cluster(8);
  TrainConfig config;
  config.global_batch_size = 32;
  config.virtual_pipeline_stages = 2;
  EXPECT_FALSE(config.Validate(TinyGpt(), cluster).ok());
  config.pipeline_parallel = 2;
  EXPECT_TRUE(config.Validate(TinyGpt(), cluster).ok());
}

TEST(TrainConfigTest, TpCannotSpanNodes) {
  TrainConfig config;
  config.global_batch_size = 64;
  config.tensor_parallel = 8;
  EXPECT_TRUE(config.Validate(TinyGpt(), H100Cluster(16)).ok());
  ClusterSpec small_nodes = H100Cluster(16);
  small_nodes.gpus_per_node = 4;
  small_nodes.num_nodes = 4;
  EXPECT_FALSE(config.Validate(TinyGpt(), small_nodes).ok());
}

TEST(TrainConfigTest, LayerDivisibilityIntoChunks) {
  const ClusterSpec cluster = H100Cluster(8);
  TrainConfig config;
  config.global_batch_size = 32;
  config.pipeline_parallel = 4;
  config.virtual_pipeline_stages = 4;  // 16 chunks > 8 layers
  EXPECT_FALSE(config.Validate(TinyGpt(), cluster).ok());
  config.virtual_pipeline_stages = 2;  // 8 chunks of 1 layer
  EXPECT_TRUE(config.Validate(TinyGpt(), cluster).ok());
}

TEST(TrainConfigTest, DerivedQuantities) {
  TrainConfig config;
  config.global_batch_size = 64;
  config.tensor_parallel = 2;
  config.pipeline_parallel = 2;
  config.microbatch_multiplier = 2;
  EXPECT_EQ(config.data_parallel(16), 4);
  EXPECT_EQ(config.num_microbatches(), 4);
  EXPECT_EQ(config.microbatch_size(16), 4);
  EXPECT_NE(config.CacheKey(), TrainConfig{}.CacheKey());
}

// ---- Model config --------------------------------------------------------------

TEST(ModelConfigTest, ParameterCountsMatchPaperModels) {
  EXPECT_NEAR(Gpt3_1_3B().ParameterCount() / 1e9, 1.3, 0.15);
  EXPECT_NEAR(Gpt3_2_7B().ParameterCount() / 1e9, 2.7, 0.25);
  EXPECT_NEAR(Gpt3_18_4B().ParameterCount() / 1e9, 18.4, 1.0);
  EXPECT_NEAR(Gpt3_145_6B().ParameterCount() / 1e9, 145.6, 6.0);
  EXPECT_NEAR(Llama2_7B().ParameterCount() / 1e9, 6.8, 0.7);
  EXPECT_NEAR(ResNet152().ParameterCount() / 1e6, 60.0, 15.0);
}

TEST(ModelConfigTest, FlopsScaleWithBatch) {
  const ModelConfig model = Gpt3_2_7B();
  EXPECT_NEAR(model.FlopsPerIteration(512) / model.FlopsPerIteration(256), 2.0, 1e-9);
}

TEST(ModelConfigTest, DefaultBatchesMatchPaper) {
  EXPECT_EQ(DefaultGlobalBatch(Gpt3_2_7B()), 256);
  EXPECT_EQ(DefaultGlobalBatch(Gpt3_18_4B()), 512);
  EXPECT_EQ(DefaultGlobalBatch(Gpt3_145_6B()), 12288);
}

TEST(ModelConfigTest, GeneralityZooHasNineModels) {
  EXPECT_EQ(GeneralityZoo().size(), 9u);  // Table 4
}

// ---- Transformer ops accounting ----------------------------------------------------

TEST(TransformerOpsTest, LayerParamsMatchFormula) {
  TransformerDims dims;
  dims.hidden = 1024;
  dims.ffn_hidden = 4096;
  dims.tp = 1;
  // 4h^2 + 2*4h^2 = 12h^2 (+4h LN).
  EXPECT_EQ(TransformerLayerParams(dims), 12 * 1024 * 1024 + 4 * 1024);
  dims.tp = 4;
  EXPECT_EQ(TransformerLayerParams(dims), 3 * 1024 * 1024 + 4 * 1024);
}

TEST(TransformerOpsTest, ActivationMemoryShrinksWithTpAndSp) {
  TransformerDims dims;
  dims.seq = 2048;
  dims.mbs = 4;
  dims.hidden = 2048;
  dims.heads = 16;
  dims.ffn_hidden = 8192;
  dims.tp = 1;
  const uint64_t base = TransformerActivationBytes(dims, false);
  dims.tp = 4;
  const uint64_t tp = TransformerActivationBytes(dims, false);
  dims.sequence_parallel = true;
  const uint64_t tp_sp = TransformerActivationBytes(dims, false);
  EXPECT_GT(base, tp);
  EXPECT_GT(tp, tp_sp);
  // Full recomputation keeps only the boundary.
  EXPECT_GT(tp_sp, TransformerActivationBytes(dims, true));
}

// ---- End-to-end engine sweeps (schedule correctness) --------------------------------

struct EngineCase {
  int tp;
  int pp;
  int mult;
  int vpp;
  bool recomp;
  bool sp;
  bool dist_opt;
};

class MegatronEngineSweep : public ::testing::TestWithParam<EngineCase> {};

TEST_P(MegatronEngineSweep, EmulatesCollatesAndSimulates) {
  const EngineCase param = GetParam();
  const ClusterSpec cluster = H100Cluster(8);
  const ModelConfig model = TinyGpt();
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = param.tp;
  config.pipeline_parallel = param.pp;
  config.microbatch_multiplier = param.mult;
  config.virtual_pipeline_stages = param.vpp;
  config.activation_recomputation = param.recomp;
  config.sequence_parallel = param.sp;
  config.distributed_optimizer = param.dist_opt;
  ASSERT_TRUE(config.Validate(model, cluster).ok());

  Result<LaunchResult> launched = EmulateJob(model, config, cluster);
  ASSERT_TRUE(launched.ok()) << launched.status().ToString();
  ASSERT_FALSE(launched->oom) << launched->oom_detail;
  EXPECT_EQ(launched->traces.size(), 8u);
  for (const WorkerTrace& trace : launched->traces) {
    EXPECT_GT(trace.KernelLaunchCount(), 0u) << trace.Summary();
    EXPECT_GT(trace.peak_device_bytes, 0u);
  }

  TraceCollator collator;
  Result<JobTrace> job = collator.Collate(std::move(launched->traces));
  ASSERT_TRUE(job.ok()) << job.status().ToString();

  // Replaying through the ground-truth executor catches any schedule
  // mismatch (unpaired send/recv, wrong seq) as a deadlock error.
  GroundTruthExecutor executor(cluster, 3);
  Result<SimReport> report = executor.Execute(*job);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->total_time_us, 0.0);
  EXPECT_GT(report->peak_memory_bytes, 0u);
  if (param.tp * param.pp > 1 || config.data_parallel(8) > 1) {
    EXPECT_GT(report->comm_time_us, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParallelismKnobs, MegatronEngineSweep,
    ::testing::Values(EngineCase{1, 1, 1, 1, false, false, false},   // single GPU per replica
                      EngineCase{2, 1, 1, 1, false, false, false},   // pure TP
                      EngineCase{1, 2, 1, 1, false, false, false},   // pure PP
                      EngineCase{2, 2, 1, 1, false, false, false},   // TP x PP
                      EngineCase{2, 2, 2, 1, false, false, false},   // + grad accumulation
                      EngineCase{2, 2, 2, 1, true, false, false},    // + recomputation
                      EngineCase{2, 2, 1, 1, false, true, false},    // + sequence parallel
                      EngineCase{2, 2, 2, 1, false, false, true},    // + distributed optimizer
                      EngineCase{1, 2, 2, 2, false, false, false},   // interleaved 1F1B
                      EngineCase{2, 4, 2, 2, true, true, true},      // everything at once
                      EngineCase{8, 1, 2, 1, false, true, false},    // full-node TP
                      EngineCase{1, 8, 1, 1, false, false, false},   // deep pipeline
                      EngineCase{1, 4, 2, 2, false, false, false},   // interleave, dp>1
                      EngineCase{4, 2, 4, 1, true, true, false}),
    [](const auto& info) {
      const EngineCase& c = info.param;
      return StrFormat("tp%d_pp%d_m%d_v%d_r%d_s%d_d%d", c.tp, c.pp, c.mult, c.vpp,
                       c.recomp ? 1 : 0, c.sp ? 1 : 0, c.dist_opt ? 1 : 0);
    });

// ---- OOM propagation -----------------------------------------------------------------

TEST(MegatronEngineTest, OomSurfacesForOversizedModel) {
  ClusterSpec cluster = H100Cluster(8);
  cluster.gpu.hbm_bytes = 4ULL << 30;  // shrink the device to force OOM
  const ModelConfig model = TinyGpt();
  TrainConfig config;
  config.global_batch_size = 32;
  Result<LaunchResult> launched = EmulateJob(model, config, cluster);
  ASSERT_TRUE(launched.ok()) << launched.status().ToString();
  EXPECT_TRUE(launched->oom);
  EXPECT_FALSE(launched->oom_detail.empty());
}

TEST(MegatronEngineTest, RecomputationRescuesMemory) {
  // A memory-limited device where only the recomputation variant fits.
  ClusterSpec cluster = H100Cluster(8);
  cluster.gpu.hbm_bytes = 11ULL << 30;
  ModelConfig model = TinyGpt();
  model.seq_length = 2048;
  TrainConfig config;
  config.global_batch_size = 64;
  config.microbatch_multiplier = 1;
  Result<LaunchResult> without = EmulateJob(model, config, cluster);
  ASSERT_TRUE(without.ok());
  EXPECT_TRUE(without->oom);
  config.activation_recomputation = true;
  Result<LaunchResult> with = EmulateJob(model, config, cluster);
  ASSERT_TRUE(with.ok());
  EXPECT_FALSE(with->oom) << with->oom_detail;
}

// ---- Selective launch -------------------------------------------------------------------

TEST(SelectiveLaunchTest, StubsCoverNonUniqueRanks) {
  const ClusterSpec cluster = H100Cluster(8);
  const ModelConfig model = TinyGpt();
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = 2;
  config.pipeline_parallel = 2;
  LaunchOptions options;
  options.selective_launch = true;
  Result<LaunchResult> launched = EmulateJob(model, config, cluster, options);
  ASSERT_TRUE(launched.ok()) << launched.status().ToString();
  EXPECT_EQ(launched->full_workers_emulated, 2);  // one per pipeline stage
  int stubs = 0;
  for (const WorkerTrace& trace : launched->traces) {
    if (trace.comm_init_only) {
      ++stubs;
      EXPECT_GE(trace.duplicate_of, 0);
      EXPECT_TRUE(trace.ops.empty());
      EXPECT_FALSE(trace.comm_inits.empty());
    }
  }
  EXPECT_EQ(stubs, 6);
}

TEST(SelectiveLaunchTest, MatchesFullEmulationPrediction) {
  const ClusterSpec cluster = H100Cluster(8);
  const ModelConfig model = TinyGpt();
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = 2;
  config.pipeline_parallel = 2;
  GroundTruthExecutor executor(cluster, 17);

  auto run = [&](bool selective) {
    LaunchOptions options;
    options.selective_launch = selective;
    Result<LaunchResult> launched = EmulateJob(model, config, cluster, options);
    CHECK(launched.ok());
    TraceCollator collator;  // dedup on
    Result<JobTrace> job = collator.Collate(std::move(launched->traces));
    CHECK(job.ok()) << job.status().ToString();
    Result<SimReport> report = executor.Execute(*job);
    CHECK(report.ok()) << report.status().ToString();
    return report->total_time_us;
  };
  const double full = run(false);
  const double selective = run(true);
  // Same representatives, same instance keys, same simulation.
  EXPECT_NEAR(selective / full, 1.0, 1e-9);
}

// ---- Generalized selective launch (FSDP / vision) ---------------------------

// Exact (bit-level) equality of two launches: trace ops (including measured
// host delays), comm evidence, memory highwater, and the launcher's counters.
void ExpectLaunchIdentical(const LaunchResult& a, const LaunchResult& b) {
  ASSERT_EQ(a.oom, b.oom);
  EXPECT_EQ(a.oom_detail, b.oom_detail);
  EXPECT_EQ(a.full_workers_emulated, b.full_workers_emulated);
  EXPECT_EQ(a.total_api_calls, b.total_api_calls);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_TRUE(a.traces[i] == b.traces[i])
        << "rank " << a.traces[i].rank << " trace mismatch: " << a.traces[i].Summary()
        << " vs " << b.traces[i].Summary();
  }
}

TEST(TraceFootprintTest, KernelTableHoldsExactlyTheDistinctKernels) {
  // A launch op names its kernel by index into the worker's interned table:
  // the table must hold each distinct KernelDesc the worker launched exactly
  // once, in first-launch order, and nothing else.
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = 2;
  config.pipeline_parallel = 2;
  config.microbatch_multiplier = 2;
  Result<LaunchResult> launched = EmulateJob(TinyGpt(), config, H100Cluster(8));
  ASSERT_TRUE(launched.ok()) << launched.status().ToString();
  ASSERT_FALSE(launched->oom);
  for (const WorkerTrace& trace : launched->traces) {
    std::vector<KernelDesc> distinct;
    size_t launches = 0;
    for (const TraceOp& op : trace.ops) {
      if (op.type != TraceOpType::kKernelLaunch) {
        continue;
      }
      ++launches;
      const KernelDesc& kernel = trace.kernel(op);
      if (std::find(distinct.begin(), distinct.end(), kernel) == distinct.end()) {
        distinct.push_back(kernel);
      }
    }
    EXPECT_EQ(trace.kernels.descs(), distinct) << "rank " << trace.rank;
    EXPECT_GT(launches, 10 * distinct.size()) << "rank " << trace.rank;
    // Every other payload table is one entry per op of its kind.
    EXPECT_EQ(trace.events.size() + trace.memory_ops.size() + trace.collectives.size() + launches,
              trace.ops.size() - static_cast<size_t>(std::count_if(
                                     trace.ops.begin(), trace.ops.end(), [](const TraceOp& op) {
                                       return op.type == TraceOpType::kStreamSynchronize ||
                                              op.type == TraceOpType::kDeviceSynchronize;
                                     })))
        << "rank " << trace.rank;
  }
}

TEST(SelectiveLaunchTest, FsdpFoldsEveryRankOntoRankZero) {
  TrainConfig config;
  config.framework = ParallelFramework::kFsdp;
  config.global_batch_size = 32;
  LaunchOptions options;
  options.selective_launch = true;
  Result<LaunchResult> launched = EmulateJob(TinyGpt(), config, H100Cluster(8), options);
  ASSERT_TRUE(launched.ok()) << launched.status().ToString();
  EXPECT_EQ(launched->full_workers_emulated, 1);
  for (const WorkerTrace& trace : launched->traces) {
    if (trace.rank == 0) {
      EXPECT_FALSE(trace.comm_init_only);
      continue;
    }
    EXPECT_TRUE(trace.comm_init_only);
    EXPECT_EQ(trace.duplicate_of, 0);
    EXPECT_TRUE(trace.ops.empty());
    ASSERT_EQ(trace.comm_inits.size(), 1u);  // world-comm membership evidence
    EXPECT_EQ(trace.comm_inits[0].rank_in_comm, trace.rank);
  }
  // The representative's trace is byte-identical to its full-emulation twin —
  // selective launch changes which ranks run, never what a rank records.
  Result<LaunchResult> full = EmulateJob(TinyGpt(), config, H100Cluster(8));
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(launched->traces[0] == full->traces[0]);
  // Fold criterion: every full rank shares the representative's structural
  // fingerprint (the FSDP script is rank-symmetric).
  for (const WorkerTrace& trace : full->traces) {
    EXPECT_EQ(trace.Fingerprint(), full->traces[0].Fingerprint());
  }
  // Collation accepts the stubs and folds the job to one simulated worker.
  TraceCollator collator;
  Result<JobTrace> job = collator.Collate(std::move(launched->traces));
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(job->workers.size(), 1u);
  EXPECT_EQ(job->folded_ranks[0].size(), 8u);
}

TEST(SelectiveLaunchTest, VisionFoldsDataParallelTwins) {
  const ClusterSpec cluster = A40Node();
  TrainConfig config;
  config.framework = ParallelFramework::kDdp;
  config.global_batch_size = 256;
  config.microbatch_multiplier = 1;
  LaunchOptions options;
  options.selective_launch = true;
  Result<LaunchResult> launched = EmulateJob(ResNet152(), config, cluster, options);
  ASSERT_TRUE(launched.ok()) << launched.status().ToString();
  EXPECT_EQ(launched->full_workers_emulated, 1);
  TraceCollator collator;
  Result<JobTrace> job = collator.Collate(std::move(launched->traces));
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(job->workers.size(), 1u);
  GroundTruthExecutor executor(cluster, 7);
  Result<SimReport> report = executor.Execute(*job);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->comm_time_us, 0.0);
}

// ---- Parallel emulation ------------------------------------------------------

struct ParallelCase {
  const char* label;
  ParallelFramework framework;
  bool vision = false;
  bool selective = false;
};

class ParallelLaunchSweep : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelLaunchSweep, BitIdenticalToSequential) {
  const ParallelCase param = GetParam();
  const ClusterSpec cluster = H100Cluster(8);
  ModelConfig model = param.vision ? ResNet152() : TinyGpt();
  TrainConfig config;
  config.framework = param.framework;
  if (param.vision) {
    config.global_batch_size = 256;
    config.microbatch_multiplier = 1;
  } else if (param.framework == ParallelFramework::kMegatron) {
    config.global_batch_size = 32;
    config.tensor_parallel = 2;
    config.pipeline_parallel = 2;
    config.microbatch_multiplier = 2;
  } else {
    config.global_batch_size = 32;
  }
  ThreadPool pool(4);
  LaunchOptions sequential;
  sequential.selective_launch = param.selective;
  LaunchOptions parallel = sequential;
  parallel.emulation_pool = &pool;
  parallel.min_parallel_ranks = 1;  // force the parallel arm below the adaptive floor
  Result<LaunchResult> a = EmulateJob(model, config, cluster, sequential);
  Result<LaunchResult> b = EmulateJob(model, config, cluster, parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_FALSE(a->oom) << a->oom_detail;
  ExpectLaunchIdentical(*a, *b);
}

INSTANTIATE_TEST_SUITE_P(
    Frameworks, ParallelLaunchSweep,
    ::testing::Values(ParallelCase{"megatron", ParallelFramework::kMegatron, false, false},
                      ParallelCase{"megatron_sel", ParallelFramework::kMegatron, false, true},
                      ParallelCase{"fsdp", ParallelFramework::kFsdp, false, false},
                      ParallelCase{"fsdp_sel", ParallelFramework::kFsdp, false, true},
                      ParallelCase{"vision", ParallelFramework::kDdp, true, false},
                      ParallelCase{"vision_sel", ParallelFramework::kDdp, true, true}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(ParallelLaunchTest, BorrowedPoolMatchesSequential) {
  ThreadPool pool(3);
  TrainConfig config;
  config.framework = ParallelFramework::kDeepSpeed;
  config.zero_stage = 2;
  config.global_batch_size = 32;
  config.microbatch_multiplier = 2;
  LaunchOptions borrowed;
  borrowed.emulation_pool = &pool;
  borrowed.min_parallel_ranks = 1;
  Result<LaunchResult> a = EmulateJob(TinyGpt(), config, H100Cluster(8));
  Result<LaunchResult> b = EmulateJob(TinyGpt(), config, H100Cluster(8), borrowed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectLaunchIdentical(*a, *b);
}

TEST(ParallelLaunchTest, OomPathBitIdenticalToSequential) {
  // Shrink the device so emulation OOMs: the parallel launch must report the
  // same lowest-failing rank, detail string, and pre-OOM counters the
  // sequential early-exit produces.
  ClusterSpec cluster = H100Cluster(8);
  cluster.gpu.hbm_bytes = 4ULL << 30;
  TrainConfig config;
  config.global_batch_size = 32;
  ThreadPool pool(4);
  LaunchOptions parallel;
  parallel.emulation_pool = &pool;
  parallel.min_parallel_ranks = 1;
  Result<LaunchResult> a = EmulateJob(TinyGpt(), config, cluster);
  Result<LaunchResult> b = EmulateJob(TinyGpt(), config, cluster, parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_TRUE(a->oom);
  EXPECT_TRUE(b->oom);
  EXPECT_EQ(a->oom_detail, b->oom_detail);
  EXPECT_EQ(a->total_api_calls, b->total_api_calls);
  EXPECT_EQ(a->full_workers_emulated, b->full_workers_emulated);
  EXPECT_TRUE(a->traces.empty());
  EXPECT_TRUE(b->traces.empty());
}

// ---- FSDP / DeepSpeed / DDP engines ----------------------------------------------------

class ZeroStageSweep : public ::testing::TestWithParam<int> {};

TEST_P(ZeroStageSweep, DeepSpeedStagesEmulateAndSimulate) {
  const ClusterSpec cluster = H100Cluster(8);
  ModelConfig model = TinyGpt();
  TrainConfig config;
  config.framework = ParallelFramework::kDeepSpeed;
  config.zero_stage = GetParam();
  config.global_batch_size = 32;
  config.microbatch_multiplier = 2;
  Result<LaunchResult> launched = EmulateJob(model, config, cluster);
  ASSERT_TRUE(launched.ok()) << launched.status().ToString();
  ASSERT_FALSE(launched->oom) << launched->oom_detail;
  TraceCollator collator;
  Result<JobTrace> job = collator.Collate(std::move(launched->traces));
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  // All 8 DP ranks are twins: dedup folds to one.
  EXPECT_EQ(job->workers.size(), 1u);
  GroundTruthExecutor executor(cluster, 5);
  Result<SimReport> report = executor.Execute(*job);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->comm_time_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Stages, ZeroStageSweep, ::testing::Values(1, 2, 3));

TEST(FsdpEngineTest, Zero3ShardsParameterMemory) {
  const ClusterSpec cluster = H100Cluster(8);
  ModelConfig model = TinyGpt();
  auto peak_for = [&](ParallelFramework framework, int stage) {
    TrainConfig config;
    config.framework = framework;
    config.zero_stage = stage;
    config.global_batch_size = 32;
    Result<LaunchResult> launched = EmulateJob(model, config, cluster);
    CHECK(launched.ok());
    CHECK(!launched->oom);
    uint64_t peak = 0;
    for (const WorkerTrace& trace : launched->traces) {
      peak = std::max(peak, trace.peak_device_bytes);
    }
    return peak;
  };
  const uint64_t ddp = peak_for(ParallelFramework::kDdp, 0);
  const uint64_t zero1 = peak_for(ParallelFramework::kDeepSpeed, 1);
  const uint64_t zero3 = peak_for(ParallelFramework::kDeepSpeed, 3);
  EXPECT_GT(ddp, zero1);
  EXPECT_GT(zero1, zero3);
}

TEST(FsdpEngineTest, ActivationOffloadEmitsHostTransfers) {
  const ClusterSpec cluster = H100Cluster(8);
  TrainConfig config;
  config.framework = ParallelFramework::kDeepSpeed;
  config.zero_stage = 1;
  config.activation_offload = true;
  config.global_batch_size = 32;
  Result<LaunchResult> launched = EmulateJob(TinyGpt(), config, cluster);
  ASSERT_TRUE(launched.ok());
  ASSERT_FALSE(launched->oom);
  size_t d2h = 0;
  size_t h2d = 0;
  const WorkerTrace& trace = launched->traces[0];
  for (const TraceOp& op : trace.ops) {
    if (op.type == TraceOpType::kKernelLaunch) {
      d2h += trace.kernel(op).kind == KernelKind::kMemcpyD2H ? 1 : 0;
      h2d += trace.kernel(op).kind == KernelKind::kMemcpyH2D ? 1 : 0;
    }
  }
  // One offload store per layer and one fetch per layer (plus input loads).
  EXPECT_GE(d2h, 8u);
  EXPECT_GE(h2d, 8u);
}

TEST(FsdpEngineTest, TorchCompileEmitsTritonAndCutsHostTime) {
  const ClusterSpec cluster = H100Cluster(8);
  TrainConfig eager_config;
  eager_config.framework = ParallelFramework::kDdp;
  eager_config.global_batch_size = 32;
  TrainConfig compiled_config = eager_config;
  compiled_config.torch_compile = true;

  Result<LaunchResult> eager = EmulateJob(TinyGpt(), eager_config, cluster);
  Result<LaunchResult> compiled = EmulateJob(TinyGpt(), compiled_config, cluster);
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(compiled.ok());
  size_t triton = 0;
  const WorkerTrace& trace = compiled->traces[0];
  for (const TraceOp& op : trace.ops) {
    triton += op.type == TraceOpType::kKernelLaunch &&
                      trace.kernel(op).kind == KernelKind::kTritonFused
                  ? 1
                  : 0;
  }
  EXPECT_GT(triton, 0u);
  EXPECT_LT(compiled->traces[0].TotalHostDelayUs(), eager->traces[0].TotalHostDelayUs());
}

// ---- Vision engine ------------------------------------------------------------------------

TEST(VisionEngineTest, ResNetEmulatesThroughCudnnPath) {
  const ClusterSpec cluster = A40Node();
  TrainConfig config;
  config.framework = ParallelFramework::kDdp;
  config.global_batch_size = 256;
  config.microbatch_multiplier = 1;
  Result<LaunchResult> launched = EmulateJob(ResNet152(), config, cluster);
  ASSERT_TRUE(launched.ok()) << launched.status().ToString();
  ASSERT_FALSE(launched->oom) << launched->oom_detail;
  size_t convs = 0;
  size_t bns = 0;
  const WorkerTrace& trace = launched->traces[0];
  for (const TraceOp& op : trace.ops) {
    if (op.type != TraceOpType::kKernelLaunch) {
      continue;
    }
    const KernelDesc& kernel = trace.kernel(op);
    convs += kernel.kind == KernelKind::kConvForward ||
                     kernel.kind == KernelKind::kConvBackwardData ||
                     kernel.kind == KernelKind::kConvBackwardFilter
                 ? 1
                 : 0;
    bns += kernel.kind == KernelKind::kBatchNormForward ||
                   kernel.kind == KernelKind::kBatchNormBackward
               ? 1
               : 0;
  }
  // ResNet152: 50 bottleneck blocks x 3 convs + stem + downsamples, fwd+bwd.
  EXPECT_GT(convs, 300u);
  EXPECT_GT(bns, 100u);

  TraceCollator collator;
  Result<JobTrace> job = collator.Collate(std::move(launched->traces));
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  GroundTruthExecutor executor(cluster, 7);
  Result<SimReport> report = executor.Execute(*job);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

// ---- Host cost model -------------------------------------------------------------------------

TEST(HostCostModelTest, CompiledModeCutsLaunchOverhead) {
  const HostCostModel eager;
  const HostCostModel compiled = eager.Compiled();
  EXPECT_LT(compiled.kernel_launch_us, eager.kernel_launch_us / 3.0);
}

TEST(HostCostModelTest, ChargeAdvancesClockWithJitter) {
  VirtualHostClock clock;
  Rng rng(1);
  HostCostModel costs;
  ChargeHost(clock, rng, costs, 10.0);
  EXPECT_GT(clock.NowUs(), 10.0 * (1.0 - costs.jitter_fraction) - 1e-9);
  EXPECT_LT(clock.NowUs(), 10.0 * (1.0 + costs.jitter_fraction) + 1e-9);
}

}  // namespace
}  // namespace maya

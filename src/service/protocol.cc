#include "src/service/protocol.h"

#include <utility>

#include "src/trace/serialization.h"

// Every wire struct lists its keys once, in its Fields function; the
// JsonFieldWriter / JsonFieldReader visitors (src/common/json_fields.h)
// serialize and parse through that one list. The Fields overloads live in
// namespace maya (not an anonymous namespace) so ADL finds them from the
// visitors.
namespace maya {
namespace {

constexpr ModelFamily kModelFamilies[] = {ModelFamily::kGpt, ModelFamily::kBert,
                                          ModelFamily::kT5, ModelFamily::kVit,
                                          ModelFamily::kResNet};
constexpr ParallelFramework kFrameworks[] = {ParallelFramework::kMegatron,
                                             ParallelFramework::kDdp, ParallelFramework::kFsdp,
                                             ParallelFramework::kDeepSpeed};
constexpr GpuArch kGpuArchs[] = {GpuArch::kV100, GpuArch::kH100, GpuArch::kA40};
constexpr IntraNodeFabric kIntraFabrics[] = {
    IntraNodeFabric::kNvSwitch, IntraNodeFabric::kCubeMesh, IntraNodeFabric::kPairwiseNvlink};
constexpr InterNodeFabric kInterFabrics[] = {InterNodeFabric::kInfiniBand, InterNodeFabric::kRoCE,
                                             InterNodeFabric::kEthernet, InterNodeFabric::kNone};
constexpr MetricType kMetricTypes[] = {MetricType::kCounter, MetricType::kGauge,
                                       MetricType::kHistogram};
constexpr ServiceRequestKind kRequestKinds[] = {
    ServiceRequestKind::kPredict,      ServiceRequestKind::kBatchPredict,
    ServiceRequestKind::kSearch,       ServiceRequestKind::kWhatIfOom,
    ServiceRequestKind::kTracePredict, ServiceRequestKind::kStats,
    ServiceRequestKind::kCancel,       ServiceRequestKind::kMetrics,
    ServiceRequestKind::kDumpTrace,    ServiceRequestKind::kAddDeployment,
    ServiceRequestKind::kRemoveDeployment, ServiceRequestKind::kHealth,
};

// The default-constructed payload alternative for `kind`.
ServicePayload PayloadOfKind(ServiceRequestKind kind) {
  return [kind]<size_t... I>(std::index_sequence<I...>) {
    ServicePayload payload;
    ((static_cast<size_t>(kind) == I ? void(payload.emplace<I>()) : void()), ...);
    return payload;
  }(std::make_index_sequence<std::variant_size_v<ServicePayload>>());
}

// v1 compatibility: `whatif_cluster` was "predict on another cluster" with
// the target in a `cluster` field — exactly what deployment targeting
// expresses now, so it is read as a predict whose deployment is `cluster`.
Result<JsonValue> UpgradeWhatIfCluster(JsonValue root) {
  const JsonValue* kind = root.Find("kind");
  if (kind == nullptr || ToString(*kind).value_or("") != "whatif_cluster") {
    return root;
  }
  const JsonValue* cluster = root.Find("cluster");
  if (cluster == nullptr) {
    return Status::InvalidArgument("missing key 'cluster'");
  }
  MAYA_ASSIGN_OR_RETURN(const JsonObject* object, ToObject(root));
  JsonObject upgraded = *object;
  upgraded["kind"] = JsonValue(std::string("predict"));
  upgraded["deployment"] = *cluster;
  upgraded.erase("cluster");
  return JsonValue(std::move(upgraded));
}

}  // namespace

// ---- Shared model / config / cluster codecs ---------------------------------

template <class V>
void Fields(V& v, ConvStageConfig& stage) {
  v("blocks", stage.blocks);
  v("channels", stage.channels);
  v("stride", stage.stride);
}

template <class V>
void Fields(V& v, ModelConfig& model) {
  constexpr Presence kOpt = Presence::kOptional;
  v("name", model.name);
  v.Enum("family", model.family, ModelFamilyName, kModelFamilies);
  v("num_layers", model.num_layers, kOpt);
  v("hidden_size", model.hidden_size, kOpt);
  v("num_heads", model.num_heads, kOpt);
  v("vocab_size", model.vocab_size, kOpt);
  v("seq_length", model.seq_length, kOpt);
  v("ffn_multiplier", model.ffn_multiplier, kOpt);
  v("image_size", model.image_size, kOpt);
  v("stem_channels", model.stem_channels, kOpt);
  v("num_classes", model.num_classes, kOpt);
  v("conv_stages", model.conv_stages, kOpt);
}

template <class V>
void Fields(V& v, TrainConfig& config) {
  constexpr Presence kOpt = Presence::kOptional;
  v.Enum("framework", config.framework, ParallelFrameworkName, kFrameworks, kOpt);
  v("global_batch_size", config.global_batch_size, kOpt);
  v("tensor_parallel", config.tensor_parallel, kOpt);
  v("pipeline_parallel", config.pipeline_parallel, kOpt);
  v("microbatch_multiplier", config.microbatch_multiplier, kOpt);
  v("virtual_pipeline_stages", config.virtual_pipeline_stages, kOpt);
  v("sequence_parallel", config.sequence_parallel, kOpt);
  v("activation_recomputation", config.activation_recomputation, kOpt);
  v("distributed_optimizer", config.distributed_optimizer, kOpt);
  v("zero_stage", config.zero_stage, kOpt);
  v("activation_offload", config.activation_offload, kOpt);
  v("torch_compile", config.torch_compile, kOpt);
}

template <class V>
void Fields(V& v, ClusterSpec& cluster) {
  v.Enum("arch", cluster.gpu.arch, GpuArchName, kGpuArchs);
  v("gpu_name", cluster.gpu.name);
  v("peak_fp32_flops", cluster.gpu.peak_fp32_flops);
  v("peak_tensor_flops", cluster.gpu.peak_tensor_flops);
  v("hbm_bytes", cluster.gpu.hbm_bytes);
  v("hbm_bandwidth", cluster.gpu.hbm_bandwidth);
  v("sm_count", cluster.gpu.sm_count);
  v("sm_clock_ghz", cluster.gpu.sm_clock_ghz);
  v("kernel_dispatch_latency_us", cluster.gpu.kernel_dispatch_latency_us);
  v("gpus_per_node", cluster.gpus_per_node);
  v("num_nodes", cluster.num_nodes);
  v.Enum("intra_fabric", cluster.intra_fabric, IntraNodeFabricName, kIntraFabrics);
  v("intra_bandwidth", cluster.intra_bandwidth);
  v("intra_latency_us", cluster.intra_latency_us);
  v.Enum("inter_fabric", cluster.inter_fabric, InterNodeFabricName, kInterFabrics);
  v("inter_bandwidth", cluster.inter_bandwidth);
  v("inter_latency_us", cluster.inter_latency_us);
  v("cost_per_gpu_hour", cluster.cost_per_gpu_hour);
}

template void Fields(JsonFieldWriter&, ClusterSpec&);
template void Fields(JsonFieldReader&, ClusterSpec&);

template <class V>
void Fields(V& v, SearchOptions& options) {
  constexpr Presence kOpt = Presence::kOptional;
  v("algorithm", options.algorithm, kOpt);
  v("sample_budget", options.sample_budget, kOpt);
  v("enable_pruning", options.enable_pruning, kOpt);
  v("enable_cache", options.enable_cache, kOpt);
  v("deduplicate_workers", options.deduplicate_workers, kOpt);
  v("selective_launch", options.selective_launch, kOpt);
  v("virtual_folds", options.virtual_folds, kOpt);
  v("concurrency", options.concurrency, kOpt);
  v("early_stop_patience", options.early_stop_patience, kOpt);
  v("seed", options.seed, kOpt);
}

// ---- Requests -----------------------------------------------------------------

// Predict-like payloads: model, config(s), launch knobs, target deployment.
template <class V, class P>
  requires std::is_same_v<P, PredictPayload> || std::is_same_v<P, WhatIfOomPayload> ||
           std::is_same_v<P, BatchPredictPayload>
void Fields(V& v, P& payload) {
  constexpr Presence kOpt = Presence::kOptional;
  v("model", payload.model);
  if constexpr (std::is_same_v<P, BatchPredictPayload>) {
    v("configs", payload.configs);
  } else {
    v("config", payload.config);
  }
  v("deduplicate_workers", payload.deduplicate_workers, kOpt);
  v("selective_launch", payload.selective_launch, kOpt);
  v("virtual_folds", payload.virtual_folds, kOpt);
  v("deployment", payload.deployment, Presence::kOmitEmpty);
}

template <class V>
void Fields(V& v, SearchPayload& payload) {
  v("model", payload.model);
  v("search", payload.search, Presence::kOptional);
  v("global_batch", payload.global_batch, Presence::kOptional);
  v("deployment", payload.deployment, Presence::kOmitEmpty);
}

template <class V>
void Fields(V& v, TracePredictPayload& payload) {
  v.Raw("trace", payload.trace, SerializeJobTrace, ParseJobTrace);
  v("deployment", payload.deployment, Presence::kOmitEmpty);
}

template <class V>
void Fields(V& v, CancelPayload& payload) {
  v("target_id", payload.target_id);
}

template <class V>
void Fields(V& v, AddDeploymentPayload& payload) {
  v("name", payload.name);
  v("cluster", payload.cluster);
  v("sweep", payload.sweep, Presence::kOptional);
  v("bundle_dir", payload.bundle_dir, Presence::kOmitEmpty);
}

template <class V>
void Fields(V& v, RemoveDeploymentPayload& payload) {
  v("name", payload.name);
}

// stats, metrics, dump_trace and health carry no payload fields.
template <class V, class P>
  requires std::is_empty_v<P>
void Fields(V&, P&) {}

template <class V>
void Fields(V& v, ServiceRequest& request) {
  v("id", request.id);
  ServiceRequestKind kind = request.kind();
  v.Enum("kind", kind, ServiceRequestKindName, kRequestKinds);
  if (kind != request.kind()) {
    request.payload = PayloadOfKind(kind);  // reading: the kind picks the payload
  }
  v("deadline_ms", request.deadline_ms, Presence::kOmitEmpty);
  std::visit([&v](auto& payload) { Fields(v, payload); }, request.payload);
}

// ---- Responses ----------------------------------------------------------------

template <class V>
void Fields(V& v, StageTimings& timings) {
  v("emulation", timings.emulation_ms);
  v("collation", timings.collation_ms);
  v("estimation", timings.estimation_ms);
  v("simulation", timings.simulation_ms);
}

template <class V>
void Fields(V& v, EstimationStats& stats) {
  v("kernel_ops", stats.kernel_ops);
  v("unique_kernels", stats.unique_kernels);
  v("collective_ops", stats.collective_ops);
  v("unique_collectives", stats.unique_collectives);
  v("cache_hits", stats.cache_hits);
  v("cache_misses", stats.cache_misses);
  v.WriteOnly("hit_rate", stats.hit_rate());
}

template <class V>
void Fields(V& v, SimulationStats& stats) {
  v("workers", stats.workers);
  v("folded_workers", stats.folded_workers);
  v("components", stats.components);
  v("replicated_components", stats.replicated_components);
  v("simulated_components", stats.simulated_components);
  v("cache_hits", stats.cache_hits);
  v("cache_misses", stats.cache_misses);
  v.WriteOnly("hit_rate", stats.hit_rate());
}

// One prediction outcome: the body of a predict-like response and of every
// batch_predict item.
template <class V>
void Fields(V& v, PredictResult& result) {
  v("oom", result.oom);
  if (result.oom) {
    v("oom_detail", result.oom_detail);
  } else {
    v.Bits("iteration_time_us", result.iteration_time_us, kWithApprox);
    v.Bits("mfu", result.mfu, kWithApprox);
    v("peak_memory_bytes", result.peak_memory_bytes);
  }
  v.Flatten("_ms", result.timings);
  v("estimation", result.estimation);
  v("simulation", result.simulation, Presence::kOptional);
  v("trace_cache_hit", result.trace_cache_hit, Presence::kOptional);
}

template <class V>
void Fields(V& v, ShardedCacheStats& stats) {
  v("hits", stats.hits);
  v("misses", stats.misses);
  v("insertions", stats.insertions);
  v("evictions", stats.evictions);
  v("entries", stats.entries);
}

template <class V>
void Fields(V& v, DeploymentStats& deployment) {
  v("name", deployment.name);
  v("derived", deployment.derived);
  v("timed_requests", deployment.timed_requests);
  // Optional for compatibility with pre-governance servers.
  v("cancelled", deployment.cancelled, Presence::kOptional);
  v("deadline_expired", deployment.deadline_expired, Presence::kOptional);
  v("stage_totals_ms", deployment.stage_totals);
  v("kernel_cache", deployment.kernel_cache);
  v("collective_cache", deployment.collective_cache);
  v("trace_cache", deployment.trace_cache);
  v("sim_cache", deployment.sim_cache);
}

template <class V>
void Fields(V& v, LatencyPercentiles& percentiles) {
  v("count", percentiles.count);
  v("p50_us", percentiles.p50_us);
  v("p95_us", percentiles.p95_us);
  v("p99_us", percentiles.p99_us);
}

template <class V>
void Fields(V& v, KindLatencyStats& latency) {
  v("kind", latency.kind);
  v("queue_wait_us", latency.queue_wait);
  v("latency_us", latency.latency);
}

// Keys added after the first stats format are optional, so older servers'
// answers still parse.
template <class V>
void Fields(V& v, ServiceStats& stats) {
  constexpr Presence kOpt = Presence::kOptional;
  v("submitted", stats.submitted);
  v("completed", stats.completed);
  v("rejected", stats.rejected);
  v("cancelled", stats.cancelled);
  v("deadline_expired", stats.deadline_expired);
  v("queue_depth", stats.queue_depth);
  v("queued_weight", stats.queued_weight, kOpt);
  v("max_queue_weight", stats.max_queue_weight, kOpt);
  v("deployments", stats.deployments, kOpt);
  v("registered_deployments", stats.registered_deployments, kOpt);
  v("derived_deployments", stats.derived_deployments, kOpt);
  v("timed_requests", stats.timed_requests, kOpt);
  v("stage_totals_ms", stats.stage_totals, kOpt);
  v("kernel_cache", stats.kernel_cache);
  v("collective_cache", stats.collective_cache);
  v("trace_cache", stats.trace_cache);
  v("sim_cache", stats.sim_cache, kOpt);
  v("per_deployment", stats.per_deployment, kOpt);
  v("latency", stats.latency, kOpt);
}

template <class V>
void Fields(V& v, MetricBucket& bucket) {
  v("le", bucket.le);
  v("count", bucket.count);
}

// A series' keys depend on its family's type.
template <class V>
void SeriesFields(V& v, MetricSeries& series, MetricType type) {
  v("labels", series.labels, Presence::kOmitEmpty);
  if (type == MetricType::kHistogram) {
    v("count", series.count);
    v("sum_us", series.sum_us);
    v("p50_us", series.p50_us);
    v("p95_us", series.p95_us);
    v("p99_us", series.p99_us);
    v("buckets", series.buckets);
  } else {
    v("value", series.value);
  }
}

template <class V>
void Fields(V& v, MetricFamily& family) {
  v("name", family.name);
  v.Enum("type", family.type, MetricTypeName, kMetricTypes);
  v("help", family.help, Presence::kOmitEmpty);
  v.Array("series", family.series,
          [&family](V& sv, MetricSeries& series) { SeriesFields(sv, series, family.type); });
}

template <class V>
void Fields(V& v, HealthStatus& health) {
  constexpr Presence kOpt = Presence::kOptional;
  v("live", health.live);
  v("ready", health.ready);
  v("draining", health.draining);
  v("journal_enabled", health.journal_enabled, kOpt);
  v("journal_appends", health.journal_appends, kOpt);
  v("journal_lag", health.journal_lag, kOpt);
  v("journal_append_failures", health.journal_append_failures, kOpt);
  v("checkpoints", health.checkpoints, kOpt);
  v("last_checkpoint_age_s", health.last_checkpoint_age_s, kOpt);
  v("replayed_records", health.replayed_records, kOpt);
  v("torn_records_dropped", health.torn_records_dropped, kOpt);
  v("queue_depth", health.queue_depth, kOpt);
}

template <class V>
void Fields(V& v, ServiceResponse& response) {
  v("id", response.id);
  v.Enum("kind", response.kind, ServiceRequestKindName, kRequestKinds);
  v("ok", response.ok);
  if (!response.ok) {
    v("error", response.error);
    v("error_code", response.error_code);
    return;
  }
  switch (response.kind) {
    case ServiceRequestKind::kPredict:
    case ServiceRequestKind::kWhatIfOom:
    case ServiceRequestKind::kTracePredict:
      Fields(v, static_cast<PredictResult&>(response));
      break;
    case ServiceRequestKind::kBatchPredict:
      v("items", response.batch);
      break;
    case ServiceRequestKind::kSearch:
      v("found", response.found);
      if (response.found) {
        v("best_config", response.best_config);
        v.Bits("best_mfu", response.best_mfu, kWithApprox);
        v.Bits("best_iteration_us", response.best_iteration_us);
      }
      v("samples", response.samples);
      v("executed", response.executed);
      v("cached", response.cached);
      v("skipped", response.skipped);
      v("oom_trials", response.search_oom);
      // Summed per-trial stage timings (SearchOutcome::stage_totals).
      v.Flatten("_ms", response.timings, Presence::kOptional);
      v("estimation", response.estimation);
      v("simulation", response.simulation, Presence::kOptional);
      break;
    case ServiceRequestKind::kStats:
      Fields(v, response.stats);
      break;
    case ServiceRequestKind::kCancel:
      v("cancel_found", response.cancel_found);
      break;
    case ServiceRequestKind::kMetrics:
      v("families", response.metrics);
      break;
    case ServiceRequestKind::kDumpTrace:
      v("trace_events", response.trace_events);
      v("trace_path", response.trace_path, Presence::kOmitEmpty);
      v("trace_json", response.trace_json, Presence::kOmitEmpty);
      break;
    case ServiceRequestKind::kAddDeployment:
      v("deployment", response.deployment);
      v("trained", response.trained);
      v("warmed_entries", response.warmed_entries);
      break;
    case ServiceRequestKind::kRemoveDeployment:
      v("deployment", response.deployment);
      v("removed", response.removed);
      break;
    case ServiceRequestKind::kHealth:
      Fields(v, response.health);
      break;
  }
}

// ---- Entry points -------------------------------------------------------------

const char* ServiceRequestKindName(ServiceRequestKind kind) {
  switch (kind) {
    case ServiceRequestKind::kPredict:
      return "predict";
    case ServiceRequestKind::kBatchPredict:
      return "batch_predict";
    case ServiceRequestKind::kSearch:
      return "search";
    case ServiceRequestKind::kWhatIfOom:
      return "whatif_oom";
    case ServiceRequestKind::kTracePredict:
      return "trace_predict";
    case ServiceRequestKind::kStats:
      return "stats";
    case ServiceRequestKind::kCancel:
      return "cancel";
    case ServiceRequestKind::kMetrics:
      return "metrics";
    case ServiceRequestKind::kDumpTrace:
      return "dump_trace";
    case ServiceRequestKind::kAddDeployment:
      return "add_deployment";
    case ServiceRequestKind::kRemoveDeployment:
      return "remove_deployment";
    case ServiceRequestKind::kHealth:
      return "health";
  }
  return "unknown";
}

std::string SerializeServiceRequest(const ServiceRequest& request) {
  return WriteJsonFields(request);
}

Result<ServiceRequest> ParseServiceRequest(const std::string& line) {
  MAYA_ASSIGN_OR_RETURN(JsonValue root, ParseJson(line));
  MAYA_ASSIGN_OR_RETURN(root, UpgradeWhatIfCluster(std::move(root)));
  return ReadJsonFields<ServiceRequest>(root);
}

std::string SerializeServiceResponse(const ServiceResponse& response) {
  return WriteJsonFields(response);
}

Result<ServiceResponse> ParseServiceResponse(const std::string& line) {
  MAYA_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(line));
  return ReadJsonFields<ServiceResponse>(root);
}

ServiceResponse ParseFailureResponse(const std::string& line, const Status& status) {
  ServiceResponse error;
  error.ok = false;
  error.error_code = kErrInvalidRequest;
  error.error = status.ToString();
  // Echo the id/kind when the line is at least well-formed JSON, so a
  // pipelining client can match the failure to its request. Separate
  // readers: a bad id must not hide a good kind.
  if (Result<JsonValue> root = ParseJson(line); root.ok()) {
    JsonFieldReader{*root}("id", error.id, Presence::kOptional);
    JsonFieldReader{*root}.Enum("kind", error.kind, ServiceRequestKindName, kRequestKinds,
                                Presence::kOptional);
  }
  return error;
}

}  // namespace maya

#include "perfbench/reference.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "src/common/hash.h"
#include "src/common/json_writer.h"
#include "src/dlf/worker_launcher.h"
#include "src/trace/collator.h"

namespace perfbench {
namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

maya::ClusterSpec ClusterFor(const std::string& deployment) {
  return *maya::ClusterSpecByName(deployment.empty() ? "h100x8" : deployment);
}

}  // namespace

int SpanLog::Begin(const char* name, uint64_t trace, int parent) {
  spans_.push_back({name, trace, parent, NowUs(), 0.0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int index) { spans_[static_cast<size_t>(index)].end_us = NowUs(); }

std::string SpanLog::ChromeTraceJson() const {
  maya::JsonWriter w;
  w.BeginObject();
  w.KeyedBeginArray("traceEvents");
  for (const Span& span : spans_) {
    w.BeginObject();
    w.Field("name", std::string_view(span.name));
    w.Field("ph", std::string_view("X"));
    w.Field("ts", span.start_us);
    w.Field("dur", span.duration_us());
    w.Field("pid", int64_t{1});
    w.Field("tid", int64_t{1});
    w.KeyedBeginObject("args");
    w.Field("trace", span.trace);
    w.Field("parent", static_cast<int64_t>(span.parent));
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

maya::EstimatorBank TrainServerBank() {
  const maya::ClusterSpec cluster = ClusterFor("");
  const maya::GroundTruthExecutor profiling_hardware(cluster, kProfilingSeed);
  return maya::TrainEstimators(cluster, profiling_hardware,
                               *maya::ProfileSweepPreset(kSweepPreset), kTrainingSeed);
}

Pipelines::Pipelines(const maya::EstimatorBank& bank) {
  for (const std::string deployment : {"", "h100x16"}) {
    pipelines_[deployment] = std::make_unique<maya::MayaPipeline>(
        ClusterFor(deployment), bank.kernel.get(), bank.collective.get());
  }
}

const maya::MayaPipeline& Pipelines::For(const std::string& deployment) const {
  return *pipelines_.at(deployment);
}

maya::Result<StageOutcome> DecomposedPredict(const maya::MayaPipeline& pipeline,
                                             const PredictInput& input, SpanLog* spans,
                                             uint64_t trace) {
  StageOutcome outcome;
  SpanScope root(spans, "predict", trace, -1);
  outcome.span = root.index();

  maya::LaunchOptions launch;
  launch.min_parallel_ranks = pipeline.options().min_parallel_emulation_ranks;
  maya::Result<maya::LaunchResult> launched = [&] {
    SpanScope span(spans, "emulate", trace, root.index());
    return maya::EmulateJob(input.model, input.config, pipeline.cluster(), launch);
  }();
  if (!launched.ok()) {
    return launched.status();
  }
  for (const maya::WorkerTrace& worker : launched->traces) {
    outcome.ops += worker.ops.size();
  }
  if (launched->oom) {
    outcome.oom = true;
    return outcome;
  }

  maya::CollationOptions collation;
  maya::TraceCollator collator(collation);
  maya::Result<maya::JobTrace> job = [&] {
    SpanScope span(spans, "collate", trace, root.index());
    return collator.Collate(std::move(launched->traces), std::move(launched->resolved_comms));
  }();
  if (!job.ok()) {
    return job.status();
  }
  outcome.collation = collator.stats();

  {
    SpanScope span(spans, "estimate", trace, root.index());
    outcome.estimation = pipeline.AnnotateDurations(*job, nullptr);
  }

  maya::Result<maya::SimReport> sim = [&] {
    SpanScope span(spans, "simulate", trace, root.index());
    return pipeline.Simulate(*job, /*deduplicate_replicas=*/true);
  }();
  if (!sim.ok()) {
    return sim.status();
  }
  outcome.events = sim->events_processed;
  outcome.simulation = sim->stats;
  outcome.iteration_time_us = sim->total_time_us;
  outcome.mfu = maya::ComputeMfu(input.model, input.config.global_batch_size, pipeline.cluster(),
                                 outcome.iteration_time_us);
  return outcome;
}

maya::Result<maya::PredictionReport> PipelinePredict(const maya::MayaPipeline& pipeline,
                                                     const PredictInput& input) {
  maya::PredictionRequest request;
  request.model = input.model;
  request.config = input.config;
  return pipeline.Predict(request);
}

std::optional<double> GroundTruthIterationUs(const PredictInput& input) {
  const maya::ClusterSpec cluster = ClusterFor(input.deployment);
  // Per-config measurement noise, as separate runs on a real cluster would see.
  const maya::GroundTruthExecutor executor(cluster, maya::FnvHash(input.config.CacheKey()));
  maya::LaunchOptions launch;
  launch.selective_launch = true;  // bit-identical traces, fewer ranks emulated
  maya::Result<maya::LaunchResult> launched =
      maya::EmulateJob(input.model, input.config, cluster, launch);
  if (!launched.ok() || launched->oom) {
    return std::nullopt;
  }
  maya::TraceCollator collator;
  maya::Result<maya::JobTrace> job = collator.Collate(std::move(launched->traces));
  if (!job.ok()) {
    return std::nullopt;
  }
  maya::Result<maya::SimReport> report = executor.Execute(*job);
  if (!report.ok()) {
    return std::nullopt;
  }
  return report->total_time_us;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool SameSearch(const maya::ServiceResponse& answer, const maya::SearchOutcome& outcome) {
  return answer.found == outcome.found &&
         answer.best_config.CacheKey() == outcome.best_config.CacheKey() &&
         SameBits(answer.best_mfu, outcome.best_mfu) && answer.samples == outcome.samples &&
         answer.executed == outcome.executed;
}

}  // namespace perfbench

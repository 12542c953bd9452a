// The traced run. The same generated inputs go through each layer's public
// calls in-process, with a span around each call, and the service-side
// layers are read off a TCP phase against the real server:
//   net       FrameDecoder::Consume per request frame
//   service   ParseServiceRequest / SerializeServiceResponse per line, the
//             server's queue wait, round trip outside stages
//   pipeline  MayaPipeline::Predict, untraced
//   emulate / collate / estimate / simulate
//             EmulateJob, TraceCollator::Collate,
//             MayaPipeline::AnnotateDurations, MayaPipeline::Simulate
//   estimator TrainEstimators
//   search    RunSearch
// Self-time shares are taken against the untraced Predict time of the same
// inputs, replayed on a second pipeline set with identical cache history.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>

#include "perfbench/bench.h"
#include "perfbench/reference.h"
#include "src/common/stats.h"
#include "src/models/model_zoo.h"
#include "src/net/frame_decoder.h"
#include "src/search/config_space.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kRepeatReplay = 240;
constexpr size_t kSearchTrialReplay = 60;
constexpr size_t kSearchReplay = 4;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

// Per-request self times of one traced decomposed predict.
struct StageTimes {
  double emulate_us = 0.0;
  double collate_us = 0.0;
  double estimate_us = 0.0;
  double simulate_us = 0.0;
  double root_self_us = 0.0;
  double traced_us = 0.0;
};

StageTimes TimesOf(const SpanLog& spans, int root) {
  StageTimes times;
  const SpanLog::Span& parent = spans.spans()[static_cast<size_t>(root)];
  times.traced_us = parent.duration_us();
  double children = 0.0;
  for (size_t i = static_cast<size_t>(root) + 1; i < spans.spans().size(); ++i) {
    const SpanLog::Span& span = spans.spans()[i];
    if (span.parent != root) {
      continue;
    }
    const std::string name = span.name;
    double* slot = name == "emulate"    ? &times.emulate_us
                   : name == "collate"  ? &times.collate_us
                   : name == "estimate" ? &times.estimate_us
                                        : &times.simulate_us;
    *slot += span.duration_us();
    children += span.duration_us();
  }
  times.root_self_us = times.traced_us - children;
  return times;
}

void AddTiming(RunResult* result, const std::string& name, const std::vector<double>& us,
               double mean_predict_us) {
  result->Add(name + "_p50_us", maya::Percentile(us, 50), "us");
  result->Add(name + "_p99_us", maya::Percentile(us, 99), "us");
  result->Add(name + "_share", maya::Mean(us) / mean_predict_us, "ratio");
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

const std::string& RequestLine(const Workload& workload, size_t index) {
  return workload.kind == WorkloadKind::kSearch ? workload.search_lines[index]
                                                : workload.item_lines[index];
}

}  // namespace

RunResult RunTraced(const Workload& workload, const RunOptions& options) {
  RunResult result;
  const bool search = workload.kind == WorkloadKind::kSearch;

  // Service-side layers, read off the real server under the same traffic.
  const TcpPhase phase = RunTcpPhase(workload, options, /*starts=*/1);
  if (!phase.ok) {
    result.Fail(phase.error);
    return result;
  }
  const Answers answers = ParseAnswers(phase, &result);
  result.attempted = phase.exchanges.size();
  result.failed = answers.failed;
  std::vector<double> outside_us;
  for (size_t i : answers.ok) {
    outside_us.push_back(phase.exchanges[i].rtt_us -
                         1000.0 * answers.responses[i].timings.total_ms());
  }
  double queue_wait_p99_us = 0.0;
  for (const maya::KindLatencyStats& kind : phase.stats.latency) {
    if (kind.kind == (search ? "search" : "predict")) {
      queue_wait_p99_us = kind.queue_wait.p99_us;
    }
  }

  SpanLog spans;
  // Codec layers over every exchange of the TCP phase: the request line as
  // sent and the answer as received; both must round-trip byte for byte.
  std::vector<double> decode_us, parse_us, serialize_us;
  for (size_t i = 0; i < phase.exchanges.size(); ++i) {
    const Exchange& exchange = phase.exchanges[i];
    const std::string& line = RequestLine(workload, exchange.index);
    const std::string framed = line + "\n";
    const uint64_t trace = 1'000'000 + i;
    maya::FrameDecoder decoder;
    std::vector<maya::FrameEvent> frames;
    {
      SpanScope span(&spans, "net.decode", trace, -1);
      frames = decoder.Consume(framed);
    }
    decode_us.push_back(spans.spans().back().duration_us());
    maya::Result<maya::ServiceRequest> request = maya::Status::Internal("not run");
    {
      SpanScope span(&spans, "service.parse", trace, -1);
      request = maya::ParseServiceRequest(line);
    }
    parse_us.push_back(spans.spans().back().duration_us());
    std::string answer;
    {
      SpanScope span(&spans, "service.serialize", trace, -1);
      answer = maya::SerializeServiceResponse(answers.responses[i]);
    }
    serialize_us.push_back(spans.spans().back().duration_us());
    if (frames.size() != 1 || frames[0].line != line || !request.ok() ||
        maya::SerializeServiceRequest(*request) != line || answer != exchange.answer) {
      result.Fail("codec round trip differs for request line " + line);
    }
  }

  const Clock::time_point train_start = Clock::now();
  const maya::EstimatorBank bank = TrainServerBank();
  const double train_s = MicrosSince(train_start) / 1e6;
  const Pipelines untraced(bank);
  const Pipelines traced(bank);

  // Warm both pipeline sets identically, then replay a fixed prefix of the
  // stream: untraced Predict on one set, traced stages on the other, in
  // alternating order so neither side always runs with warmer CPU caches.
  for (size_t index : workload.warmup) {
    const PredictInput& input = workload.items[index];
    PipelinePredict(untraced.For(input.deployment), input);
    DecomposedPredict(traced.For(input.deployment), input, nullptr, 0);
  }
  size_t replay = options.replay;
  if (replay == 0) {
    replay = search ? kSearchTrialReplay : kRepeatReplay;
  }
  replay = std::min(replay, workload.stream.size());
  std::vector<double> predict_us;
  std::vector<StageTimes> stage_times;
  uint64_t ops = 0, events = 0, total_workers = 0, unique_workers = 0;
  uint64_t estimate_hits = 0, estimate_keys = 0, sim_hits = 0, sim_keys = 0;
  std::map<size_t, StageOutcome> replayed;
  for (size_t r = 0; r < replay; ++r) {
    const size_t index = workload.stream[r];
    const PredictInput& input = workload.items[index];
    maya::Result<maya::PredictionReport> report = maya::Status::Internal("not run");
    maya::Result<StageOutcome> stages = maya::Status::Internal("not run");
    double untraced_us = 0.0;
    const auto run_untraced = [&] {
      const Clock::time_point start = Clock::now();
      report = PipelinePredict(untraced.For(input.deployment), input);
      untraced_us = MicrosSince(start);
    };
    const auto run_traced = [&] {
      stages = DecomposedPredict(traced.For(input.deployment), input, &spans, r + 1);
    };
    if (r % 2 == 0) {
      run_untraced();
      run_traced();
    } else {
      run_traced();
      run_untraced();
    }
    if (!report.ok() || !stages.ok() || !SamePrediction(*report, *stages)) {
      result.Fail("decomposed stages differ from Predict for " + InputKey(input));
      continue;
    }
    predict_us.push_back(untraced_us);
    stage_times.push_back(TimesOf(spans, stages->span));
    ops += stages->ops;
    events += stages->events;
    total_workers += static_cast<uint64_t>(stages->collation.total_workers);
    unique_workers += static_cast<uint64_t>(stages->collation.unique_workers);
    estimate_hits += stages->estimation.cache_hits;
    estimate_keys += stages->estimation.cache_hits + stages->estimation.cache_misses;
    sim_hits += stages->simulation.cache_hits;
    sim_keys += stages->simulation.cache_hits + stages->simulation.cache_misses;
    replayed.emplace(index, *stages);
  }
  if (predict_us.empty()) {
    result.Fail("nothing was replayed in-process");
    return result;
  }

  // Served answers for replayed inputs must match the traced stages.
  if (!search) {
    for (size_t i : answers.ok) {
      auto it = replayed.find(phase.exchanges[i].index);
      if (it != replayed.end() && !SamePrediction(answers.responses[i], it->second)) {
        result.Fail("served answer differs from the traced stages for " +
                    InputKey(workload.items[phase.exchanges[i].index]));
      }
    }
  }

  // Search layer: the first searches of the workload, in-process.
  std::vector<double> trial_ms;
  uint64_t executed = 0, samples = 0;
  if (search) {
    const size_t searches =
        std::min(options.searches == 0 ? kSearchReplay : options.searches,
                 workload.searches.size());
    for (size_t s = 0; s < searches; ++s) {
      const size_t index = workload.search_order[s];
      const SearchInput& input = workload.searches[index];
      maya::Result<maya::SearchOutcome> outcome = maya::Status::Internal("not run");
      {
        SpanScope span(&spans, "search", 2'000'000 + index, -1);
        outcome = maya::RunSearch(
            untraced.For(input.deployment), input.model,
            maya::ConfigSpace::MegatronTable5(maya::DefaultGlobalBatch(input.model)),
            input.options);
      }
      const double wall_ms = spans.spans().back().duration_us() / 1000.0;
      if (!outcome.ok()) {
        result.Fail("in-process search failed: " + outcome.status().ToString());
        continue;
      }
      executed += static_cast<uint64_t>(outcome->executed);
      samples += static_cast<uint64_t>(outcome->samples);
      trial_ms.push_back(Ratio(wall_ms, outcome->executed));
      for (size_t i : answers.ok) {
        if (phase.exchanges[i].index == index && !SameSearch(answers.responses[i], *outcome)) {
          result.Fail("search answer differs from in-process RunSearch for search " +
                      std::to_string(index));
        }
      }
    }
  }

  const double mean_predict_us = maya::Mean(predict_us);
  const auto column = [&](double StageTimes::*field) {
    std::vector<double> values;
    for (const StageTimes& times : stage_times) {
      values.push_back(times.*field);
    }
    return values;
  };
  const std::vector<double> traced_us = column(&StageTimes::traced_us);

  AddTiming(&result, "net.decode", decode_us, mean_predict_us);
  AddTiming(&result, "service.parse", parse_us, mean_predict_us);
  AddTiming(&result, "service.serialize", serialize_us, mean_predict_us);
  result.Add("service.outside_stages_p50_us", maya::Percentile(outside_us, 50), "us");
  result.Add("service.outside_stages_p99_us", maya::Percentile(outside_us, 99), "us");
  result.Add("service.queue_wait_p99_us", queue_wait_p99_us, "us");
  result.Add("pipeline.predict_p50_us", maya::Percentile(predict_us, 50), "us");
  result.Add("pipeline.predict_p99_us", maya::Percentile(predict_us, 99), "us");
  result.Add("pipeline.self_share", maya::Mean(column(&StageTimes::root_self_us)) / mean_predict_us,
             "ratio");
  AddTiming(&result, "emulate.stage", column(&StageTimes::emulate_us), mean_predict_us);
  result.Add("emulate.ops", static_cast<double>(ops), "count");
  AddTiming(&result, "collate.stage", column(&StageTimes::collate_us), mean_predict_us);
  result.Add("collate.unique_worker_ratio", Ratio(unique_workers, total_workers), "ratio");
  AddTiming(&result, "estimate.stage", column(&StageTimes::estimate_us), mean_predict_us);
  result.Add("estimate.hit_ratio", Ratio(estimate_hits, estimate_keys), "ratio");
  result.Add("estimator.train_s", train_s, "s");
  AddTiming(&result, "simulate.stage", column(&StageTimes::simulate_us), mean_predict_us);
  result.Add("simulate.hit_ratio", Ratio(sim_hits, sim_keys), "ratio");
  result.Add("simulate.events", static_cast<double>(events), "count");
  result.Add("search.trial_p50_ms", trial_ms.empty() ? 0.0 : maya::Percentile(trial_ms, 50), "ms");
  result.Add("search.executed", static_cast<double>(executed), "count");
  result.Add("search.executed_ratio", Ratio(executed, samples), "ratio");
  result.Add("trace.overhead_pct", 100.0 * (maya::Mean(traced_us) / mean_predict_us - 1.0), "%");
  result.Add("client.cpu_share", phase.client_cpu_s / phase.wall_s, "ratio");

  std::fprintf(stderr,
               "perfbench: %s seed %llu traced: %zu predicts replayed, untraced predict mean "
               "%.1f us; shares of it: emulate %.1f%%, collate %.1f%%, estimate %.1f%%, "
               "simulate %.1f%%, predict self %.1f%%; tracing overhead %.2f%%\n",
               workload.name.c_str(), static_cast<unsigned long long>(workload.seed),
               predict_us.size(), mean_predict_us,
               100.0 * maya::Mean(column(&StageTimes::emulate_us)) / mean_predict_us,
               100.0 * maya::Mean(column(&StageTimes::collate_us)) / mean_predict_us,
               100.0 * maya::Mean(column(&StageTimes::estimate_us)) / mean_predict_us,
               100.0 * maya::Mean(column(&StageTimes::simulate_us)) / mean_predict_us,
               100.0 * maya::Mean(column(&StageTimes::root_self_us)) / mean_predict_us,
               100.0 * (maya::Mean(traced_us) / mean_predict_us - 1.0));
  if (!options.spans_out.empty()) {
    std::ofstream(options.spans_out) << spans.ChromeTraceJson();
  }
  return result;
}

}  // namespace perfbench

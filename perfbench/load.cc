// The untraced end-to-end run: maya_serve as a child process, driven over
// loopback TCP by one generator thread in a closed loop, every answer
// checked against the in-process decomposed stages afterwards.
#include <poll.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/reference.h"
#include "perfbench/server.h"
#include "src/common/stats.h"
#include "src/models/model_zoo.h"
#include "src/search/config_space.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// An answer that takes longer than this means the server is stuck.
constexpr double kAnswerTimeoutS = 120.0;
// Prediction error is the median over this many non-OOM configs of the
// workload's fixed accuracy sample.
constexpr size_t kAccuracyConfigs = 16;
constexpr size_t kPredictCheckStride = 4;
// Threads for the reference computations after the timed phase.
constexpr int kReferenceThreads = 4;
// Cold starts per run; setup_s is their median.
constexpr int kColdStarts = 5;
// Connections of the closed loop, each with one request in flight, and
// maya_serve's worker threads, one per connection. The host's speed swings
// by up to 2x per core, independently across cores, over tens of seconds;
// two requests running on two cores average that out better than one.
constexpr int kConnections = 2;
constexpr int kServerWorkers = kConnections;

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Blocks until `connection` has produced at least `want` lines in total.
bool AwaitLines(LineConnection& connection, size_t want, std::vector<std::string>* lines) {
  const Clock::time_point start = Clock::now();
  while (lines->size() < want) {
    pollfd pfd{connection.fd(), POLLIN, 0};
    if (poll(&pfd, 1, 100) > 0 && !connection.ReadLines(lines)) {
      return lines->size() >= want;
    }
    if (std::chrono::duration<double>(Clock::now() - start).count() > kAnswerTimeoutS) {
      return false;
    }
  }
  return true;
}

std::string StatsLine() {
  maya::ServiceRequest request;
  request.payload = maya::StatsPayload{};
  return maya::SerializeServiceRequest(request) + "\n";
}

// The request stream of a timed phase: predicts follow Workload::stream,
// searches Workload::search_order.
class RequestSource {
 public:
  explicit RequestSource(const Workload& workload) : workload_(workload) {
    const std::vector<std::string>& lines =
        workload.kind == WorkloadKind::kSearch ? workload.search_lines : workload.item_lines;
    for (const std::string& line : lines) {
      framed_.push_back(line + "\n");
    }
  }

  // Next request's index and framed line; the predict stream wraps around,
  // and false once the search set is exhausted.
  bool Next(size_t* index, const std::string** line) {
    const bool search = workload_.kind == WorkloadKind::kSearch;
    const std::vector<size_t>& order = search ? workload_.search_order : workload_.stream;
    if (position_ == order.size()) {
      if (search) {
        return false;
      }
      position_ = 0;
    }
    *index = order[position_++];
    *line = &framed_[*index];
    return true;
  }

  const std::string& Framed(size_t index) const { return framed_[index]; }

 private:
  const Workload& workload_;
  std::vector<std::string> framed_;
  size_t position_ = 0;
};

// One request in flight on each connection until the deadline (or the end of
// a finite stream). With `to_end`, the deadline is ignored and the whole
// stream is sent.
bool ClosedLoop(const std::vector<std::unique_ptr<LineConnection>>& conns,
                Clock::time_point deadline, bool to_end, RequestSource& source,
                TcpPhase* phase) {
  struct InFlight {
    bool busy = false;
    size_t index = 0;
    Clock::time_point sent;
  };
  std::vector<InFlight> flight(conns.size());
  // Sends the next request on connection c, if the run is not over.
  const auto send_next = [&](size_t c) {
    size_t index = 0;
    const std::string* line = nullptr;
    if ((!to_end && Clock::now() >= deadline) || !source.Next(&index, &line)) {
      return true;
    }
    flight[c] = {true, index, Clock::now()};
    return conns[c]->SendAll(*line);
  };
  for (size_t c = 0; c < conns.size(); ++c) {
    if (!send_next(c)) {
      return false;
    }
  }
  std::vector<pollfd> fds;
  std::vector<size_t> polled;
  std::vector<std::string> lines;
  while (true) {
    fds.clear();
    polled.clear();
    for (size_t c = 0; c < conns.size(); ++c) {
      if (flight[c].busy) {
        fds.push_back({conns[c]->fd(), POLLIN, 0});
        polled.push_back(c);
      }
    }
    if (fds.empty()) {
      return true;
    }
    poll(fds.data(), fds.size(), 100);
    for (size_t f = 0; f < fds.size(); ++f) {
      const size_t c = polled[f];
      if (fds[f].revents != 0) {
        lines.clear();
        const bool open = conns[c]->ReadLines(&lines);
        if (!lines.empty()) {
          const Clock::time_point now = Clock::now();
          phase->exchanges.push_back(
              {flight[c].index, MicrosBetween(flight[c].sent, now), std::move(lines[0])});
          flight[c].busy = false;
          if (!send_next(c)) {
            return false;
          }
          continue;
        }
        if (!open) {
          return false;
        }
      }
      if (MicrosBetween(flight[c].sent, Clock::now()) / 1e6 > kAnswerTimeoutS) {
        return false;
      }
    }
  }
}

// Runs fn(i) for i in [0, n) on kReferenceThreads threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kReferenceThreads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) {
        fn(i);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
}

std::optional<double> ActualError(const Pipelines& pipelines, const PredictInput& input) {
  const std::optional<double> actual = GroundTruthIterationUs(input);
  if (!actual.has_value() || *actual <= 0.0) {
    return std::nullopt;
  }
  maya::Result<maya::PredictionReport> predicted =
      PipelinePredict(pipelines.For(input.deployment), input);
  if (!predicted.ok() || predicted->oom) {
    return std::nullopt;
  }
  return 100.0 * std::fabs(predicted->iteration_time_us - *actual) / *actual;
}

// Median |predicted - actual| / actual over the workload's fixed sample,
// against the in-repo ground-truth executor. Outside the timed phase.
double PredictionErrorP50(const Workload& workload, const Pipelines& pipelines,
                          RunResult* result) {
  std::vector<std::optional<double>> errors(workload.accuracy_sample.size());
  ParallelFor(errors.size(), [&](size_t i) {
    errors[i] = ActualError(pipelines, workload.accuracy_sample[i]);
  });
  std::vector<double> kept;
  for (const std::optional<double>& error : errors) {
    if (error.has_value() && kept.size() < kAccuracyConfigs) {
      kept.push_back(*error);
    }
  }
  if (kept.size() < kAccuracyConfigs) {
    result->Fail("accuracy sample has too few configs that fit in memory");
  }
  return maya::Median(kept);
}

// The distinct request indices among the ok answers, in first-answered
// order; `slot_of` maps each index to its position.
std::vector<size_t> DistinctOkIndices(const TcpPhase& phase, const Answers& answers,
                                      std::map<size_t, size_t>* slot_of) {
  std::vector<size_t> indices;
  for (size_t i : answers.ok) {
    if (slot_of->emplace(phase.exchanges[i].index, indices.size()).second) {
      indices.push_back(phase.exchanges[i].index);
    }
  }
  return indices;
}

// Each ok predict answer must carry the decomposed-stage result for its
// input bit for bit, and the decomposed stages must equal Predict's (checked
// on every kPredictCheckStride-th input here; the traced run checks every
// input it replays).
void CheckPredictAnswers(const Workload& workload, const TcpPhase& phase, const Answers& answers,
                         const Pipelines& pipelines, RunResult* result) {
  std::map<size_t, size_t> slot_of;
  const std::vector<size_t> items = DistinctOkIndices(phase, answers, &slot_of);
  std::vector<maya::Result<StageOutcome>> reference(items.size(),
                                                    maya::Status::Internal("not run"));
  std::vector<std::string> mismatch(items.size());
  ParallelFor(items.size(), [&](size_t slot) {
    const PredictInput& input = workload.items[items[slot]];
    const maya::MayaPipeline& pipeline = pipelines.For(input.deployment);
    reference[slot] = DecomposedPredict(pipeline, input, nullptr, 0);
    if (!reference[slot].ok()) {
      mismatch[slot] = "in-process stages failed";
      return;
    }
    if (slot % kPredictCheckStride != 0) {
      return;
    }
    maya::Result<maya::PredictionReport> predicted = PipelinePredict(pipeline, input);
    if (!predicted.ok()) {
      mismatch[slot] = "in-process predict failed";
    } else if (!SamePrediction(*reference[slot], *predicted)) {
      mismatch[slot] = "decomposed stages differ from Predict";
    }
  });
  for (size_t slot = 0; slot < items.size(); ++slot) {
    if (!mismatch[slot].empty()) {
      result->Fail(mismatch[slot] + " for " + InputKey(workload.items[items[slot]]));
    }
  }
  for (size_t i : answers.ok) {
    const size_t slot = slot_of.at(phase.exchanges[i].index);
    if (!reference[slot].ok()) {
      continue;
    }
    if (!SamePrediction(answers.responses[i], *reference[slot])) {
      result->Fail("served answer differs from the in-process stages for " +
                   InputKey(workload.items[items[slot]]));
    }
  }
}

// Each ok search answer must equal an in-process RunSearch with the same
// options on the same bank.
void CheckSearchAnswers(const Workload& workload, const TcpPhase& phase, const Answers& answers,
                        const Pipelines& pipelines, RunResult* result) {
  std::map<size_t, size_t> slot_of;
  const std::vector<size_t> searches = DistinctOkIndices(phase, answers, &slot_of);
  std::vector<maya::Result<maya::SearchOutcome>> reference(searches.size(),
                                                           maya::Status::Internal("not run"));
  ParallelFor(searches.size(), [&](size_t slot) {
    const SearchInput& search = workload.searches[searches[slot]];
    reference[slot] = maya::RunSearch(
        pipelines.For(search.deployment), search.model,
        maya::ConfigSpace::MegatronTable5(maya::DefaultGlobalBatch(search.model)),
        search.options);
  });
  for (size_t i : answers.ok) {
    const size_t slot = slot_of.at(phase.exchanges[i].index);
    if (!reference[slot].ok() || !SameSearch(answers.responses[i], *reference[slot])) {
      result->Fail("search answer differs from in-process RunSearch for search " +
                   std::to_string(searches[slot]));
    }
  }
}

}  // namespace

void RunResult::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  correct = false;
}

TcpPhase RunTcpPhase(const Workload& workload, const RunOptions& options, int starts) {
  TcpPhase phase;
  const std::vector<std::string> args = {
      "--listen=127.0.0.1:0", std::string("--workers=") + std::to_string(kServerWorkers),
      std::string("--sweep=") + kSweepPreset};
  auto server = std::make_unique<ServerProcess>();
  for (int s = 0; s < starts; ++s) {
    if (s > 0) {
      if (!server->Stop()) {
        phase.error = "maya_serve did not exit cleanly on SIGTERM";
        return phase;
      }
      server = std::make_unique<ServerProcess>();
    }
    double setup_s = 0.0;
    if (!server->Start(options.serve_binary, args, &setup_s, &phase.error)) {
      return phase;
    }
    phase.setup_s.push_back(setup_s);
  }

  std::vector<std::unique_ptr<LineConnection>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<LineConnection>());
    if (!conns.back()->Connect(server->port())) {
      phase.error = "cannot connect to maya_serve";
      return phase;
    }
  }
  LineConnection& conn = *conns.front();
  RequestSource source(workload);
  std::vector<std::string> warm;
  for (size_t index : workload.warmup) {
    if (!conn.SendAll(source.Framed(index)) || !AwaitLines(conn, warm.size() + 1, &warm)) {
      phase.error = "warm-up request got no answer";
      return phase;
    }
  }

  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  const bool driven =
      ClosedLoop(conns, deadline, workload.kind == WorkloadKind::kSearch, source, &phase);
  phase.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  phase.client_cpu_s = CpuSeconds() - cpu_start;
  if (!driven) {
    phase.error = "connection failed or an answer timed out during the timed phase";
    return phase;
  }

  std::vector<std::string> stats;
  if (!conn.SendAll(StatsLine()) || !AwaitLines(conn, 1, &stats)) {
    phase.error = "stats request got no answer";
    return phase;
  }
  maya::Result<maya::ServiceResponse> parsed = maya::ParseServiceResponse(stats[0]);
  if (!parsed.ok() || !parsed->ok) {
    phase.error = "stats answer is not ok";
    return phase;
  }
  phase.stats = parsed->stats;
  phase.peak_rss_mb = server->PeakRssMb();
  conns.clear();
  if (!server->Stop()) {
    phase.error = "maya_serve did not exit cleanly on SIGTERM";
    return phase;
  }
  phase.ok = true;
  return phase;
}

Answers ParseAnswers(const TcpPhase& phase, RunResult* result) {
  Answers answers;
  for (size_t i = 0; i < phase.exchanges.size(); ++i) {
    const Exchange& exchange = phase.exchanges[i];
    maya::Result<maya::ServiceResponse> parsed = maya::ParseServiceResponse(exchange.answer);
    answers.responses.push_back(parsed.ok() ? *parsed : maya::ServiceResponse{});
    if (!parsed.ok() || parsed->id != exchange.index) {
      ++answers.failed;
      result->Fail("answer does not parse or names another request: " + exchange.answer);
    } else if (parsed->ok) {
      answers.ok.push_back(i);
    } else {
      ++answers.failed;
      result->Fail("request failed: " + exchange.answer);
    }
  }
  return answers;
}

RunResult RunEndToEnd(const Workload& workload, const RunOptions& options) {
  RunResult result;
  // Several cold starts so setup_s is a median, not one sample.
  const TcpPhase phase = RunTcpPhase(workload, options, kColdStarts);
  if (!phase.ok) {
    result.Fail(phase.error);
    return result;
  }
  const Answers answers = ParseAnswers(phase, &result);
  result.attempted = phase.exchanges.size();
  result.failed = answers.failed;
  if (answers.ok.empty()) {
    result.Fail("no request was answered ok");
    return result;
  }

  const maya::EstimatorBank bank = TrainServerBank();
  const Pipelines pipelines(bank);
  const bool search = workload.kind == WorkloadKind::kSearch;
  if (search) {
    CheckSearchAnswers(workload, phase, answers, pipelines, &result);
  } else {
    CheckPredictAnswers(workload, phase, answers, pipelines, &result);
  }

  // Every figure is over the whole timed phase: the host's speed swings by up
  // to 2x over stretches of tens of seconds, and the whole-run median and
  // rate average those out better than medians of shorter windows do.
  std::vector<double> latencies_ms;
  double configs = 0.0;
  for (size_t i : answers.ok) {
    latencies_ms.push_back(phase.exchanges[i].rtt_us / 1000.0);
    configs += search ? answers.responses[i].executed : 1;
  }

  result.Add("setup_s", maya::Median(phase.setup_s), "s");
  result.Add("latency_p50_ms", maya::Percentile(latencies_ms, 50), "ms");
  result.Add("latency_tail_ms", maya::Percentile(latencies_ms, workload.tail_percentile), "ms");
  result.Add("configs_per_s", configs / phase.wall_s, "1/s");
  result.Add("ok_frac",
             static_cast<double>(answers.ok.size()) / static_cast<double>(result.attempted),
             "ratio");
  result.Add("peak_rss_mb", phase.peak_rss_mb, "MB");
  result.Add("pred_err_p50_pct",
             PredictionErrorP50(workload, pipelines, &result), "%");

  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu attempted, %zu ok, %llu failed over "
               "%.2f s; generator cpu %.2f s (%.1f%% of wall)\n",
               workload.name.c_str(), static_cast<unsigned long long>(workload.seed),
               phase.exchanges.size(), answers.ok.size(),
               static_cast<unsigned long long>(answers.failed), phase.wall_s,
               phase.client_cpu_s, 100.0 * phase.client_cpu_s / phase.wall_s);
  return result;
}

}  // namespace perfbench

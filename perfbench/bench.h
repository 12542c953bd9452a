// Shared pieces of the benchmark's two runs: the untraced end-to-end run
// over TCP (load.cc) and the traced in-process run (traced.cc).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/service/protocol.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_binary;  // maya_serve built from this checkout
  std::string spans_out;     // traced run: Chrome trace JSON destination
  // Traced run: predicts and searches replayed in-process (0 = defaults).
  size_t replay = 0;
  size_t searches = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a correctness failure (printed to stderr) and clears `correct`.
  void Fail(const std::string& why);
};

// One timed request and its answer.
struct Exchange {
  size_t index = 0;  // into Workload::items (predicts) or ::searches
  double rtt_us = 0.0;
  std::string answer;
};

// The timed phase over TCP against a freshly cold-started maya_serve.
struct TcpPhase {
  bool ok = false;
  std::string error;
  std::vector<double> setup_s;  // one per cold start
  std::vector<Exchange> exchanges;
  double wall_s = 0.0;
  double client_cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  maya::ServiceStats stats;  // `stats` answer after the timed phase
};

// Cold-starts the server `starts` times (keeping the last), warms the hot
// set, then drives the workload's closed loop for `seconds`.
TcpPhase RunTcpPhase(const Workload& workload, const RunOptions& options, int starts);

// Parsed answers of a TCP phase. An error answer, or one that does not
// parse, is a failure.
struct Answers {
  std::vector<maya::ServiceResponse> responses;  // parallel to exchanges
  std::vector<size_t> ok;                        // indices of ok answers
  uint64_t failed = 0;
};
Answers ParseAnswers(const TcpPhase& phase, RunResult* result);

RunResult RunEndToEnd(const Workload& workload, const RunOptions& options);
RunResult RunTraced(const Workload& workload, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

// perfbench: Maya's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --serve PATH [--spans_out FILE] [--replay N] [--searches N]
//
// --trace 0 cold-starts maya_serve (PATH) and drives the workload over
// loopback TCP for S seconds, untraced, then checks every answer in-process
// and prints the end-to-end metrics. --trace 1 drives the same traffic, then
// replays the same inputs through each layer's public calls with spans and
// prints the per-layer metrics. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// perfbench/run.py builds this binary and maya_serve, then runs it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/bench.h"

namespace {

std::string FormatResult(const perfbench::RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& metric = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    out += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve PATH [--spans_out FILE] [--replay N] [--searches N]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--serve") {
      options.serve_binary = value;
    } else if (flag == "--spans_out") {
      options.spans_out = value;
    } else if (flag == "--replay") {
      options.replay = std::strtoull(value, nullptr, 10);
    } else if (flag == "--searches") {
      options.searches = std::strtoull(value, nullptr, 10);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) {
    return Usage("every flag takes a value");
  }
  if (options.serve_binary.empty() || options.seconds <= 0.0) {
    return Usage("--serve and a positive --seconds are required");
  }
  perfbench::Workload workload;
  if (!perfbench::MakeWorkload(options.workload, options.seed, options.seconds, &workload)) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  const perfbench::RunResult result = options.trace
                                          ? perfbench::RunTraced(workload, options)
                                          : perfbench::RunEndToEnd(workload, options);
  std::printf("%s\n", FormatResult(result).c_str());
  return result.correct ? 0 : 1;
}

// Seeded workload generation for the end-to-end benchmark.
//
// A workload is fully determined by (name, seed): the distinct inputs it
// uses, the order they are requested in, and every request line serialized
// in advance. Only those lines ever reach the server, so the load generator
// spends no time in the codec while it is timing.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/dlf/model_config.h"
#include "src/dlf/train_config.h"
#include "src/search/search_driver.h"

namespace perfbench {

enum class WorkloadKind { kPredictRepeat, kSearch };

// One (model, config, deployment) prediction. `deployment` empty = the
// server's default h100x8 deployment; otherwise a derived what-if cluster.
struct PredictInput {
  maya::ModelConfig model;
  maya::TrainConfig config;
  std::string deployment;
};

struct SearchInput {
  maya::ModelConfig model;
  maya::SearchOptions options;
  std::string deployment;
};

struct Workload {
  WorkloadKind kind = WorkloadKind::kPredictRepeat;
  std::string name;
  uint64_t seed = 0;

  // Distinct predict inputs and their request lines: the hot set, or
  // (search) the trial population the traced run replays. A line's id is the item index, so
  // every answer names its input.
  std::vector<PredictInput> items;
  std::vector<std::string> item_lines;
  // Untimed first pass over the hot set (fills the estimate and sim caches).
  std::vector<size_t> warmup;
  // Request order as indices into `items`; predict-repeat wraps around when
  // a run outlasts it.
  std::vector<size_t> stream;
  // Percentile reported as latency_tail_ms: one with more than ten answers
  // beyond it in a 40-second run (p99 of ~7000 predicts, p90 of 180
  // searches).
  double tail_percentile = 99.0;

  // search: distinct searches (the line id is the index) and the order the
  // timed phase issues them in, once each.
  std::vector<SearchInput> searches;
  std::vector<std::string> search_lines;
  std::vector<size_t> search_order;

  // Fixed, seed-independent prediction-error sample drawn from the
  // workload's own population.
  std::vector<PredictInput> accuracy_sample;
};

// Builds the named workload for `seed`; `seconds` sizes the search set.
// Returns false for an unknown name or when the program can no longer
// produce the workload's inputs.
bool MakeWorkload(const std::string& name, uint64_t seed, double seconds, Workload* out);

// Canonical identity of a predict input (model name + config key + cluster).
std::string InputKey(const PredictInput& input);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

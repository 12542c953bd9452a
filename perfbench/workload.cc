#include "perfbench/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

#include "src/common/rng.h"
#include "src/dlf/worker_launcher.h"
#include "src/hw/cluster_spec.h"
#include "src/models/model_zoo.h"
#include "src/search/config_space.h"
#include "src/service/protocol.h"

namespace perfbench {
namespace {

using maya::ModelConfig;
using maya::TrainConfig;

// The derived what-if cluster every non-default input targets.
constexpr const char* kWideCluster = "h100x16";

// Seeds of the hot set and of the prediction-error samples: fixed, so the
// work and the accuracy figure compare exactly across runs and commits.
constexpr uint64_t kHotSetSeed = 0x407;
constexpr uint64_t kAccuracySeed = 0xacc0;
constexpr size_t kAccuracyCandidates = 32;

// Hot-set popularity: Zipf over the slot rank, slot 0 hottest.
constexpr double kZipfExponent = 1.0;
constexpr size_t kStreamLength = 1 << 16;
// search: a fixed set of requests, each with its own search seed. A search's
// cost swings several-fold with its seed (CMA-ES wanders into cheap or dear
// regions), so every run issues the same set, in an order drawn from the
// workload seed, and the timed phase ends when the set is done. The set is
// sized from --seconds at about this many searches per second over two
// connections on a 4-core box, so a slow stretch of the host lengthens the
// run instead of changing which searches it measures.
constexpr double kSearchesPerSecond = 4.5;
constexpr size_t kMinSearches = 4;
constexpr int kSearchBudget = 32;
// A 40-second run answers 180 searches: the 90th percentile has more than
// ten beyond it.
constexpr double kSearchTailPercentile = 90.0;

maya::ClusterSpec ClusterFor(const std::string& deployment) {
  return *maya::ClusterSpecByName(deployment.empty() ? "h100x8" : deployment);
}

// The hot set: one config per slot. A predict's cost is set mostly by the
// model, the parallel layout, the microbatch multiplier and recomputation,
// so each slot fixes those (TP 2, PP 2, no interleaving) and kHotSetSeed
// picks the remaining knobs. Slot 0 is the hottest and sits mid-cost, with
// cheaper and dearer slots alternating down the ranks, so the median request
// falls inside slot 0 rather than on a boundary between two costs.
constexpr int kHotTensorParallel = 2;
constexpr int kHotPipelineParallel = 2;

struct HotSlot {
  ModelConfig (*model)();
  int microbatch_multiplier;
  bool recompute;
};

const std::vector<HotSlot>& HotSlots() {
  static const std::vector<HotSlot> slots = {
      {maya::Gpt2_Medium, 4, false},  // mid
      {maya::Bert_Large, 2, false},   {maya::Bert_Large, 4, true},   {maya::T5_Large, 2, true},
      {maya::ViT_Large, 1, true},     {maya::T5_Large, 1, false},    {maya::ViT_Large, 8, false},
      {maya::Gpt2_Medium, 8, true},   {maya::Gpt2_Medium, 1, true},  {maya::Bert_Large, 1, false},
      {maya::Bert_Large, 8, false},   {maya::T5_Large, 4, false},    {maya::ViT_Large, 2, false},
      {maya::T5_Large, 1, true},      {maya::ViT_Large, 4, true},    {maya::T5_Large, 8, true},
  };
  return slots;
}

std::vector<ModelConfig> SearchModels() { return {maya::Gpt3_1_3B(), maya::Bert_Large()}; }

// Every valid Table-5 config of `model` on `deployment`.
std::vector<PredictInput> ValidInputs(const ModelConfig& model, const std::string& deployment) {
  const maya::ClusterSpec cluster = ClusterFor(deployment);
  const maya::ConfigSpace space =
      maya::ConfigSpace::MegatronTable5(maya::DefaultGlobalBatch(model));
  std::vector<PredictInput> inputs;
  for (size_t i = 0; i < space.size(); ++i) {
    TrainConfig config = space.At(i);
    if (config.Validate(model, cluster).ok()) {
      inputs.push_back({model, config, deployment});
    }
  }
  return inputs;
}

// True when emulation alone already answers OOM (the config does not fit).
bool EmulatesOom(const PredictInput& input) {
  maya::Result<maya::LaunchResult> launched =
      maya::EmulateJob(input.model, input.config, ClusterFor(input.deployment));
  return !launched.ok() || launched->oom;
}

// One config per hot slot, drawn among the slot's valid configs that fit in
// memory.
std::vector<PredictInput> BuildHotSet() {
  maya::Rng rng(kHotSetSeed);
  std::vector<PredictInput> hot;
  for (const HotSlot& slot : HotSlots()) {
    std::vector<PredictInput> candidates;
    for (PredictInput& input : ValidInputs(slot.model(), "")) {
      if (input.config.tensor_parallel == kHotTensorParallel &&
          input.config.pipeline_parallel == kHotPipelineParallel &&
          input.config.virtual_pipeline_stages == 1 &&
          input.config.microbatch_multiplier == slot.microbatch_multiplier &&
          input.config.activation_recomputation == slot.recompute) {
        candidates.push_back(std::move(input));
      }
    }
    rng.Shuffle(candidates);
    for (PredictInput& candidate : candidates) {
      if (!EmulatesOom(candidate)) {
        hot.push_back(std::move(candidate));
        break;
      }
    }
  }
  return hot;
}

std::vector<PredictInput> SearchPopulation() {
  std::vector<PredictInput> population;
  for (const ModelConfig& model : SearchModels()) {
    for (PredictInput& input : ValidInputs(model, kWideCluster)) {
      population.push_back(std::move(input));
    }
  }
  return population;
}

std::vector<PredictInput> FixedSample(std::vector<PredictInput> population) {
  maya::Rng rng(kAccuracySeed);
  rng.Shuffle(population);
  if (population.size() > kAccuracyCandidates) {
    population.resize(kAccuracyCandidates);
  }
  return population;
}

std::vector<size_t> ZipfStream(size_t items, uint64_t seed) {
  std::vector<double> cumulative(items);
  double total = 0.0;
  for (size_t r = 0; r < items; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cumulative[r] = total;
  }
  maya::Rng rng(maya::SplitMix64(seed ^ 0x5eed));
  std::vector<size_t> stream(kStreamLength);
  for (size_t& index : stream) {
    const double u = rng.NextDouble() * total;
    size_t r = 0;
    while (r + 1 < items && cumulative[r] <= u) {
      ++r;
    }
    index = r;
  }
  return stream;
}

std::string PredictLine(uint64_t id, const PredictInput& input) {
  maya::ServiceRequest request;
  request.id = id;
  maya::PredictPayload payload;
  payload.model = input.model;
  payload.config = input.config;
  payload.deployment = input.deployment;
  request.payload = std::move(payload);
  return maya::SerializeServiceRequest(request);
}

}  // namespace

std::string InputKey(const PredictInput& input) {
  return input.model.name + "|" + input.config.CacheKey() + "|" +
         (input.deployment.empty() ? "h100x8" : input.deployment);
}

bool MakeWorkload(const std::string& name, uint64_t seed, double seconds, Workload* out) {
  Workload workload;
  workload.name = name;
  workload.seed = seed;
  if (name == "predict-repeat") {
    workload.kind = WorkloadKind::kPredictRepeat;
    // The hot set is the same on every seed: its hottest config is the
    // median request, so a seeded hot set would move the median by itself.
    // The seed draws the request sequence.
    workload.items = BuildHotSet();
    if (workload.items.size() != HotSlots().size()) {
      std::fprintf(stderr, "perfbench: a hot-set slot has no config that fits in memory\n");
      return false;
    }
    for (size_t i = 0; i < workload.items.size(); ++i) {
      workload.warmup.push_back(i);
    }
    workload.stream = ZipfStream(workload.items.size(), seed);
    workload.accuracy_sample = workload.items;
  } else if (name == "search") {
    workload.kind = WorkloadKind::kSearch;
    const std::vector<ModelConfig> models = SearchModels();
    const size_t requests =
        std::max(kMinSearches, static_cast<size_t>(std::lround(seconds * kSearchesPerSecond)));
    for (size_t i = 0; i < requests; ++i) {
      SearchInput search;
      search.model = models[i % models.size()];
      search.options.algorithm = "cma";
      search.options.sample_budget = kSearchBudget;
      search.options.early_stop_patience = 0;
      search.options.seed = i + 1;
      search.deployment = kWideCluster;
      maya::ServiceRequest request;
      request.id = i;
      maya::SearchPayload payload;
      payload.model = search.model;
      payload.search = search.options;
      payload.deployment = search.deployment;
      request.payload = std::move(payload);
      workload.search_lines.push_back(maya::SerializeServiceRequest(request));
      workload.searches.push_back(std::move(search));
      workload.search_order.push_back(i);
    }
    maya::Rng order(seed);
    order.Shuffle(workload.search_order);
    workload.tail_percentile = kSearchTailPercentile;
    workload.accuracy_sample = FixedSample(SearchPopulation());
    // The search workload's per-stage attribution replays a seeded sample of
    // the trial population through the decomposed stages.
    workload.items = SearchPopulation();
    maya::Rng rng(seed);
    rng.Shuffle(workload.items);
    for (size_t i = 0; i < workload.items.size(); ++i) {
      workload.stream.push_back(i);
    }
  } else {
    return false;
  }
  for (size_t i = 0; i < workload.items.size(); ++i) {
    workload.item_lines.push_back(PredictLine(i, workload.items[i]));
  }
  *out = std::move(workload);
  return true;
}

}  // namespace perfbench

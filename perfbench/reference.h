// The in-process side of the benchmark: the server's estimator bank rebuilt
// with the same preset and seeds, a Predict decomposed into its four public
// stage calls with a span around each, and the ground-truth reference the
// prediction-error metric is measured against.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/core/estimator_bank.h"
#include "src/core/pipeline.h"
#include "src/service/protocol.h"

namespace perfbench {

// The cold-start flags the benchmark gives maya_serve; TrainServerBank()
// trains with the same preset and the seeds maya_serve hard-codes.
inline constexpr const char* kSweepPreset = "small";
inline constexpr uint64_t kProfilingSeed = 0x9f0f;
inline constexpr uint64_t kTrainingSeed = 404;

// Spans recorded by the benchmark around its calls into each layer. Kept in
// memory; written out as Chrome trace-event JSON when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t trace;  // one id per replayed request
    int parent;      // index into spans(), -1 for a root
    double start_us;
    double end_us;
    double duration_us() const { return end_us - start_us; }
  };

  int Begin(const char* name, uint64_t trace, int parent);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }
  std::string ChromeTraceJson() const;

 private:
  std::vector<Span> spans_;
};

// RAII span; a null log records nothing.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, uint64_t trace, int parent)
      : log_(log), index_(log == nullptr ? -1 : log->Begin(name, trace, parent)) {}
  ~SpanScope() {
    if (log_ != nullptr) {
      log_->End(index_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

// Result of one predict run through the four stages by hand.
struct StageOutcome {
  bool oom = false;
  double iteration_time_us = 0.0;
  double mfu = 0.0;
  uint64_t ops = 0;       // trace ops recorded by emulation, all workers
  uint64_t events = 0;    // simulator events processed
  maya::CollationStats collation;
  maya::EstimationStats estimation;
  maya::SimulationStats simulation;
  int span = -1;          // the root "predict" span, when traced
};

// The h100x8 bank maya_serve trains at cold start (TrainEstimators with the
// same preset and seeds).
maya::EstimatorBank TrainServerBank();

// One pipeline per deployment the workloads target, all borrowing one bank,
// with maya_serve's pipeline options (no stage pool).
class Pipelines {
 public:
  explicit Pipelines(const maya::EstimatorBank& bank);
  const maya::MayaPipeline& For(const std::string& deployment) const;

 private:
  std::map<std::string, std::unique_ptr<maya::MayaPipeline>> pipelines_;
};

// EmulateJob -> Collate -> AnnotateDurations -> Simulate, exactly as
// MayaPipeline::Predict sequences them, with a span around each call.
maya::Result<StageOutcome> DecomposedPredict(const maya::MayaPipeline& pipeline,
                                             const PredictInput& input, SpanLog* spans,
                                             uint64_t trace);

maya::Result<maya::PredictionReport> PipelinePredict(const maya::MayaPipeline& pipeline,
                                                     const PredictInput& input);

// Iteration time measured by the in-repo ground-truth executor (a detailed
// model with contention, not hardware); nullopt when the config is OOM.
std::optional<double> GroundTruthIterationUs(const PredictInput& input);

// Bitwise equality of two doubles (the wire carries IEEE-754 bit patterns).
bool SameBits(double a, double b);

// Same OOM verdict and bit-identical iteration time and MFU, for any pair of
// PredictionReport, StageOutcome and ServiceResponse.
template <typename A, typename B>
bool SamePrediction(const A& a, const B& b) {
  return a.oom == b.oom && SameBits(a.iteration_time_us, b.iteration_time_us) &&
         SameBits(a.mfu, b.mfu);
}

// A served search answer equals an in-process RunSearch outcome.
bool SameSearch(const maya::ServiceResponse& answer, const maya::SearchOutcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_

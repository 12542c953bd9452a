// JSON serialization of traces — the on-disk interchange format between the
// emulator and the downstream pipeline stages (the paper's emulator emits
// JSON event traces, Fig. 3). Trace doubles travel as decimal numbers; the
// bit-exact hex form belongs to the estimator artifacts.
#ifndef SRC_TRACE_SERIALIZATION_H_
#define SRC_TRACE_SERIALIZATION_H_

#include <array>
#include <string>

#include "src/common/json_parser.h"
#include "src/common/status.h"
#include "src/trace/collator.h"
#include "src/trace/trace.h"

namespace maya {

// The serialized enum vocabulary: every value that travels by name (see
// TraceOpTypeName / KernelKindName / DTypeName / CollectiveKindName).
inline constexpr TraceOpType kTraceOpTypes[] = {
    TraceOpType::kKernelLaunch,      TraceOpType::kCollective,
    TraceOpType::kEventRecord,       TraceOpType::kStreamWaitEvent,
    TraceOpType::kEventSynchronize,  TraceOpType::kStreamSynchronize,
    TraceOpType::kDeviceSynchronize, TraceOpType::kMalloc,
    TraceOpType::kFree,
};
inline constexpr auto kKernelKinds = [] {
  std::array<KernelKind, static_cast<size_t>(KernelKind::kNumKinds)> kinds{};
  for (size_t i = 0; i < kinds.size(); ++i) {
    kinds[i] = static_cast<KernelKind>(i);
  }
  return kinds;
}();
inline constexpr DType kDTypes[] = {DType::kFp32,  DType::kFp16,  DType::kBf16, DType::kFp64,
                                    DType::kInt64, DType::kInt32, DType::kInt8, DType::kUint8};
inline constexpr CollectiveKind kCollectiveKinds[] = {
    CollectiveKind::kAllReduce, CollectiveKind::kAllGather, CollectiveKind::kReduceScatter,
    CollectiveKind::kBroadcast, CollectiveKind::kReduce,    CollectiveKind::kAllToAll,
    CollectiveKind::kSend,      CollectiveKind::kRecv,
};

std::string SerializeWorkerTrace(const WorkerTrace& worker);
std::string SerializeJobTrace(const JobTrace& job);

// Parses the output of SerializeWorkerTrace. Missing required keys, wrong
// types, out-of-range integers and unknown enum names are errors; keys the
// format does not define are ignored.
Result<WorkerTrace> ParseWorkerTrace(const std::string& json);

// Parses the output of SerializeJobTrace — the payload format the prediction
// service accepts for pre-collated traces — and validates it as the
// simulator needs it (fold sets, comm membership, one join per collective).
// Fold sets may also arrive in the legacy per-rank `folded_ranks` form. The
// JsonValue overload parses a job trace embedded in a larger request message.
Result<JobTrace> ParseJobTrace(const std::string& json);
Result<JobTrace> ParseJobTrace(const JsonValue& value);

}  // namespace maya

#endif  // SRC_TRACE_SERIALIZATION_H_

#include "src/trace/trace.h"

#include <algorithm>
#include <bit>

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace maya {
namespace {

// Appends a dense-table payload, returning its index.
template <class T>
uint32_t AppendEntry(std::vector<T>& table, const T& entry) {
  table.push_back(entry);
  return static_cast<uint32_t>(table.size() - 1);
}

}  // namespace

const char* TraceOpTypeName(TraceOpType type) {
  switch (type) {
    case TraceOpType::kKernelLaunch:
      return "kernel_launch";
    case TraceOpType::kCollective:
      return "collective";
    case TraceOpType::kEventRecord:
      return "cudaEventRecord";
    case TraceOpType::kStreamWaitEvent:
      return "cudaStreamWaitEvent";
    case TraceOpType::kEventSynchronize:
      return "cudaEventSynchronize";
    case TraceOpType::kStreamSynchronize:
      return "cudaStreamSynchronize";
    case TraceOpType::kDeviceSynchronize:
      return "cudaDeviceSynchronize";
    case TraceOpType::kMalloc:
      return "cudaMalloc";
    case TraceOpType::kFree:
      return "cudaFree";
  }
  return "unknown";
}

uint32_t KernelTable::Intern(const KernelDesc& kernel) {
  if ((descs_.size() + 1) * 2 > slots_.size()) {
    Rehash(std::max<size_t>(16, slots_.size() * 2));
  }
  const uint64_t signature = kernel.Hash();
  const size_t mask = slots_.size() - 1;
  for (size_t slot = signature & mask;; slot = (slot + 1) & mask) {
    const uint32_t entry = slots_[slot];
    if (entry == 0) {
      slots_[slot] = static_cast<uint32_t>(descs_.size() + 1);
      descs_.push_back(kernel);
      signatures_.push_back(signature);
      return static_cast<uint32_t>(descs_.size() - 1);
    }
    if (signatures_[entry - 1] == signature && descs_[entry - 1] == kernel) {
      return entry - 1;
    }
  }
}

void KernelTable::Rehash(size_t slot_count) {
  slots_.assign(slot_count, 0);
  const size_t mask = slot_count - 1;
  for (size_t i = 0; i < descs_.size(); ++i) {
    size_t slot = signatures_[i] & mask;
    while (slots_[slot] != 0) {
      slot = (slot + 1) & mask;
    }
    slots_[slot] = static_cast<uint32_t>(i + 1);
  }
}

void KernelTable::clear() {
  descs_.clear();
  signatures_.clear();
  slots_.clear();
}

TraceOp& WorkerTrace::AddKernel(uint64_t stream, double host_delay_us, const KernelDesc& kernel) {
  return ops.emplace_back(TraceOp{TraceOpType::kKernelLaunch, kernels.Intern(kernel), stream,
                                  host_delay_us, 0.0});
}

TraceOp& WorkerTrace::AddCollective(uint64_t stream, double host_delay_us,
                                    const CollectiveOpInfo& collective) {
  return ops.emplace_back(TraceOp{TraceOpType::kCollective, AppendEntry(collectives, collective),
                                  stream, host_delay_us, 0.0});
}

TraceOp& WorkerTrace::AddEvent(TraceOpType type, uint64_t stream, double host_delay_us,
                               EventOpInfo event) {
  return ops.emplace_back(
      TraceOp{type, AppendEntry(events, event), stream, host_delay_us, 0.0});
}

TraceOp& WorkerTrace::AddMemory(TraceOpType type, uint64_t stream, double host_delay_us,
                                MemoryOpInfo memory) {
  return ops.emplace_back(
      TraceOp{type, AppendEntry(memory_ops, memory), stream, host_delay_us, 0.0});
}

TraceOp& WorkerTrace::AddSync(TraceOpType type, uint64_t stream, double host_delay_us) {
  return ops.emplace_back(TraceOp{type, 0, stream, host_delay_us, 0.0});
}

void WorkerTrace::ClearOps() {
  ops.clear();
  kernels.clear();
  collectives.clear();
  events.clear();
  memory_ops.clear();
}

uint64_t WorkerTrace::StructuralSignature(const TraceOp& op) const {
  // FnvMix steps over precomputed payload words: the rolling fingerprint
  // applies the strong (SplitMix) combine once per op.
  uint64_t h = FnvMix(FnvMix(kFnvOffsetBasis, static_cast<uint64_t>(op.type)), op.stream);
  switch (op.type) {
    case TraceOpType::kKernelLaunch:
      return FnvMix(h, kernels.signature(op.payload));
    case TraceOpType::kCollective: {
      // Deliberately excludes comm_uid (rank-specific: tensor/data-parallel
      // twins join different groups of identical shape) and the global peer
      // rank. For symmetric collectives the rank-in-group is also
      // non-structural — every member performs the same work — which is what
      // lets an 8-way-TP x 8-way-DP job fold to a single worker (§4.2). For
      // point-to-point transfers the role is part of the work.
      const CollectiveOpInfo& info = collective(op);
      h = FnvMix(h, static_cast<uint64_t>(info.kind));
      h = FnvMix(h, info.bytes);
      h = FnvMix(h, static_cast<uint64_t>(info.nranks));
      if (info.kind == CollectiveKind::kSend || info.kind == CollectiveKind::kRecv) {
        h = FnvMix(h, static_cast<uint64_t>(info.rank_in_comm));
      }
      return h;
    }
    case TraceOpType::kEventRecord:
    case TraceOpType::kStreamWaitEvent:
    case TraceOpType::kEventSynchronize: {
      // Event ids are allocated in creation order, so they are structural.
      const EventOpInfo& info = event(op);
      return FnvMix(h, info.event_id | (static_cast<uint64_t>(info.version) << 32));
    }
    case TraceOpType::kStreamSynchronize:
    case TraceOpType::kDeviceSynchronize:
      return h;
    case TraceOpType::kMalloc:
    case TraceOpType::kFree:
      return FnvMix(h, memory(op).bytes);
  }
  return h;
}

uint64_t WorkerTrace::AnnotatedSignature(const TraceOp& op, uint64_t comm_token) const {
  // Branch-light FNV-1a over 64-bit words: this walks every op of every fold
  // candidate on the simulator's hot path, where a full-trace hash costs
  // about as much as the replay itself, so each field is one FnvMix.
  // Payloads of other op kinds hash as the zero words they are absent;
  // `comm_token` stands in for the communicator identity and is 0 for
  // non-collective ops.
  uint64_t event_word = 0;
  uint64_t collective_word = 0;
  switch (op.type) {
    case TraceOpType::kEventRecord:
    case TraceOpType::kStreamWaitEvent:
    case TraceOpType::kEventSynchronize: {
      const EventOpInfo& info = event(op);
      event_word = info.event_id | (static_cast<uint64_t>(info.version) << 32);
      break;
    }
    case TraceOpType::kCollective: {
      const CollectiveOpInfo& info = collective(op);
      collective_word = info.seq | (static_cast<uint64_t>(info.kind) << 32);
      break;
    }
    default:
      break;
  }
  uint64_t h = kFnvOffsetBasis;
  h = FnvMix(h, static_cast<uint64_t>(op.type));
  h = FnvMix(h, op.stream);
  h = FnvMix(h, std::bit_cast<uint64_t>(op.host_delay_us));
  h = FnvMix(h, std::bit_cast<uint64_t>(op.duration_us));
  h = FnvMix(h, event_word);
  h = FnvMix(h, comm_token);
  h = FnvMix(h, collective_word);
  return h;
}

uint64_t WorkerTrace::Fingerprint() const {
  RollingHash hash;
  for (const TraceOp& op : ops) {
    hash.Update(StructuralSignature(op));
  }
  return hash.digest();
}

double WorkerTrace::TotalHostDelayUs() const {
  double total = 0.0;
  for (const TraceOp& op : ops) {
    total += op.host_delay_us;
  }
  return total;
}

size_t WorkerTrace::KernelLaunchCount() const {
  size_t count = 0;
  for (const TraceOp& op : ops) {
    if (op.type == TraceOpType::kKernelLaunch) {
      ++count;
    }
  }
  return count;
}

std::string WorkerTrace::Summary() const {
  return StrFormat("rank %d: %zu ops (%zu kernels, %zu collectives), peak mem %s", rank,
                   ops.size(), KernelLaunchCount(), CollectiveCount(),
                   HumanBytes(static_cast<double>(peak_device_bytes)).c_str());
}

}  // namespace maya

// Execution trace model.
//
// The emulator records one WorkerTrace per (emulated) GPU rank: an ordered
// list of device API operations, each tagged with the measured host-side
// delay since the previous call (§4.2). An op is a fixed 32-byte header
// (type, stream, payload index, host delay, duration); its payload lives in
// a side table of the trace, in the spirit of a typed op enum beside a
// separate argument descriptor. Kernel launches name an entry of the trace's
// interned KernelDesc table, where each distinct kernel is stored once.
// Collectives carry communicator id + sequence number in a dense table, so
// the collator can match them across workers; events and memory ops have
// dense tables of their own.
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cuda/kernel_desc.h"
#include "src/cuda/types.h"
#include "src/hw/network_model.h"
#include "src/trace/rank_set.h"

namespace maya {

enum class TraceOpType : uint8_t {
  kKernelLaunch,
  kCollective,
  kEventRecord,
  kStreamWaitEvent,
  kEventSynchronize,   // host blocks until event completes
  kStreamSynchronize,  // host blocks until stream drains
  kDeviceSynchronize,  // host blocks until all streams drain
  kMalloc,
  kFree,
};

const char* TraceOpTypeName(TraceOpType type);

// Collective operation payload.
struct CollectiveOpInfo {
  CollectiveKind kind = CollectiveKind::kAllReduce;
  uint64_t bytes = 0;       // payload bytes per rank
  uint64_t comm_uid = 0;    // communicator unique id (shared across ranks)
  uint32_t seq = 0;         // per-communicator sequence number on this rank
  int32_t nranks = 0;       // communicator size
  int32_t rank_in_comm = -1;
  int32_t peer = -1;        // global peer rank for send/recv, else -1

  bool operator==(const CollectiveOpInfo&) const = default;
};

// CUDA event payload; `version` disambiguates handle re-use (Appendix A).
struct EventOpInfo {
  uint32_t event_id = 0;
  uint32_t version = 0;

  bool operator==(const EventOpInfo&) const = default;
};

struct MemoryOpInfo {
  uint64_t bytes = 0;
  DevPtr ptr = 0;

  bool operator==(const MemoryOpInfo&) const = default;
};

// One recorded device API call. The payload (kernel, collective, event or
// memory info) is not inline: `payload` indexes the side table of the owning
// WorkerTrace that `type` names, so an op log stays 32 bytes per call.
struct TraceOp {
  TraceOpType type = TraceOpType::kKernelLaunch;
  // Index into WorkerTrace::kernels / collectives / events / memory_ops, by
  // type; 0 and unused for stream/device synchronizations.
  uint32_t payload = 0;
  uint64_t stream = 0;  // 0 == legacy default stream
  // Host wall-clock gap between the previous API call on this worker and
  // this one (dispatch overhead + framework host logic).
  double host_delay_us = 0.0;
  // Predicted (or profiled) device-side duration; 0 until the kernel runtime
  // estimation phase annotates the trace.
  double duration_us = 0.0;

  bool operator==(const TraceOp&) const = default;
};

static_assert(sizeof(TraceOp) <= 32, "TraceOp is the per-call op log entry; keep it compact");

// A trace's distinct kernels in first-launch order. Each KernelDesc is stored
// once beside its signature (KernelDesc::Hash(), computed once, at
// interning), so a launch op carries a 4-byte index and fingerprinting it
// mixes one precomputed word instead of rehashing the desc.
class KernelTable {
 public:
  // Index of `kernel`, appended on first sight.
  uint32_t Intern(const KernelDesc& kernel);

  size_t size() const { return descs_.size(); }
  const KernelDesc& operator[](size_t index) const { return descs_[index]; }
  uint64_t signature(size_t index) const { return signatures_[index]; }
  const std::vector<KernelDesc>& descs() const { return descs_; }
  void clear();

  // The signatures and the lookup index are derived from the descs.
  bool operator==(const KernelTable& other) const { return descs_ == other.descs_; }

 private:
  void Rehash(size_t slot_count);

  std::vector<KernelDesc> descs_;
  std::vector<uint64_t> signatures_;  // parallel to descs_
  // Open-addressing index over descs_ (power-of-two size, linear probing):
  // each slot holds a position in descs_ plus one, 0 when empty.
  std::vector<uint32_t> slots_;
};

// Communicator membership evidence recorded at ncclCommInitRank time.
struct CommInitRecord {
  uint64_t comm_uid = 0;
  int32_t nranks = 0;
  int32_t rank_in_comm = -1;

  bool operator==(const CommInitRecord&) const = default;
};

struct WorkerTrace {
  int rank = -1;
  std::vector<TraceOp> ops;
  // Payload side tables, addressed by TraceOp::payload. Appended only
  // through the Add* calls below (and the trace parser), so every index is
  // in range and the tables follow op order.
  KernelTable kernels;                        // kKernelLaunch: interned
  std::vector<CollectiveOpInfo> collectives;  // kCollective: one per op
  std::vector<EventOpInfo> events;            // event record/wait/sync: one per op
  std::vector<MemoryOpInfo> memory_ops;       // kMalloc / kFree: one per op
  std::vector<CommInitRecord> comm_inits;
  uint64_t peak_device_bytes = 0;
  uint64_t final_device_bytes = 0;
  // True for selective-launch stubs that only ran communicator bootstrap
  // (hyperscale mode, §7.4); such workers have comm_inits but no ops.
  bool comm_init_only = false;
  // For stubs: the global rank of the fully-emulated representative this
  // worker duplicates (supplied by the selective launcher); -1 otherwise.
  int duplicate_of = -1;
  // Virtual folded ranks (hyperscale mode): every global rank this trace
  // stands for, including `rank` itself. Empty means the trace represents
  // only its own rank (the materialized path). Populated by the virtual
  // selective launcher so folded twins are never emulated, never
  // materialized as stubs, and ride through collation/simulation as a
  // multiplicity attached to the representative.
  RankSet represented_ranks;

  // Appends one op with its payload.
  TraceOp& AddKernel(uint64_t stream, double host_delay_us, const KernelDesc& kernel);
  TraceOp& AddCollective(uint64_t stream, double host_delay_us,
                         const CollectiveOpInfo& collective);
  TraceOp& AddEvent(TraceOpType type, uint64_t stream, double host_delay_us, EventOpInfo event);
  TraceOp& AddMemory(TraceOpType type, uint64_t stream, double host_delay_us,
                     MemoryOpInfo memory);
  TraceOp& AddSync(TraceOpType type, uint64_t stream, double host_delay_us);
  // Drops every op and payload (comm-init stubs keep only their bootstrap).
  void ClearOps();

  // The payload of `op`, which must be an op of this trace of the named kind.
  const KernelDesc& kernel(const TraceOp& op) const { return kernels[op.payload]; }
  const CollectiveOpInfo& collective(const TraceOp& op) const { return collectives[op.payload]; }
  const EventOpInfo& event(const TraceOp& op) const { return events[op.payload]; }
  const MemoryOpInfo& memory(const TraceOp& op) const { return memory_ops[op.payload]; }

  // Hashable structural signature of `op`: everything identity-relevant
  // except rank-specific communicator uids and measured times. Two workers
  // whose op signatures match elementwise performed identical work. A kernel
  // launch mixes (type, stream, interned kernel signature).
  uint64_t StructuralSignature(const TraceOp& op) const;

  // Hashable signature over exactly the fields the event-driven simulator
  // reads from an annotated op: type, stream, host delay and annotated
  // duration (bit patterns), event identity, and collective identity. The
  // caller supplies `comm_token` for collective ops — the raw communicator
  // uid when fingerprinting a worker within one job, or a canonical local
  // index when fingerprinting a comm component modulo rank renumbering
  // (§4.3 replica dedup); ignored for every other op type. Payloads an op
  // does not have hash as zeros (these values key the persisted sim cache).
  uint64_t AnnotatedSignature(const TraceOp& op, uint64_t comm_token = 0) const;

  // Rolling structural fingerprint over all ops; equal fingerprints mean
  // (w.h.p.) identical operation sequences — the dedup criterion of §4.2.
  uint64_t Fingerprint() const;

  double TotalHostDelayUs() const;
  size_t KernelLaunchCount() const;
  size_t CollectiveCount() const { return collectives.size(); }
  std::string Summary() const;

  // Exact (bit-level for doubles) equality over every recorded field and
  // payload; the invariant checked by the parallel-vs-sequential emulation
  // tests.
  bool operator==(const WorkerTrace&) const = default;
};

}  // namespace maya

#endif  // SRC_TRACE_TRACE_H_

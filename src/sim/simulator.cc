#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"

namespace maya {
namespace {

// Minimum unique workers before the coarse fold-key scan fans out on the
// borrowed pool; scanning a handful of traces is cheaper than the fan-out.
constexpr size_t kParallelScanMinWorkers = 8;

// Key for (event id, version): versions disambiguate CUDA event handle
// re-use (Appendix A, CudaEventWaitMap).
uint64_t EventKey(uint32_t id, uint32_t version) {
  return (static_cast<uint64_t>(id) << 32) | version;
}

// Key for (communicator uid, sequence number).
struct CollKey {
  uint64_t uid;
  uint32_t seq;
  bool operator==(const CollKey&) const = default;
};

struct CollKeyHash {
  size_t operator()(const CollKey& key) const {
    return static_cast<size_t>(key.uid * 0x9e3779b97f4a7c15ULL ^ key.seq);
  }
};

enum class SimEventType { kHostAdvance, kOpComplete };

struct SimEvent {
  double time = 0.0;
  uint64_t sequence = 0;  // FIFO tie-break for simultaneous events
  SimEventType type = SimEventType::kHostAdvance;
  int worker = -1;  // component-local worker index
  uint64_t stream = 0;
};

struct SimEventLater {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.sequence > b.sequence;
  }
};

// Min-heap over a caller-reserved vector: std::priority_queue cannot reserve
// its backing store, and the event queue is rebuilt for every trial of a
// search, so the regrowth churn is hot (Fig. 13 simulator column).
class SimEventQueue {
 public:
  void Reserve(size_t capacity) { events_.reserve(capacity); }
  bool empty() const { return events_.empty(); }
  void Push(const SimEvent& event) {
    events_.push_back(event);
    std::push_heap(events_.begin(), events_.end(), SimEventLater{});
  }
  SimEvent Pop() {
    std::pop_heap(events_.begin(), events_.end(), SimEventLater{});
    const SimEvent event = events_.back();
    events_.pop_back();
    return event;
  }

 private:
  std::vector<SimEvent> events_;
};

struct QueuedOp {
  size_t op_index;
  double enqueue_time;
};

struct StreamState {
  std::deque<QueuedOp> queue;
  bool busy = false;             // an op is executing / joined a collective
  bool blocked_on_event = false; // head is a waiting kStreamWaitEvent marker
  double ready_time = 0.0;       // completion time of the last finished op
  size_t executing_op = 0;
  double executing_start = 0.0;
};

enum class HostBlock { kNone, kEvent, kStream, kDevice };

struct WorkerState {
  const WorkerTrace* trace = nullptr;
  size_t next_op = 0;
  double host_time = 0.0;
  double host_busy_us = 0.0;
  HostBlock block = HostBlock::kNone;
  uint64_t block_key = 0;  // event key or stream id

  std::unordered_map<uint64_t, StreamState> streams;
  std::unordered_map<uint64_t, double> event_completion;  // EventKey -> time
  // Streams of this worker blocked on a future (event, version) record.
  std::unordered_map<uint64_t, std::vector<uint64_t>> event_stream_waiters;

  // Device-level occupancy accounting.
  int active_collectives = 0;
  double comm_window_start = 0.0;
  double comm_busy_us = 0.0;
  double compute_busy_us = 0.0;
  double exposed_comm_us = 0.0;
  double last_comm_compute_overlap_us = 0.0;
  int active_compute = 0;
  double compute_window_start = 0.0;
  double finish_us = 0.0;
  uint64_t events = 0;  // events processed for this worker
};

struct CollectiveParticipant {
  int worker;
  uint64_t stream;
  double join_time;
};

struct CollectiveWait {
  std::vector<CollectiveParticipant> joined;
};

// A stream still holding work when the event queue drained (deadlock
// diagnostics): the stalled stream of smallest id for its worker.
struct StreamStall {
  uint64_t stream = 0;
  bool blocked_on_event = false;
  size_t queued = 0;
};

// End state of one component replay — positional metrics for the report
// plus the raw material the caller needs to synthesize deadlock diagnostics
// in global worker order (matching the sequential whole-cluster replay).
struct ComponentOutcome {
  std::vector<WorkerSimMetrics> metrics;
  std::vector<size_t> next_op;  // per local worker; == ops.size() when done
  std::vector<std::optional<StreamStall>> stall;
  bool waits_pending = false;

  bool deadlocked(const JobTrace& job, const std::vector<int>& workers) const {
    if (waits_pending) {
      return true;
    }
    for (size_t i = 0; i < workers.size(); ++i) {
      if (next_op[i] < job.workers[static_cast<size_t>(workers[i])].ops.size() ||
          stall[i].has_value()) {
        return true;
      }
    }
    return false;
  }
};

// Replays one worker subset through a private event heap. `expected_joins`
// maps each referenced communicator to its number of distinct representative
// joiners — all of which live in this component by construction, so the map
// is shared read-only across concurrently replayed components.
ComponentOutcome SimulateComponent(const JobTrace& job, const std::vector<int>& worker_indices,
                                   const std::unordered_map<uint64_t, int>& expected_joins,
                                   double dispatch_latency_us,
                                   double compute_contention_factor) {
  const size_t worker_count = worker_indices.size();
  std::vector<WorkerState> workers(worker_count);
  size_t total_ops = 0;
  for (size_t w = 0; w < worker_count; ++w) {
    workers[w].trace = &job.workers[static_cast<size_t>(worker_indices[w])];
    total_ops += workers[w].trace->ops.size();
  }

  // Pre-size the event heap: every op produces at most one completion event,
  // plus host wake-ups (bounded by sync ops) and the initial per-worker kick.
  SimEventQueue event_queue;
  event_queue.Reserve(total_ops / 2 + worker_count + 16);
  uint64_t next_sequence = 0;

  auto push_event = [&](double time, SimEventType type, int worker, uint64_t stream) {
    event_queue.Push(SimEvent{time, next_sequence++, type, worker, stream});
  };

  // NetworkCollectiveWaitMap: participants gathered per (uid, seq).
  std::unordered_map<CollKey, CollectiveWait, CollKeyHash> collective_waits;
  collective_waits.reserve(expected_joins.size() * 2);

  // ---- Device occupancy accounting helpers ---------------------------------

  auto comm_begin = [&](WorkerState& worker, double time) {
    if (worker.active_collectives++ == 0) {
      worker.comm_window_start = time;
    }
  };
  auto comm_end = [&](WorkerState& worker, double time) {
    CHECK_GT(worker.active_collectives, 0);
    if (--worker.active_collectives == 0) {
      const double window = time - worker.comm_window_start;
      worker.comm_busy_us += window;
      worker.exposed_comm_us += std::max(0.0, window - worker.last_comm_compute_overlap_us);
      worker.last_comm_compute_overlap_us = 0.0;
    }
  };
  auto compute_begin = [&](WorkerState& worker, double time) {
    if (worker.active_compute++ == 0) {
      worker.compute_window_start = time;
    }
  };
  auto compute_end = [&](WorkerState& worker, double time) {
    CHECK_GT(worker.active_compute, 0);
    if (--worker.active_compute == 0) {
      const double window = time - worker.compute_window_start;
      worker.compute_busy_us += window;
      if (worker.active_collectives > 0) {
        worker.last_comm_compute_overlap_us += window;
      }
    }
  };

  // ---- Stream engine --------------------------------------------------------

  // Starts ops from the head of a stream until it blocks or empties.
  std::function<void(int, uint64_t, double)> advance_stream;

  // CudaEventWaitMap release path (Appendix A): record the completion, wake
  // blocked streams of this worker, and wake the host if it is inside
  // cudaEventSynchronize on this (event, version).
  auto complete_event_record = [&](WorkerState& worker, int worker_index, uint64_t key,
                                   double time) {
    worker.event_completion[key] = time;
    auto it = worker.event_stream_waiters.find(key);
    if (it != worker.event_stream_waiters.end()) {
      std::vector<uint64_t> blocked = std::move(it->second);
      worker.event_stream_waiters.erase(it);
      for (uint64_t blocked_stream : blocked) {
        StreamState& stream = worker.streams[blocked_stream];
        stream.blocked_on_event = false;
        stream.ready_time = std::max(stream.ready_time, time);
        advance_stream(worker_index, blocked_stream, time);
      }
    }
    if (worker.block == HostBlock::kEvent && worker.block_key == key) {
      push_event(time, SimEventType::kHostAdvance, worker_index, 0);
    }
  };

  advance_stream = [&](int worker_index, uint64_t stream_id, double time) {
    (void)time;  // stream progress is driven by op-local timestamps
    WorkerState& worker = workers[static_cast<size_t>(worker_index)];
    StreamState& stream = worker.streams[stream_id];
    while (!stream.busy && !stream.blocked_on_event && !stream.queue.empty()) {
      const QueuedOp queued = stream.queue.front();
      const WorkerTrace& trace = *worker.trace;
      const TraceOp& op = trace.ops[queued.op_index];
      const double earliest = std::max(
          stream.ready_time, queued.enqueue_time + dispatch_latency_us);
      switch (op.type) {
        case TraceOpType::kEventRecord: {
          // Markers complete instantly once reached in stream order.
          stream.queue.pop_front();
          stream.ready_time = std::max(stream.ready_time, queued.enqueue_time);
          const EventOpInfo& event = trace.event(op);
          complete_event_record(worker, worker_index, EventKey(event.event_id, event.version),
                                stream.ready_time);
          continue;
        }
        case TraceOpType::kStreamWaitEvent: {
          const EventOpInfo& event = trace.event(op);
          if (event.version == 0) {
            stream.queue.pop_front();  // wait on never-recorded event: no-op
            continue;
          }
          const uint64_t key = EventKey(event.event_id, event.version);
          auto completed = worker.event_completion.find(key);
          if (completed != worker.event_completion.end()) {
            stream.ready_time = std::max(stream.ready_time, completed->second);
            stream.queue.pop_front();
            continue;
          }
          stream.blocked_on_event = true;
          worker.event_stream_waiters[key].push_back(stream_id);
          return;
        }
        case TraceOpType::kKernelLaunch: {
          stream.queue.pop_front();
          stream.busy = true;
          stream.executing_op = queued.op_index;
          double duration = op.duration_us;
          if (compute_contention_factor > 1.0 && worker.active_collectives > 0) {
            duration *= compute_contention_factor;
          }
          stream.executing_start = earliest;
          compute_begin(worker, earliest);
          push_event(earliest + duration, SimEventType::kOpComplete, worker_index, stream_id);
          return;
        }
        case TraceOpType::kCollective: {
          stream.queue.pop_front();
          stream.busy = true;
          stream.executing_op = queued.op_index;
          stream.executing_start = earliest;
          comm_begin(worker, earliest);
          const CollectiveOpInfo& collective = trace.collective(op);
          const CollKey key{collective.comm_uid, collective.seq};
          CollectiveWait& wait = collective_waits[key];
          wait.joined.push_back(CollectiveParticipant{worker_index, stream_id, earliest});
          const int expected = expected_joins.at(collective.comm_uid);
          CHECK_LE(static_cast<int>(wait.joined.size()), expected);
          if (static_cast<int>(wait.joined.size()) == expected) {
            // Last worker arrived: release everyone after the wire time
            // (workers move in lockstep, Appendix A).
            double join_time = 0.0;
            for (const CollectiveParticipant& participant : wait.joined) {
              join_time = std::max(join_time, participant.join_time);
            }
            const double completion = join_time + op.duration_us;
            for (const CollectiveParticipant& participant : wait.joined) {
              push_event(completion, SimEventType::kOpComplete, participant.worker,
                         participant.stream);
            }
            collective_waits.erase(key);
          }
          return;
        }
        default:
          CHECK(false) << "op type " << TraceOpTypeName(op.type) << " cannot be stream-enqueued";
      }
    }
  };

  // True when the host's current blocking dependency is satisfied.
  auto host_dependency_ready = [&](WorkerState& worker, double* ready_at) {
    const TraceOp& op = worker.trace->ops[worker.next_op];
    switch (worker.block) {
      case HostBlock::kEvent: {
        auto it = worker.event_completion.find(worker.block_key);
        if (it == worker.event_completion.end()) {
          return false;
        }
        *ready_at = it->second;
        return true;
      }
      case HostBlock::kStream: {
        StreamState& stream = worker.streams[op.stream];
        if (stream.busy || stream.blocked_on_event || !stream.queue.empty()) {
          return false;
        }
        *ready_at = stream.ready_time;
        return true;
      }
      case HostBlock::kDevice: {
        double latest = 0.0;
        for (const auto& [id, stream] : worker.streams) {
          (void)id;
          if (stream.busy || stream.blocked_on_event || !stream.queue.empty()) {
            return false;
          }
          latest = std::max(latest, stream.ready_time);
        }
        *ready_at = latest;
        return true;
      }
      case HostBlock::kNone:
        *ready_at = 0.0;
        return true;
    }
    return false;
  };

  // Host dispatch queue: processes trace ops in order, issuing async ops to
  // streams and blocking on synchronization ops (Algorithm 1/2).
  auto advance_host = [&](int worker_index, double time) {
    WorkerState& worker = workers[static_cast<size_t>(worker_index)];
    while (worker.next_op < worker.trace->ops.size()) {
      const TraceOp& op = worker.trace->ops[worker.next_op];
      const double issue = worker.host_time + op.host_delay_us;
      switch (op.type) {
        case TraceOpType::kKernelLaunch:
        case TraceOpType::kCollective:
        case TraceOpType::kEventRecord:
        case TraceOpType::kStreamWaitEvent: {
          worker.host_busy_us += op.host_delay_us;
          worker.host_time = issue;
          StreamState& stream = worker.streams[op.stream];
          stream.queue.push_back(QueuedOp{worker.next_op, issue});
          ++worker.next_op;
          worker.block = HostBlock::kNone;
          advance_stream(worker_index, op.stream, issue);
          continue;
        }
        case TraceOpType::kMalloc:
        case TraceOpType::kFree: {
          worker.host_busy_us += op.host_delay_us;
          worker.host_time = issue;
          ++worker.next_op;
          continue;
        }
        case TraceOpType::kEventSynchronize:
        case TraceOpType::kStreamSynchronize:
        case TraceOpType::kDeviceSynchronize: {
          // Establish the block descriptor, then test it.
          if (op.type == TraceOpType::kEventSynchronize) {
            const EventOpInfo& event = worker.trace->event(op);
            if (event.version == 0) {
              worker.host_busy_us += op.host_delay_us;
              worker.host_time = issue;
              ++worker.next_op;
              continue;
            }
            worker.block = HostBlock::kEvent;
            worker.block_key = EventKey(event.event_id, event.version);
          } else if (op.type == TraceOpType::kStreamSynchronize) {
            worker.block = HostBlock::kStream;
            worker.block_key = op.stream;
          } else {
            worker.block = HostBlock::kDevice;
            worker.block_key = 0;
          }
          double ready_at = 0.0;
          if (host_dependency_ready(worker, &ready_at)) {
            worker.host_busy_us += op.host_delay_us;
            worker.host_time = std::max(issue, ready_at);
            worker.block = HostBlock::kNone;
            ++worker.next_op;
            continue;
          }
          // Host stalls; an OpComplete / event record will wake it.
          return;
        }
      }
    }
    worker.finish_us = std::max(worker.finish_us, std::max(worker.host_time, time));
  };

  // ---- Main loop (Algorithm 1) ----------------------------------------------

  for (size_t w = 0; w < worker_count; ++w) {
    push_event(0.0, SimEventType::kHostAdvance, static_cast<int>(w), 0);
  }

  while (!event_queue.empty()) {
    const SimEvent event = event_queue.Pop();
    WorkerState& worker = workers[static_cast<size_t>(event.worker)];
    ++worker.events;
    switch (event.type) {
      case SimEventType::kHostAdvance:
        advance_host(event.worker, event.time);
        break;
      case SimEventType::kOpComplete: {
        StreamState& stream = worker.streams[event.stream];
        CHECK(stream.busy);
        const TraceOp& op = worker.trace->ops[stream.executing_op];
        stream.busy = false;
        stream.ready_time = event.time;
        worker.finish_us = std::max(worker.finish_us, event.time);
        if (op.type == TraceOpType::kKernelLaunch) {
          compute_end(worker, event.time);
        } else if (op.type == TraceOpType::kCollective) {
          comm_end(worker, event.time);
        }
        advance_stream(event.worker, event.stream, event.time);
        // The completion may unblock the host (stream/device/event sync).
        if (worker.block != HostBlock::kNone) {
          double ready_at = 0.0;
          if (host_dependency_ready(worker, &ready_at)) {
            push_event(event.time, SimEventType::kHostAdvance, event.worker, 0);
          }
        }
        break;
      }
    }
  }

  // ---- End state ------------------------------------------------------------

  ComponentOutcome outcome;
  outcome.metrics.resize(worker_count);
  outcome.next_op.resize(worker_count);
  outcome.stall.resize(worker_count);
  outcome.waits_pending = !collective_waits.empty();
  for (size_t w = 0; w < worker_count; ++w) {
    const WorkerState& worker = workers[w];
    WorkerSimMetrics& metrics = outcome.metrics[w];
    metrics.finish_us = worker.finish_us;
    metrics.host_busy_us = worker.host_busy_us;
    metrics.compute_busy_us = worker.compute_busy_us;
    metrics.comm_busy_us = worker.comm_busy_us;
    metrics.exposed_comm_us = worker.exposed_comm_us;
    metrics.events = worker.events;
    outcome.next_op[w] = worker.next_op;
    // Deadlock diagnostics: the stalled stream of smallest id (deterministic
    // across runs, unlike hash-map iteration order).
    for (const auto& [stream_id, stream] : worker.streams) {
      if (!(stream.busy || stream.blocked_on_event || !stream.queue.empty())) {
        continue;
      }
      if (!outcome.stall[w].has_value() || stream_id < outcome.stall[w]->stream) {
        outcome.stall[w] = StreamStall{stream_id, stream.blocked_on_event, stream.queue.size()};
      }
    }
  }
  return outcome;
}

}  // namespace

Simulator::Simulator(const JobTrace& job, const ClusterSpec& cluster, SimOptions options)
    : job_(job), cluster_(cluster), options_(options) {
  dispatch_latency_us_ =
      options_.dispatch_latency_us.value_or(cluster_.gpu.kernel_dispatch_latency_us);
  CHECK_GE(dispatch_latency_us_, 0.0) << "dispatch latency must be non-negative";
}

Result<SimReport> Simulator::Run() {
  const size_t worker_count = job_.workers.size();
  if (worker_count == 0) {
    return Status::InvalidArgument("empty job trace");
  }

  // Dedup-aware worker table: span-indexed rank -> sim-worker map built
  // straight from the compressed fold sets, so a 131k-rank world costs a
  // handful of span entries rather than a dense O(world) table. Folded
  // workers move in lockstep, so one representative join stands for all of
  // its folded ranks (§4.2 dedup: redundant GPUs are neither emulated nor
  // simulated).
  const RankLookup rank_to_worker(job_.folded_ranks);

  // ---- Replica fold (§7.4 symmetry at simulation time) ----------------------
  //
  // Fold detection is two-phase because hashing a full trace costs about as
  // much as replaying it. A coarse scan hashes only the collective ops (plus
  // the op count) — communicator uids are precisely what distinguishes
  // near-twins like tensor-parallel peers in different data-parallel groups —
  // alongside the point-to-point marker (send/recv pairing must never fold)
  // and the set of communicators the ops actually reference (membership
  // alone creates no dependency: an unreferenced communicator never
  // synchronizes anyone). Only coarse-equal candidate groups then pay for
  // the full annotated fingerprint over every op field the replay reads.
  const bool fingerprint_workers = options_.deduplicate_replicas && worker_count > 1;
  std::vector<uint64_t> coarse(worker_count, 0);
  std::vector<uint8_t> has_p2p(worker_count, 0);
  std::vector<std::vector<uint64_t>> worker_uids(worker_count);
  // The per-worker scans are independent pure reductions, so they fan out on
  // the borrowed pool; the referenced-uid union below is a sequential merge
  // of per-worker results, making the outcome order-independent (the set is
  // sorted before use anyway).
  auto coarse_scan = [&](size_t w) {
    const WorkerTrace& trace = job_.workers[w];
    uint64_t hash = FnvMix(kFnvOffsetBasis, trace.ops.size());
    for (const CollectiveOpInfo& collective : trace.collectives) {
      worker_uids[w].push_back(collective.comm_uid);
      if (collective.kind == CollectiveKind::kSend || collective.kind == CollectiveKind::kRecv) {
        has_p2p[w] = 1;
      }
    }
    if (fingerprint_workers) {
      for (const TraceOp& op : trace.ops) {
        if (op.type == TraceOpType::kCollective) {
          hash = FnvMix(hash, trace.AnnotatedSignature(op, trace.collective(op).comm_uid));
        }
      }
    }
    coarse[w] = hash;
  };
  if (options_.pool != nullptr && worker_count >= kParallelScanMinWorkers) {
    options_.pool->ParallelFor(worker_count, coarse_scan);
  } else {
    for (size_t w = 0; w < worker_count; ++w) {
      coarse_scan(w);
    }
  }
  std::unordered_set<uint64_t> referenced_uids;
  for (const std::vector<uint64_t>& uids : worker_uids) {
    referenced_uids.insert(uids.begin(), uids.end());
  }

  // rep[w]: the lowest-indexed worker with an identical annotated trace that
  // w's timeline replicates; self when unique (or a p2p endpoint).
  std::vector<int> rep(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    rep[w] = static_cast<int>(w);
  }
  if (fingerprint_workers) {
    std::unordered_map<uint64_t, std::vector<int>> coarse_groups;
    for (size_t w = 0; w < worker_count; ++w) {
      if (!has_p2p[w]) {
        coarse_groups[coarse[w]].push_back(static_cast<int>(w));
      }
    }
    std::vector<int> candidates;  // members of multi-worker coarse groups
    for (const auto& [key, members] : coarse_groups) {
      (void)key;
      if (members.size() >= 2) {
        candidates.insert(candidates.end(), members.begin(), members.end());
      }
    }
    // Full verification walks are independent pure hashes, so they fan out
    // on the shared pool — the walk costs about as much as a replay, and on
    // symmetric jobs every worker is a candidate.
    std::vector<uint64_t> full(candidates.size(), 0);
    auto full_fingerprint = [&](size_t index) {
      const WorkerTrace& trace = job_.workers[static_cast<size_t>(candidates[index])];
      uint64_t hash = kFnvOffsetBasis;
      for (const TraceOp& op : trace.ops) {
        hash = FnvMix(hash, trace.AnnotatedSignature(
                                op, op.type == TraceOpType::kCollective
                                        ? trace.collective(op).comm_uid
                                        : 0));
      }
      full[index] = hash;
    };
    if (options_.pool != nullptr && candidates.size() > 1) {
      options_.pool->ParallelFor(candidates.size(), full_fingerprint);
    } else {
      for (size_t index = 0; index < candidates.size(); ++index) {
        full_fingerprint(index);
      }
    }
    std::unordered_map<int, uint64_t> full_by_worker;
    full_by_worker.reserve(candidates.size());
    for (size_t index = 0; index < candidates.size(); ++index) {
      full_by_worker[candidates[index]] = full[index];
    }
    for (auto& [key, members] : coarse_groups) {
      (void)key;
      if (members.size() < 2) {
        continue;  // no candidate twin: the full walk was skipped entirely
      }
      std::unordered_map<uint64_t, int> first_by_fingerprint;
      for (int w : members) {  // ascending: coarse groups fill in index order
        auto [it, inserted] = first_by_fingerprint.try_emplace(full_by_worker.at(w), w);
        if (!inserted) {
          rep[static_cast<size_t>(w)] = it->second;
        }
      }
    }
  }
  std::vector<int> representatives;
  representatives.reserve(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    if (rep[w] == static_cast<int>(w)) {
      representatives.push_back(static_cast<int>(w));
    }
  }

  // Expected joiners per referenced communicator: distinct representative
  // workers among its members (stamp-deduplicated, one epoch per comm).
  std::unordered_map<uint64_t, int> expected_joins;
  expected_joins.reserve(referenced_uids.size());
  std::vector<std::vector<int>> comm_reps;  // parallel edge lists for union-find
  comm_reps.reserve(referenced_uids.size());
  std::vector<int> worker_stamp(worker_count, -1);
  int comm_epoch = 0;
  std::vector<uint64_t> referenced_ordered(referenced_uids.begin(), referenced_uids.end());
  std::sort(referenced_ordered.begin(), referenced_ordered.end());
  for (uint64_t uid : referenced_ordered) {
    MAYA_ASSIGN_OR_RETURN(const CommGroup* group, job_.comm(uid));
    std::vector<int> reps;
    for (int member : group->members) {
      const int worker = rank_to_worker.Find(member);
      if (worker < 0) {
        continue;
      }
      const int representative = rep[static_cast<size_t>(worker)];
      if (worker_stamp[static_cast<size_t>(representative)] != comm_epoch) {
        worker_stamp[static_cast<size_t>(representative)] = comm_epoch;
        reps.push_back(representative);
      }
    }
    expected_joins[uid] = static_cast<int>(reps.size());
    comm_reps.push_back(std::move(reps));
    ++comm_epoch;
  }

  // ---- Component partition ---------------------------------------------------
  //
  // Union-find over representatives: a referenced communicator with two or
  // more distinct representative joiners is a cross-worker dependency; the
  // connected components it induces are independent and replay in isolation.
  std::vector<int> parent(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    parent[w] = static_cast<int>(w);
  }
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] = parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  if (options_.partition_components) {
    for (const std::vector<int>& reps : comm_reps) {
      for (size_t i = 1; i < reps.size(); ++i) {
        parent[static_cast<size_t>(find(reps[i]))] = find(reps[0]);
      }
    }
  } else {
    // Whole-cluster replay: every representative in one component.
    for (int representative : representatives) {
      parent[static_cast<size_t>(find(representative))] = find(representatives.front());
    }
  }

  std::unordered_map<int, std::vector<int>> by_root;
  for (int representative : representatives) {
    by_root[find(representative)].push_back(representative);  // ascending: reps are ascending
  }
  std::vector<std::vector<int>> components;
  components.reserve(by_root.size());
  for (auto& [root, members] : by_root) {
    (void)root;
    components.push_back(std::move(members));
  }
  std::sort(components.begin(), components.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.front() < b.front();
            });

  // Worker -> (component index, position within the component).
  std::vector<int> component_of(worker_count, -1);
  std::vector<int> position_of(worker_count, -1);
  for (size_t c = 0; c < components.size(); ++c) {
    for (size_t p = 0; p < components[c].size(); ++p) {
      component_of[static_cast<size_t>(components[c][p])] = static_cast<int>(c);
      position_of[static_cast<size_t>(components[c][p])] = static_cast<int>(p);
    }
  }

  // ---- Component canonical fingerprints (dedup + cache keys) -----------------
  //
  // Hash everything the replay reads, with communicator uids renumbered by
  // first use in the component walk and joiner sets expressed as positions
  // within the component — identical fingerprints mean isomorphic replays
  // under the positional worker bijection, so reports transfer verbatim.
  // Skipped when nothing can consume them: component dedup needs at least
  // two components, and the walk costs about as much as a replay.
  const bool fingerprint_components =
      options_.cache != nullptr ||
      (options_.deduplicate_replicas && components.size() > 1);
  std::vector<uint64_t> component_fingerprints(components.size(), 0);
  if (fingerprint_components) {
    for (size_t c = 0; c < components.size(); ++c) {
      const std::vector<int>& members = components[c];
      uint64_t hash = FnvMix(kFnvOffsetBasis, members.size());
      std::unordered_map<uint64_t, uint64_t> local_comm;
      std::vector<uint64_t> local_comm_order;
      for (int member : members) {
        const WorkerTrace& trace = job_.workers[static_cast<size_t>(member)];
        hash = FnvMix(hash, trace.ops.size());
        for (const TraceOp& op : trace.ops) {
          uint64_t token = 0;
          if (op.type == TraceOpType::kCollective) {
            const uint64_t uid = trace.collective(op).comm_uid;
            auto [it, inserted] = local_comm.try_emplace(uid, local_comm.size());
            if (inserted) {
              local_comm_order.push_back(uid);
            }
            token = it->second;
          }
          hash = FnvMix(hash, trace.AnnotatedSignature(op, token));
        }
      }
      // Comm topology: per local communicator, the positions of its distinct
      // representative joiners within this component.
      for (size_t local = 0; local < local_comm_order.size(); ++local) {
        const uint64_t uid = local_comm_order[local];
        hash = FnvMix(hash, local);
        std::vector<int> positions;
        MAYA_ASSIGN_OR_RETURN(const CommGroup* group, job_.comm(uid));
        for (int member : group->members) {
          const int worker = rank_to_worker.Find(member);
          if (worker < 0) {
            continue;
          }
          const int representative = rep[static_cast<size_t>(worker)];
          if (component_of[static_cast<size_t>(representative)] == static_cast<int>(c)) {
            positions.push_back(position_of[static_cast<size_t>(representative)]);
          }
        }
        std::sort(positions.begin(), positions.end());
        positions.erase(std::unique(positions.begin(), positions.end()), positions.end());
        hash = FnvMix(hash, positions.size());
        for (int position : positions) {
          hash = FnvMix(hash, static_cast<uint64_t>(position));
        }
      }
      component_fingerprints[c] = hash;
    }
  }

  // Component-level replica dedup: equal canonical fingerprints replay once.
  std::vector<int> component_source(components.size());
  SimulationStats stats;
  stats.workers = worker_count;
  stats.folded_workers = worker_count - representatives.size();
  stats.components = components.size();
  {
    std::unordered_map<uint64_t, int> first_by_fingerprint;
    for (size_t c = 0; c < components.size(); ++c) {
      component_source[c] = static_cast<int>(c);
      if (options_.deduplicate_replicas && fingerprint_components) {
        auto [it, inserted] =
            first_by_fingerprint.try_emplace(component_fingerprints[c], static_cast<int>(c));
        if (!inserted) {
          component_source[c] = it->second;
          ++stats.replicated_components;
        }
      }
    }
  }

  // ---- Replay ---------------------------------------------------------------

  // Cache keys: canonical fingerprint + every resolved knob the replay reads
  // (the cluster's only influence is the default dispatch latency, already
  // folded into the resolved value). One derivation shared by the lookup and
  // insert sites, so they can never diverge.
  auto cache_key = [this, &component_fingerprints](size_t c) {
    return HashCombine(HashCombine(component_fingerprints[c],
                                   std::bit_cast<uint64_t>(dispatch_latency_us_)),
                       std::bit_cast<uint64_t>(options_.compute_contention_factor));
  };

  std::vector<ComponentOutcome> outcomes(components.size());
  std::vector<bool> resolved(components.size(), false);  // cache hit or replica
  std::vector<size_t> to_simulate;
  for (size_t c = 0; c < components.size(); ++c) {
    if (component_source[c] != static_cast<int>(c)) {
      resolved[c] = true;  // replica: metrics come from its source positionally
      continue;
    }
    if (options_.cache != nullptr) {
      if (std::optional<std::shared_ptr<const ComponentSimResult>> hit =
              options_.cache->Lookup(cache_key(c))) {
        if ((*hit)->workers.size() == components[c].size()) {
          outcomes[c].metrics = (*hit)->workers;
          resolved[c] = true;
          ++stats.cache_hits;
          continue;
        }
      }
      ++stats.cache_misses;
    } else if (fingerprint_components) {
      ++stats.cache_misses;
    }
    to_simulate.push_back(c);
  }
  if (!fingerprint_components) {
    stats.cache_misses = to_simulate.size();
  }
  stats.simulated_components = to_simulate.size();

  auto simulate_one = [&](size_t index) {
    ScopedSpan span("sim_component", "sim");
    const size_t c = to_simulate[index];
    outcomes[c] = SimulateComponent(job_, components[c], expected_joins, dispatch_latency_us_,
                                    options_.compute_contention_factor);
  };
  if (options_.pool != nullptr &&
      to_simulate.size() >= std::max<size_t>(options_.min_parallel_components, 2)) {
    options_.pool->ParallelFor(to_simulate.size(), simulate_one);
  } else {
    for (size_t index = 0; index < to_simulate.size(); ++index) {
      // Per-component cancellation checkpoint: unwinds before the next replay
      // — and always before the cache publish below, so a cancelled run
      // leaves the cross-trial sim cache untouched.
      MAYA_RETURN_IF_ERROR(CheckCancel(options_.cancel));
      simulate_one(index);
    }
  }
  // Authoritative post-replay checkpoint (covers the parallel arm, whose
  // components finish together): nothing published yet.
  MAYA_RETURN_IF_ERROR(CheckCancel(options_.cancel));

  // ---- Termination checks (global worker order, matching the sequential
  // whole-cluster replay's diagnostics) ---------------------------------------

  bool any_deadlock = false;
  for (size_t c = 0; c < components.size() && !any_deadlock; ++c) {
    if (component_source[c] != static_cast<int>(c) || resolved[c]) {
      continue;  // replicas and cache hits mirror successful replays
    }
    any_deadlock = outcomes[c].deadlocked(job_, components[c]);
  }
  // Maps a worker to the outcome slot + position holding its timeline.
  auto outcome_for = [&](size_t w) -> std::pair<const ComponentOutcome*, size_t> {
    const int representative = rep[w];
    const int component = component_of[static_cast<size_t>(representative)];
    const size_t source = static_cast<size_t>(component_source[static_cast<size_t>(component)]);
    return {&outcomes[source], static_cast<size_t>(position_of[static_cast<size_t>(representative)])};
  };
  if (any_deadlock) {
    for (size_t w = 0; w < worker_count; ++w) {
      const auto [outcome, position] = outcome_for(w);
      if (outcome->next_op.empty()) {
        continue;  // unreplayed (cache-hit) components are never stuck
      }
      const size_t next_op = outcome->next_op[position];
      const WorkerTrace& trace = job_.workers[w];
      if (next_op < trace.ops.size()) {
        const TraceOp& op = trace.ops[next_op];
        return Status::Internal(StrFormat(
            "deadlock: worker rank %d stuck at op %zu/%zu (%s%s)", trace.rank, next_op,
            trace.ops.size(), TraceOpTypeName(op.type),
            op.type == TraceOpType::kCollective
                ? StrFormat(", comm %llu seq %u",
                            static_cast<unsigned long long>(trace.collective(op).comm_uid),
                            trace.collective(op).seq)
                      .c_str()
                : ""));
      }
    }
    for (const ComponentOutcome& outcome : outcomes) {
      if (outcome.waits_pending) {
        return Status::Internal("deadlock: collectives left waiting after event queue drained");
      }
    }
    for (size_t w = 0; w < worker_count; ++w) {
      const auto [outcome, position] = outcome_for(w);
      if (outcome->stall.empty() || !outcome->stall[position].has_value()) {
        continue;
      }
      const StreamStall& stall = *outcome->stall[position];
      return Status::Internal(StrFormat(
          "deadlock: rank %d stream %llu stalled (%s) with %zu queued ops",
          job_.workers[w].rank, static_cast<unsigned long long>(stall.stream),
          stall.blocked_on_event ? "waiting on event" : "busy", stall.queued));
    }
    return Status::Internal("deadlock: simulation stalled");
  }

  // Successful replays feed the cross-trial cache.
  if (options_.cache != nullptr) {
    for (size_t c : to_simulate) {
      auto entry = std::make_shared<ComponentSimResult>();
      entry->workers = outcomes[c].metrics;
      options_.cache->Insert(cache_key(c), std::move(entry));
    }
  }

  // ---- Report (deterministic merge in global worker order) -------------------

  SimReport report;
  report.stats = stats;
  report.workers.reserve(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    const auto [outcome, position] = outcome_for(w);
    const WorkerSimMetrics& metrics = outcome->metrics[position];
    const WorkerTrace& trace = job_.workers[w];
    WorkerSimReport worker_report;
    worker_report.rank = trace.rank;
    worker_report.folded_multiplicity = static_cast<int>(job_.folded_ranks[w].size());
    worker_report.finish_us = metrics.finish_us;
    worker_report.host_busy_us = metrics.host_busy_us;
    worker_report.compute_busy_us = metrics.compute_busy_us;
    worker_report.comm_busy_us = metrics.comm_busy_us;
    worker_report.exposed_comm_us = metrics.exposed_comm_us;
    report.total_time_us = std::max(report.total_time_us, metrics.finish_us);
    report.comm_time_us += metrics.comm_busy_us;
    report.exposed_comm_us += metrics.exposed_comm_us;
    report.host_time_us += metrics.host_busy_us;
    report.events_processed += metrics.events;
    report.peak_memory_bytes = std::max(report.peak_memory_bytes, trace.peak_device_bytes);
    report.workers.push_back(worker_report);
  }
  const double n = static_cast<double>(worker_count);
  report.comm_time_us /= n;
  report.exposed_comm_us /= n;
  report.host_time_us /= n;
  return report;
}

}  // namespace maya

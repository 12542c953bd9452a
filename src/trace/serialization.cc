#include "src/trace/serialization.h"

#include <algorithm>
#include <array>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/json_fields.h"
#include "src/common/strings.h"

// Every trace struct lists its keys once, in its Fields function (see
// src/common/json_fields.h). Traces arrive over the service wire as
// untrusted payloads, so the reader's typed, range-checked, non-aborting
// conversions are the whole parser.
namespace maya {
namespace {

// [base, count, stride] triples — the wire form of a RankSet, in canonical
// span order, so equal sets serialize to equal bytes.
using SpanTriples = std::vector<std::array<int64_t, 3>>;

SpanTriples ToSpanTriples(const RankSet& set) {
  SpanTriples triples;
  for (const RankSpan& span : set.spans()) {
    triples.push_back({span.base, span.count, span.stride});
  }
  return triples;
}

Result<RankSet> FromSpanTriples(SpanTriples triples) {
  RankSet set;
  int64_t last = -1;
  for (const auto& [base, count, stride] : triples) {
    if (count <= 0 || stride <= 0 || base < 0) {
      return Status::InvalidArgument(
          StrFormat("invalid rank span [%lld, %lld, %lld]", static_cast<long long>(base),
                    static_cast<long long>(count), static_cast<long long>(stride)));
    }
    // RankSet's ascending contract (and span disjointness) enforced at the
    // trust boundary: each span must start past the previous span's end.
    if (base <= last) {
      return Status::InvalidArgument("rank spans must be ascending and disjoint");
    }
    last = base + (count - 1) * stride;
    set.AddSpan(base, count, stride);
  }
  return set;
}

std::vector<SpanTriples> ToFoldSpans(const std::vector<RankSet>& sets) {
  std::vector<SpanTriples> spans;
  for (const RankSet& set : sets) {
    spans.push_back(ToSpanTriples(set));
  }
  return spans;
}

Result<std::vector<RankSet>> FromFoldSpans(std::vector<SpanTriples> spans) {
  std::vector<RankSet> sets;
  for (SpanTriples& triples : spans) {
    MAYA_ASSIGN_OR_RETURN(RankSet set, FromSpanTriples(std::move(triples)));
    sets.push_back(std::move(set));
  }
  return sets;
}

// Canonical form: comms sorted by uid, so equal traces serialize to equal
// bytes regardless of the unordered map's insertion history (the service's
// strict round-trip contract).
std::vector<CommGroup> SortedComms(const std::unordered_map<uint64_t, CommGroup>& comms) {
  std::vector<CommGroup> groups;
  for (const auto& [uid, group] : comms) {
    groups.push_back(group);
  }
  std::sort(groups.begin(), groups.end(),
            [](const CommGroup& a, const CommGroup& b) { return a.uid < b.uid; });
  return groups;
}

Result<std::unordered_map<uint64_t, CommGroup>> CommsByUid(std::vector<CommGroup> groups) {
  std::unordered_map<uint64_t, CommGroup> comms;
  for (CommGroup& group : groups) {
    if (!comms.emplace(group.uid, std::move(group)).second) {
      return Status::InvalidArgument("duplicate comm uid in job trace");
    }
  }
  return comms;
}

// The trace form of a kernel launch's payload: decimal counts plus the CUDA
// symbol for human readers (the estimator artifacts carry the bit-exact form
// of a KernelDesc).
struct TraceKernel {
  KernelDesc desc;
};

template <class V>
void Fields(V& v, TraceKernel& kernel) {
  v.Enum("kind", kernel.desc.kind, KernelKindName, kKernelKinds);
  v.WriteOnly("op", KernelKindCudaSymbol(kernel.desc.kind));
  v.Enum("dtype", kernel.desc.dtype, DTypeName, kDTypes);
  v("params", kernel.desc.params);
  v("flops", kernel.desc.flops);
  v("bytes_read", kernel.desc.bytes_read);
  v("bytes_written", kernel.desc.bytes_written);
  v("fused_ops", kernel.desc.fused_op_count, Presence::kOmitZero);
}

}  // namespace

template <class V>
void Fields(V& v, CollectiveOpInfo& collective) {
  v.Enum("kind", collective.kind, CollectiveKindName, kCollectiveKinds);
  v("bytes", collective.bytes);
  v("comm_uid", collective.comm_uid);
  v("seq", collective.seq);
  v("nranks", collective.nranks);
  v("rank_in_comm", collective.rank_in_comm);
  v("peer", collective.peer);
}

template <class V>
void Fields(V& v, EventOpInfo& event) {
  v("id", event.event_id);
  v("version", event.version);
}

template <class V>
void Fields(V& v, MemoryOpInfo& memory) {
  v("bytes", memory.bytes);
  v("ptr", memory.ptr);
}

// A payload kept in a dense side table, one entry per op in op order: written
// from the entry the op's index names, read by appending the next entry.
template <class V, class T>
void DensePayload(V& v, std::string_view key, uint32_t& payload, std::vector<T>& table) {
  v.Via(
      key, payload, [&table](uint32_t index) { return table[index]; },
      [&table](T entry) -> Result<uint32_t> {
        table.push_back(std::move(entry));
        return static_cast<uint32_t>(table.size() - 1);
      });
}

// An op carries the payload its type names, and only that one, inline in
// its JSON object. In memory the payload sits in one of `worker`'s side
// tables, so it travels Via() the op's payload index: the writer looks the
// entry up, the reader appends it to its table (interning kernels) and stores
// the new index. Ops are read in order, so every table is rebuilt exactly as
// the emulator recorded it.
template <class V>
void OpFields(V& v, WorkerTrace& worker, TraceOp& op) {
  v.Enum("type", op.type, TraceOpTypeName, kTraceOpTypes);
  v("stream", op.stream);
  v("host_delay_us", op.host_delay_us);
  v("duration_us", op.duration_us, Presence::kOmitZero);
  switch (op.type) {
    case TraceOpType::kKernelLaunch:
      v.Via(
          "kernel", op.payload,
          [&worker](uint32_t index) { return TraceKernel{worker.kernels[index]}; },
          [&worker](TraceKernel kernel) -> Result<uint32_t> {
            return worker.kernels.Intern(kernel.desc);
          });
      break;
    case TraceOpType::kCollective:
      DensePayload(v, "collective", op.payload, worker.collectives);
      break;
    case TraceOpType::kEventRecord:
    case TraceOpType::kStreamWaitEvent:
    case TraceOpType::kEventSynchronize:
      DensePayload(v, "event", op.payload, worker.events);
      break;
    case TraceOpType::kMalloc:
    case TraceOpType::kFree:
      DensePayload(v, "memory", op.payload, worker.memory_ops);
      break;
    case TraceOpType::kStreamSynchronize:
    case TraceOpType::kDeviceSynchronize:
      break;
  }
}

template <class V>
void Fields(V& v, CommInitRecord& init) {
  v("uid", init.comm_uid);
  v("nranks", init.nranks);
  v("rank_in_comm", init.rank_in_comm);
}

template <class V>
void Fields(V& v, WorkerTrace& worker) {
  v("rank", worker.rank);
  v("comm_init_only", worker.comm_init_only);
  v("duplicate_of", worker.duplicate_of);
  v.Via("represented", worker.represented_ranks, ToSpanTriples, FromSpanTriples,
        Presence::kOmitEmpty);
  v.Validate([&worker] {
    if (!worker.represented_ranks.empty() && !worker.represented_ranks.contains(worker.rank)) {
      return Status::InvalidArgument(StrFormat(
          "worker rank %d is not a member of its own represented set", worker.rank));
    }
    return Status::Ok();
  });
  v("peak_device_bytes", worker.peak_device_bytes);
  v("final_device_bytes", worker.final_device_bytes);
  v("comm_inits", worker.comm_inits);
  v.Array("events", worker.ops,
          [&worker](auto& fields, TraceOp& op) { OpFields(fields, worker, op); });
}

template <class V>
void Fields(V& v, CommGroup& group) {
  v("uid", group.uid);
  v("nranks", group.nranks);
  v("members", group.members);
  v.Validate([&group] {
    if (group.nranks != static_cast<int32_t>(group.members.size())) {
      return Status::InvalidArgument(
          StrFormat("comm %llu declares %d ranks but lists %zu members",
                    static_cast<unsigned long long>(group.uid), group.nranks,
                    group.members.size()));
    }
    return Status::Ok();
  });
}

// Fold sets travel as compressed [base, count, stride] span triples, so a
// worker standing for an entire data-parallel slice serializes in O(1)
// rather than one integer per folded rank. Optional only for the legacy
// per-rank form ParseJobTrace accepts in its place.
template <class V>
void Fields(V& v, JobTrace& job) {
  v("world_size", job.world_size);
  v.Via("comms", job.comms, SortedComms, CommsByUid);
  v.Via("folded_spans", job.folded_ranks, ToFoldSpans, FromFoldSpans, Presence::kOptional);
  v("workers", job.workers);
}

namespace {

// Legacy explicit fold sets, one integer per folded rank: accepted (and
// normalized into span sets) so pre-hyperscale bundles keep loading.
Status ReadLegacyFoldedRanks(const JsonValue& value, JobTrace& job) {
  std::vector<std::vector<int>> folded;
  JsonFieldReader reader(value);
  reader("folded_ranks", folded);
  MAYA_RETURN_IF_ERROR(reader.status());
  for (std::vector<int>& ranks : folded) {
    std::sort(ranks.begin(), ranks.end());
    if (std::adjacent_find(ranks.begin(), ranks.end()) != ranks.end()) {
      return Status::InvalidArgument("duplicate rank within a folded_ranks entry");
    }
    RankSet set;
    for (int rank : ranks) {
      set.Add(rank);
    }
    job.folded_ranks.push_back(std::move(set));
  }
  return Status::Ok();
}

// Boundary validation: the simulator CHECK-fails (process abort) or silently
// desynchronizes on inconsistent traces, so a multi-tenant server must
// reject them here.
Status ValidateJobTrace(const JobTrace& job) {
  // The fold validation below walks a per-rank claim table; bound the
  // allocation an adversarial world_size could force.
  constexpr int64_t kMaxWorldSize = int64_t{1} << 22;  // 4M ranks
  if (job.world_size < 0 || job.world_size > kMaxWorldSize) {
    return Status::InvalidArgument(StrFormat("world_size %d outside [0, %lld]", job.world_size,
                                             static_cast<long long>(kMaxWorldSize)));
  }
  if (job.folded_ranks.size() != job.workers.size()) {
    return Status::InvalidArgument(
        StrFormat("folded rank sets (%zu) do not match workers (%zu)",
                  job.folded_ranks.size(), job.workers.size()));
  }
  // Folded rank sets must be non-empty and disjoint: the simulator resolves
  // rank -> worker through this table, and an overlap would make two workers
  // claim the same collective participant (wrong synchronization). The claim
  // table stays per-rank (O(world) parse-time memory, bounded above) because
  // detecting overlaps between arbitrary strided spans needs per-element
  // evidence; lookups after validation use the span index.
  std::vector<int> rank_owner(static_cast<size_t>(std::max(job.world_size, 1)), -1);
  for (size_t w = 0; w < job.workers.size(); ++w) {
    if (job.folded_ranks[w].empty()) {
      return Status::InvalidArgument(StrFormat("worker %zu has no folded ranks", w));
    }
    for (int64_t rank : job.folded_ranks[w]) {
      // Out-of-range ranks would silently drop from expected_joins and abort
      // the collective rendezvous mid-simulation.
      if (rank < 0 || rank >= job.world_size) {
        return Status::InvalidArgument(
            StrFormat("worker %zu folds rank %lld outside world size %d", w,
                      static_cast<long long>(rank), job.world_size));
      }
      int& owner = rank_owner[static_cast<size_t>(rank)];
      if (owner != -1) {
        return Status::InvalidArgument(
            StrFormat("rank %lld is claimed by workers %d and %zu",
                      static_cast<long long>(rank), owner, w));
      }
      owner = static_cast<int>(w);
    }
  }
  // Workers expected to join each comm's collectives (the simulator's
  // expected_joins), precomputed once so the per-op check is O(1).
  std::unordered_map<uint64_t, std::set<size_t>> comm_workers;
  for (const auto& [uid, group] : job.comms) {
    std::set<size_t>& joiners = comm_workers[uid];
    for (int member : group.members) {
      if (member >= 0 && member < job.world_size && rank_owner[static_cast<size_t>(member)] != -1) {
        joiners.insert(static_cast<size_t>(rank_owner[static_cast<size_t>(member)]));
      }
    }
  }
  for (size_t w = 0; w < job.workers.size(); ++w) {
    const WorkerTrace& worker = job.workers[w];
    // One collective join per (comm, seq) per worker — a duplicate would
    // over-fill the simulator's collective waitmap.
    std::set<std::pair<uint64_t, uint32_t>> seen_joins;
    for (const CollectiveOpInfo& collective : worker.collectives) {
      auto comm_it = job.comms.find(collective.comm_uid);
      if (comm_it == job.comms.end()) {
        return Status::InvalidArgument(
            StrFormat("collective references undeclared comm uid %llu",
                      static_cast<unsigned long long>(collective.comm_uid)));
      }
      const CommGroup& group = comm_it->second;
      if (collective.nranks != group.nranks) {
        return Status::InvalidArgument(
            StrFormat("collective on comm %llu claims %d ranks but the comm has %d",
                      static_cast<unsigned long long>(collective.comm_uid), collective.nranks,
                      group.nranks));
      }
      // The issuing worker must represent at least one member of the comm,
      // or it would join a collective the simulator never expects it in.
      if (comm_workers.at(collective.comm_uid).count(w) == 0) {
        return Status::InvalidArgument(
            StrFormat("worker %zu issues a collective on comm %llu but represents none of "
                      "its members",
                      w, static_cast<unsigned long long>(collective.comm_uid)));
      }
      if (!seen_joins.emplace(collective.comm_uid, collective.seq).second) {
        return Status::InvalidArgument(
            StrFormat("worker %zu joins (comm %llu, seq %u) more than once", w,
                      static_cast<unsigned long long>(collective.comm_uid), collective.seq));
      }
    }
  }
  return Status::Ok();
}

}  // namespace

std::string SerializeWorkerTrace(const WorkerTrace& worker) { return WriteJsonFields(worker); }

std::string SerializeJobTrace(const JobTrace& job) { return WriteJsonFields(job); }

Result<WorkerTrace> ParseWorkerTrace(const std::string& json) {
  MAYA_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(json));
  return ReadJsonFields<WorkerTrace>(root);
}

Result<JobTrace> ParseJobTrace(const JsonValue& value) {
  MAYA_ASSIGN_OR_RETURN(JobTrace job, ReadJsonFields<JobTrace>(value));
  if (value.Find("folded_spans") == nullptr) {
    if (value.Find("folded_ranks") == nullptr) {
      return Status::InvalidArgument("job trace lacks folded_spans (or legacy folded_ranks)");
    }
    MAYA_RETURN_IF_ERROR(ReadLegacyFoldedRanks(value, job));
  }
  MAYA_RETURN_IF_ERROR(ValidateJobTrace(job));
  return job;
}

Result<JobTrace> ParseJobTrace(const std::string& json) {
  MAYA_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(json));
  return ParseJobTrace(root);
}

}  // namespace maya

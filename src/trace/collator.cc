#include "src/trace/collator.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace maya {
namespace {

bool IsPointToPoint(const CollectiveOpInfo& collective) {
  return collective.kind == CollectiveKind::kSend || collective.kind == CollectiveKind::kRecv;
}

}  // namespace

Result<const CommGroup*> JobTrace::comm(uint64_t uid) const {
  auto it = comms.find(uid);
  if (it == comms.end()) {
    return Status::Internal(
        StrFormat("unknown communicator uid %llu", static_cast<unsigned long long>(uid)));
  }
  return &it->second;
}

size_t JobTrace::TotalOps() const {
  size_t total = 0;
  for (const WorkerTrace& worker : workers) {
    total += worker.ops.size();
  }
  return total;
}

std::string JobTrace::Summary() const {
  return StrFormat("job: world %d, %zu unique workers, %zu comms, %zu ops", world_size,
                   workers.size(), comms.size(), TotalOps());
}

Status TraceCollator::BuildCommGroups(const std::vector<WorkerTrace>& workers,
                                      std::unordered_map<uint64_t, CommGroup>& comms) const {
  for (const WorkerTrace& worker : workers) {
    for (const CommInitRecord& init : worker.comm_inits) {
      CommGroup& group = comms[init.comm_uid];
      if (group.members.empty()) {
        group.uid = init.comm_uid;
        group.nranks = init.nranks;
        group.members.assign(static_cast<size_t>(init.nranks), -1);
      } else if (group.nranks != init.nranks) {
        return Status::Internal(StrFormat("comm %llu size mismatch: %d vs %d",
                                          static_cast<unsigned long long>(init.comm_uid),
                                          group.nranks, init.nranks));
      }
      if (init.rank_in_comm < 0 || init.rank_in_comm >= init.nranks) {
        return Status::Internal(StrFormat("comm %llu: bad rank_in_comm %d",
                                          static_cast<unsigned long long>(init.comm_uid),
                                          init.rank_in_comm));
      }
      int& slot = group.members[static_cast<size_t>(init.rank_in_comm)];
      if (slot != -1 && slot != worker.rank) {
        return Status::Internal(StrFormat("comm %llu: rank_in_comm %d claimed by both %d and %d",
                                          static_cast<unsigned long long>(init.comm_uid),
                                          init.rank_in_comm, slot, worker.rank));
      }
      slot = worker.rank;
    }
  }
  for (const auto& [uid, group] : comms) {
    for (int member : group.members) {
      if (member < 0) {
        return Status::Internal(StrFormat("comm %llu: incomplete membership (evidence missing)",
                                          static_cast<unsigned long long>(uid)));
      }
    }
  }
  return Status::Ok();
}

Status TraceCollator::ValidateFolding(const JobTrace& job) const {
  // Span-indexed global rank -> sim worker map (no O(world) table).
  const RankLookup rank_to_worker(job.folded_ranks);
  // Point-to-point communicators must not have both endpoints folded into
  // one simulated worker: send/recv pairing would self-deadlock.
  std::vector<uint64_t> p2p_uids;
  for (const WorkerTrace& worker : job.workers) {
    for (const CollectiveOpInfo& collective : worker.collectives) {
      if (IsPointToPoint(collective)) {
        p2p_uids.push_back(collective.comm_uid);
      }
    }
  }
  std::sort(p2p_uids.begin(), p2p_uids.end());
  p2p_uids.erase(std::unique(p2p_uids.begin(), p2p_uids.end()), p2p_uids.end());
  for (uint64_t uid : p2p_uids) {
    MAYA_ASSIGN_OR_RETURN(const CommGroup* group, job.comm(uid));
    std::vector<int> sim_workers;
    for (int member : group->members) {
      const int worker = rank_to_worker.Find(member);
      if (worker >= 0) {
        sim_workers.push_back(worker);
      }
    }
    std::sort(sim_workers.begin(), sim_workers.end());
    sim_workers.erase(std::unique(sim_workers.begin(), sim_workers.end()), sim_workers.end());
    if (sim_workers.size() == 1 && group->members.size() > 1) {
      return Status::Internal(
          StrFormat("unsafe fold: p2p comm %llu endpoints map to one simulated worker",
                    static_cast<unsigned long long>(uid)));
    }
  }
  return Status::Ok();
}

Result<JobTrace> TraceCollator::Collate(std::vector<WorkerTrace> workers,
                                        std::unordered_map<uint64_t, CommGroup> resolved_comms) {
  stats_ = CollationStats{};
  if (workers.empty()) {
    return Status::InvalidArgument("no worker traces");
  }
  std::sort(workers.begin(), workers.end(),
            [](const WorkerTrace& a, const WorkerTrace& b) { return a.rank < b.rank; });

  JobTrace job;
  // Virtual folded ranks extend the world beyond the highest emulated rank.
  int64_t max_rank = workers.back().rank;
  stats_.total_workers = 0;
  for (const WorkerTrace& worker : workers) {
    if (worker.represented_ranks.empty()) {
      stats_.total_workers += 1;
    } else {
      stats_.total_workers += static_cast<int>(worker.represented_ranks.size());
      max_rank = std::max(max_rank, worker.represented_ranks.max_rank());
    }
  }
  job.world_size = static_cast<int>(max_rank) + 1;

  if (!resolved_comms.empty()) {
    job.comms = std::move(resolved_comms);
  } else {
    MAYA_RETURN_IF_ERROR(BuildCommGroups(workers, job.comms));
  }

  // Group full traces by structural fingerprint (dynamic dedup) and fold
  // comm-init-only stubs onto the representative of their equivalence class
  // (selective launch provides such stubs for every non-unique rank). With
  // dedup disabled, each full trace keys its own group.
  struct Group {
    int representative_index = -1;  // into `workers`
    RankSet ranks;
  };
  std::map<uint64_t, Group> groups;  // ordered: deterministic output
  std::vector<int> stub_indices;

  // A worker contributes its virtual fold set when it carries one,
  // otherwise just its own rank.
  const auto contribute = [](RankSet& set, const WorkerTrace& worker) {
    if (worker.represented_ranks.empty()) {
      set.MergeFrom(RankSet{worker.rank});
    } else {
      set.MergeFrom(worker.represented_ranks);
    }
  };

  // First pass: fingerprint classes. Fingerprints are pure per-worker hashes,
  // so with a borrowed pool they compute in parallel; the class map is still
  // built by the sequential index walk below, so grouping (and therefore the
  // collated output) is bit-identical to the all-sequential pass.
  std::vector<uint64_t> fingerprints(workers.size(), 0);
  size_t full_traces = 0;
  for (const WorkerTrace& worker : workers) {
    full_traces += worker.comm_init_only ? 0 : 1;
  }
  const bool parallel_fingerprints = options_.deduplicate && options_.pool != nullptr &&
                                     full_traces >= options_.parallel_fingerprint_threshold;
  if (parallel_fingerprints) {
    options_.pool->ParallelFor(workers.size(), [&workers, &fingerprints](size_t i) {
      if (!workers[i].comm_init_only) {
        fingerprints[i] = workers[i].Fingerprint();
      }
    });
  }
  // Cancellation checkpoint between the (possibly parallel) fingerprint pass
  // and the grouping walk — nothing has been published yet.
  MAYA_RETURN_IF_ERROR(CheckCancel(options_.cancel));
  std::map<uint64_t, std::vector<int>> classes;  // fingerprint -> worker indices
  for (size_t i = 0; i < workers.size(); ++i) {
    const WorkerTrace& worker = workers[i];
    stats_.total_ops_in += worker.ops.size();
    if (worker.comm_init_only) {
      stub_indices.push_back(static_cast<int>(i));
      continue;
    }
    const uint64_t key = !options_.deduplicate ? static_cast<uint64_t>(worker.rank)
                         : parallel_fingerprints ? fingerprints[i]
                                                 : worker.Fingerprint();
    classes[key].push_back(static_cast<int>(i));
  }

  // Second pass: refine each class so folding preserves point-to-point
  // chains. Workers that share a p2p communicator are endpoints of the same
  // link (e.g. consecutive pipeline stages whose interleaved schedules
  // saturated into identical op sequences) — they must never fold together.
  // Union-find over shared p2p uids partitions the class into isomorphic
  // chains; chains fold onto the first chain *positionally*, which keeps
  // every link's endpoint structure intact.
  uint64_t synthetic_key = 0;
  for (const auto& [fingerprint, member_indices] : classes) {
    if (member_indices.size() == 1) {
      // Singleton class (always the case with dedup disabled): nothing can
      // fold, so skip the per-op p2p scan and union-find entirely.
      Group group;
      group.representative_index = member_indices.front();
      contribute(group.ranks, workers[static_cast<size_t>(member_indices.front())]);
      groups[HashCombine(fingerprint, ++synthetic_key)] = std::move(group);
      continue;
    }
    // Collect each member's p2p communicator set.
    std::vector<std::vector<uint64_t>> p2p_uids(member_indices.size());
    for (size_t m = 0; m < member_indices.size(); ++m) {
      const WorkerTrace& worker = workers[static_cast<size_t>(member_indices[m])];
      for (const CollectiveOpInfo& collective : worker.collectives) {
        if (IsPointToPoint(collective)) {
          p2p_uids[m].push_back(collective.comm_uid);
        }
      }
      std::sort(p2p_uids[m].begin(), p2p_uids[m].end());
      p2p_uids[m].erase(std::unique(p2p_uids[m].begin(), p2p_uids[m].end()),
                        p2p_uids[m].end());
    }
    // Union-find by shared uid.
    std::vector<size_t> parent(member_indices.size());
    for (size_t m = 0; m < parent.size(); ++m) {
      parent[m] = m;
    }
    std::function<size_t(size_t)> find = [&](size_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    std::unordered_map<uint64_t, size_t> uid_owner;
    for (size_t m = 0; m < member_indices.size(); ++m) {
      for (uint64_t uid : p2p_uids[m]) {
        auto [it, inserted] = uid_owner.emplace(uid, m);
        if (!inserted) {
          parent[find(m)] = find(it->second);
        }
      }
    }
    // Gather chains (components), members in rank order within each.
    std::map<size_t, std::vector<int>> chains;  // root -> worker indices
    for (size_t m = 0; m < member_indices.size(); ++m) {
      chains[find(m)].push_back(member_indices[m]);
    }
    std::vector<std::vector<int>> ordered_chains;
    for (auto& [root, chain] : chains) {
      (void)root;
      ordered_chains.push_back(std::move(chain));
    }
    std::sort(ordered_chains.begin(), ordered_chains.end());
    const size_t chain_size = ordered_chains.front().size();
    bool uniform = true;
    for (const auto& chain : ordered_chains) {
      uniform = uniform && chain.size() == chain_size;
    }
    if (!uniform) {
      // Irregular structure: fold nothing in this class (always safe).
      for (int index : member_indices) {
        Group group;
        group.representative_index = index;
        contribute(group.ranks, workers[static_cast<size_t>(index)]);
        groups[HashCombine(fingerprint, ++synthetic_key)] = std::move(group);
      }
      continue;
    }
    // Positional fold: element i of every chain folds onto element i of the
    // first chain.
    for (size_t position = 0; position < chain_size; ++position) {
      Group group;
      group.representative_index = ordered_chains[0][position];
      for (const auto& chain : ordered_chains) {
        contribute(group.ranks, workers[static_cast<size_t>(chain[position])]);
      }
      groups[HashCombine(fingerprint, ++synthetic_key)] = std::move(group);
    }
  }

  // Stubs join the group of their declared representative (duplicate_of).
  for (int index : stub_indices) {
    const WorkerTrace& stub = workers[static_cast<size_t>(index)];
    if (stub.duplicate_of < 0) {
      return Status::InvalidArgument(
          StrFormat("comm-init-only stub rank %d lacks duplicate_of", stub.rank));
    }
    bool placed = false;
    for (auto& [fp, group] : groups) {
      (void)fp;
      const WorkerTrace& rep = workers[static_cast<size_t>(group.representative_index)];
      if (rep.rank == stub.duplicate_of) {
        contribute(group.ranks, stub);
        placed = true;
        break;
      }
    }
    if (!placed) {
      return Status::InvalidArgument(StrFormat("stub rank %d names unknown representative %d",
                                               stub.rank, stub.duplicate_of));
    }
  }

  job.workers.reserve(groups.size());
  job.folded_ranks.reserve(groups.size());
  for (auto& [fp, group] : groups) {
    (void)fp;
    WorkerTrace& rep = workers[static_cast<size_t>(group.representative_index)];
    stats_.total_ops_out += rep.ops.size();
    job.workers.push_back(std::move(rep));
    job.folded_ranks.push_back(std::move(group.ranks));
  }

  // Deterministic ordering by representative rank.
  std::vector<size_t> order(job.workers.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&job](size_t a, size_t b) {
    return job.workers[a].rank < job.workers[b].rank;
  });
  JobTrace sorted;
  sorted.world_size = job.world_size;
  sorted.comms = std::move(job.comms);
  for (size_t i : order) {
    sorted.workers.push_back(std::move(job.workers[i]));
    sorted.folded_ranks.push_back(std::move(job.folded_ranks[i]));
  }

  stats_.unique_workers = static_cast<int>(sorted.workers.size());
  stats_.duplicates_folded = stats_.total_workers - stats_.unique_workers;

  MAYA_RETURN_IF_ERROR(ValidateFolding(sorted));
  return sorted;
}

}  // namespace maya

// Trace collation and worker deduplication (§4.2).
//
// The collator merges per-worker traces into a unified JobTrace: it matches
// collective operations across workers via (communicator uid, sequence
// number), reconstructs communicator membership from CommInitRecords, and —
// when deduplication is enabled — folds structurally identical workers onto
// a single representative so the simulator processes only unique ranks.
#ifndef SRC_TRACE_COLLATOR_H_
#define SRC_TRACE_COLLATOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/trace/trace.h"

namespace maya {

// Fully resolved communicator: members[i] is the global rank holding
// rank_in_comm == i.
struct CommGroup {
  uint64_t uid = 0;
  int32_t nranks = 0;
  std::vector<int> members;
};

// Unified job-level trace: the simulator's input.
struct JobTrace {
  int world_size = 0;
  // Unique (post-dedup) worker traces. Without dedup this is every rank.
  std::vector<WorkerTrace> workers;
  // folded_ranks[i] = all global ranks represented by workers[i] (including
  // the representative itself). Workers folded together executed identical
  // op sequences and move in lockstep in the simulation. Stored as
  // compressed span sets so hyperscale jobs never materialize one entry per
  // rank (§7.4 virtual folds).
  std::vector<RankSet> folded_ranks;
  std::unordered_map<uint64_t, CommGroup> comms;

  // The communicator with this uid; INTERNAL when the trace declares none
  // (an inconsistent trace is an error to surface, never an abort).
  Result<const CommGroup*> comm(uint64_t uid) const;
  size_t TotalOps() const;
  std::string Summary() const;
};

struct CollationOptions {
  // Dynamic worker deduplication: fold structurally identical workers.
  bool deduplicate = true;
  // Borrowed pool (normally the pipeline's shared ExecutionContext pool) for
  // the fingerprint pass: per-worker fingerprints are independent hashes, so
  // they fan out and are consumed in the original worker order afterwards —
  // the collated trace is bit-identical to the sequential pass. Null keeps
  // collation sequential.
  ThreadPool* pool = nullptr;
  // Minimum full worker traces before the pool engages (hashing a handful of
  // small traces is cheaper than the fan-out).
  size_t parallel_fingerprint_threshold = 4;
  // Cooperative-cancellation checkpoint after the fingerprint pass: a
  // cancelled Collate unwinds with CANCELLED/DEADLINE_EXCEEDED before the
  // grouping walk. Null = not cancellable.
  const CancelToken* cancel = nullptr;
};

struct CollationStats {
  int total_workers = 0;
  int unique_workers = 0;
  int duplicates_folded = 0;
  size_t total_ops_in = 0;
  size_t total_ops_out = 0;
};

class TraceCollator {
 public:
  explicit TraceCollator(CollationOptions options = {}) : options_(options) {}

  // Consumes worker traces (all ranks, or unique ranks + comm-init-only
  // stubs in selective-launch mode) and produces the unified job trace.
  // Fails when communicator evidence is inconsistent (mismatched sizes,
  // duplicate rank_in_comm claims) or when folding would break collective
  // pairing semantics.
  // `resolved_comms` is the analytically-resolved communicator membership
  // from the hierarchical selective launcher (hyperscale mode): when
  // non-empty it is used verbatim and the per-worker CommInitRecord
  // evidence walk is skipped — virtual folded ranks never emit comm-init
  // stubs, so their membership cannot be reconstructed from traces alone.
  Result<JobTrace> Collate(std::vector<WorkerTrace> workers,
                           std::unordered_map<uint64_t, CommGroup> resolved_comms = {});

  const CollationStats& stats() const { return stats_; }

 private:
  Status BuildCommGroups(const std::vector<WorkerTrace>& workers,
                         std::unordered_map<uint64_t, CommGroup>& comms) const;
  Status ValidateFolding(const JobTrace& job) const;

  CollationOptions options_;
  CollationStats stats_;
};

}  // namespace maya

#endif  // SRC_TRACE_COLLATOR_H_

#include "src/dlf/worker_launcher.h"

#include <atomic>
#include <chrono>
#include <memory>

#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/dlf/rank_plan.h"

namespace maya {
namespace {

double WallMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Lowers `current` to `rank` if it is smaller (lock-free running minimum).
void FetchMin(std::atomic<int>& current, int rank) {
  int observed = current.load(std::memory_order_relaxed);
  while (rank < observed &&
         !current.compare_exchange_weak(observed, rank, std::memory_order_relaxed)) {
  }
}

}  // namespace

Result<LaunchResult> EmulateJob(const ModelConfig& model, const TrainConfig& config,
                                const ClusterSpec& cluster, const LaunchOptions& options) {
  MAYA_RETURN_IF_ERROR(config.Validate(model, cluster));
  const auto start = std::chrono::steady_clock::now();

  JobEmulation emulation(EmulationSpec{cluster});
  JobCommRegistry registry(&emulation.bootstrap());
  LaunchResult result;
  const int world = cluster.total_gpus();

  // Engines are const after construction; one instance drives every rank
  // (concurrently under a parallel launch).
  const bool is_megatron = config.framework == ParallelFramework::kMegatron &&
                           model.family != ModelFamily::kResNet;
  std::unique_ptr<MegatronEngine> megatron;
  std::unique_ptr<FsdpEngine> fsdp;
  std::unique_ptr<VisionEngine> vision;
  if (model.family == ModelFamily::kResNet) {
    vision = std::make_unique<VisionEngine>(model, config, cluster);
  } else if (is_megatron) {
    megatron = std::make_unique<MegatronEngine>(model, config, cluster);
  } else {
    fsdp = std::make_unique<FsdpEngine>(model, config, cluster);
  }

  auto register_comms = [&](int rank) {
    if (megatron != nullptr) {
      megatron->RegisterComms(rank, &registry);
    } else if (vision != nullptr) {
      vision->RegisterComms(rank, &registry);
    } else {
      fsdp->RegisterComms(rank, &registry);
    }
  };
  auto run_full_worker = [&](int rank, WorkerEmulator* worker, VirtualHostClock* clock) {
    // Per-rank cancellation checkpoint: a pending cancel/deadline aborts the
    // launch before this rank's emulation, propagating through the same
    // first-failure path an emulation error takes.
    if (Status cancelled = CheckCancel(options.cancel); !cancelled.ok()) {
      return cancelled;
    }
    if (vision != nullptr) {
      return vision->RunWorker(rank, worker, clock, &registry);
    }
    if (megatron != nullptr) {
      return megatron->RunWorker(rank, worker, clock, &registry);
    }
    return fsdp->RunWorker(rank, worker, clock, &registry);
  };
  // The pool only engages above the adaptive threshold: fan-out overhead
  // beats the work itself on small worlds (BENCH_emulation's 0.87x arm).
  ThreadPool* pool = options.emulation_pool;
  const int parallel_floor = std::max(options.min_parallel_ranks, 2);

  if (options.virtual_folds) {
    // ---- Hyperscale mode: O(unique classes) end to end -----------------------
    //
    // No per-rank plan walk, no stub emulation, no per-rank clocks: the
    // engine's analytic equivalence classes drive everything, and folded
    // ranks exist only as RankSet spans on the representative traces.
    std::vector<RankClass> classes;
    if (vision != nullptr) {
      classes = vision->EquivalenceClasses();
    } else if (megatron != nullptr) {
      classes = megatron->EquivalenceClasses();
    } else {
      classes = fsdp->EquivalenceClasses();
    }
    const int class_count = static_cast<int>(classes.size());

    // Pin communicator unique ids representative-major (ascending), the
    // order sequential emulation of the representatives would first use
    // them — so a parallel fan-out records identical comm_uids.
    for (const RankClass& cls : classes) {
      register_comms(cls.representative);
    }

    std::vector<std::unique_ptr<VirtualHostClock>> clocks;
    clocks.reserve(classes.size());
    std::vector<WorkerEmulator*> workers;
    workers.reserve(classes.size());
    for (const RankClass& cls : classes) {
      clocks.push_back(std::make_unique<VirtualHostClock>());
      workers.push_back(&emulation.CreateWorker(cls.representative, clocks.back().get(),
                                                /*full=*/true));
    }

    std::vector<Status> statuses(classes.size());
    std::atomic<int> first_failed{class_count};
    if (pool != nullptr && class_count >= parallel_floor) {
      pool->ParallelFor(classes.size(), [&](size_t index) {
        ScopedSpan span("emulate_rank", "dlf");
        if (static_cast<int>(index) > first_failed.load(std::memory_order_relaxed)) {
          return;  // a lower class already failed; sequential order is authoritative
        }
        Status status = run_full_worker(classes[index].representative, workers[index],
                                        clocks[index].get());
        if (!status.ok()) {
          FetchMin(first_failed, static_cast<int>(index));
        }
        statuses[index] = std::move(status);
      });
    } else {
      for (int index = 0; index < class_count; ++index) {
        Status status = run_full_worker(classes[static_cast<size_t>(index)].representative,
                                        workers[static_cast<size_t>(index)],
                                        clocks[static_cast<size_t>(index)].get());
        const bool failed = !status.ok();
        statuses[static_cast<size_t>(index)] = std::move(status);
        if (failed) {
          first_failed.store(index, std::memory_order_relaxed);
          break;
        }
      }
    }

    const int failed_index = first_failed.load(std::memory_order_relaxed);
    if (failed_index < class_count) {
      const Status& status = statuses[static_cast<size_t>(failed_index)];
      if (status.code() == StatusCode::kOutOfMemory) {
        // Identical outcome to the materialized path: the failing class
        // representative is the lowest full rank a sequential all-rank run
        // would have stopped at (twins OOM identically, stubs never OOM).
        result.oom = true;
        result.oom_detail =
            StrFormat("rank %d: %s", classes[static_cast<size_t>(failed_index)].representative,
                      status.message().c_str());
        for (int index = 0; index < failed_index; ++index) {
          result.total_api_calls += workers[static_cast<size_t>(index)]->stats().api_calls;
          ++result.full_workers_emulated;
        }
        result.emulation_wall_ms = WallMs(start);
        return result;
      }
      return status;
    }

    for (int index = 0; index < class_count; ++index) {
      result.total_api_calls += workers[static_cast<size_t>(index)]->stats().api_calls;
      ++result.full_workers_emulated;
    }
    result.traces = emulation.TakeTraces();
    for (WorkerTrace& trace : result.traces) {
      for (const RankClass& cls : classes) {
        if (cls.representative == trace.rank) {
          trace.represented_ranks = cls.members;
          break;
        }
      }
    }
    // Analytic communicator resolution: membership of every communicator
    // the representatives initialized, in closed form from the layout. The
    // registry maps each logical name to the uid the emulation assigned.
    for (const RankClass& cls : classes) {
      std::vector<CommSpec> specs;
      if (vision != nullptr) {
        specs = vision->DescribeComms(cls.representative);
      } else if (megatron != nullptr) {
        specs = megatron->DescribeComms(cls.representative);
      } else {
        specs = fsdp->DescribeComms(cls.representative);
      }
      for (CommSpec& spec : specs) {
        const uint64_t uid = registry.IdFor(spec.name).value;
        auto [it, inserted] = result.resolved_comms.try_emplace(uid);
        if (inserted) {
          it->second.uid = uid;
          it->second.nranks = static_cast<int32_t>(spec.members.size());
          it->second.members = std::move(spec.members);
        }
      }
    }
    result.emulation_wall_ms = WallMs(start);
    return result;
  }

  // ---- Materialized path (legacy selective launch / full emulation) ----------

  // Rank-equivalence plan: representative[r] is the fully-emulated rank
  // whose trace rank r duplicates. Computed once, reused for launch
  // selection, stub tagging and accounting.
  std::vector<int> representative(static_cast<size_t>(world), 0);
  if (is_megatron) {
    for (int rank = 0; rank < world; ++rank) {
      representative[static_cast<size_t>(rank)] = megatron->layout().RepresentativeOf(rank);
    }
  }
  std::vector<bool> full_rank(static_cast<size_t>(world), true);
  if (options.selective_launch) {
    for (int rank = 0; rank < world; ++rank) {
      full_rank[static_cast<size_t>(rank)] = representative[static_cast<size_t>(rank)] == rank;
    }
  }

  // Pre-assign communicator unique ids by replaying, rank-major, the order
  // in which sequential emulation would first use each logical group name.
  // This pins uid assignment independently of execution interleaving, so the
  // parallel fan-out below records the same comm_uids as a sequential run.
  for (int rank = 0; rank < world; ++rank) {
    register_comms(rank);
  }

  // Host clocks must outlive the emulators that reference them. Workers are
  // created up front (CreateWorker is not thread-safe); after this loop each
  // rank's emulator + clock are touched only by that rank's task.
  std::vector<std::unique_ptr<VirtualHostClock>> clocks;
  clocks.reserve(static_cast<size_t>(world));
  std::vector<WorkerEmulator*> workers;
  workers.reserve(static_cast<size_t>(world));
  for (int rank = 0; rank < world; ++rank) {
    clocks.push_back(std::make_unique<VirtualHostClock>());
    workers.push_back(&emulation.CreateWorker(rank, clocks.back().get(),
                                              full_rank[static_cast<size_t>(rank)]));
  }

  auto run_rank = [&](int rank) -> Status {
    WorkerEmulator* worker = workers[static_cast<size_t>(rank)];
    VirtualHostClock* clock = clocks[static_cast<size_t>(rank)].get();
    if (!full_rank[static_cast<size_t>(rank)]) {
      if (megatron != nullptr) {
        return megatron->RunCommInitOnly(rank, worker, clock, &registry);
      }
      if (vision != nullptr) {
        return vision->RunCommInitOnly(rank, worker, clock, &registry);
      }
      return fsdp->RunCommInitOnly(rank, worker, clock, &registry);
    }
    return run_full_worker(rank, worker, clock);
  };

  // `first_failed` is the lowest rank whose emulation returned non-OK — the
  // rank sequential execution would have stopped at.
  std::vector<Status> statuses(static_cast<size_t>(world));
  std::atomic<int> first_failed{world};

  if (pool != nullptr && world >= parallel_floor) {
    pool->ParallelFor(static_cast<size_t>(world), [&](size_t index) {
      ScopedSpan span("emulate_rank", "dlf");
      const int rank = static_cast<int>(index);
      // A lower rank already failed: sequential execution would never have
      // reached this rank, so its outcome cannot affect the result. Skipped
      // ranks keep an OK status; `first_failed` is the sole authority on
      // where the job stopped.
      if (rank > first_failed.load(std::memory_order_relaxed)) {
        return;
      }
      Status status = run_rank(rank);
      if (!status.ok()) {
        FetchMin(first_failed, rank);
      }
      statuses[index] = std::move(status);
    });
  } else {
    for (int rank = 0; rank < world; ++rank) {
      Status status = run_rank(rank);
      const bool failed = !status.ok();
      statuses[static_cast<size_t>(rank)] = std::move(status);
      if (failed) {
        first_failed.store(rank, std::memory_order_relaxed);
        break;  // sequential early exit, as in the seed
      }
    }
  }

  const int failed_rank = first_failed.load(std::memory_order_relaxed);
  if (failed_rank < world) {
    const Status& status = statuses[static_cast<size_t>(failed_rank)];
    if (status.code() == StatusCode::kOutOfMemory) {
      // The configuration does not fit: a first-class outcome (search
      // pruning, Fig. 2b OOM cells). Twin ranks would OOM identically.
      // Counters cover the ranks a sequential run completed before the OOM.
      result.oom = true;
      result.oom_detail = StrFormat("rank %d: %s", failed_rank, status.message().c_str());
      for (int rank = 0; rank < failed_rank; ++rank) {
        result.total_api_calls += workers[static_cast<size_t>(rank)]->stats().api_calls;
        if (full_rank[static_cast<size_t>(rank)]) {
          ++result.full_workers_emulated;
        }
      }
      result.emulation_wall_ms = WallMs(start);
      return result;
    }
    return status;
  }

  for (int rank = 0; rank < world; ++rank) {
    result.total_api_calls += workers[static_cast<size_t>(rank)]->stats().api_calls;
    if (full_rank[static_cast<size_t>(rank)]) {
      ++result.full_workers_emulated;
    }
  }
  result.traces = emulation.TakeTraces();
  if (options.selective_launch) {
    for (WorkerTrace& trace : result.traces) {
      if (!full_rank[static_cast<size_t>(trace.rank)]) {
        trace.comm_init_only = true;
        trace.duplicate_of = representative[static_cast<size_t>(trace.rank)];
        trace.ClearOps();  // bootstrap host noise is not part of the job trace
      }
    }
  }
  result.emulation_wall_ms = WallMs(start);
  return result;
}

}  // namespace maya

